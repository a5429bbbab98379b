package aquila

import (
	"context"
	"errors"
	"maps"

	"aquila/internal/apps/betweenness"
	"aquila/internal/apps/condense"
	"aquila/internal/apps/kcore"
	"aquila/internal/bfs"
	"aquila/internal/bgcc"
	"aquila/internal/bicc"
	"aquila/internal/cc"
	"aquila/internal/gen"
	"aquila/internal/graph"
	"aquila/internal/scc"
	"aquila/internal/serve"
)

// Snapshot is one epoch's immutable view of the graph, and the one place
// every query is computed. All queries on a snapshot are answered as of its
// epoch, regardless of concurrent batches. Results are cached on it in
// singleflight cells (concurrent askers share one compute), and a batch that
// leaves a result valid hands it on to the next epoch's snapshot.
//
// A Snapshot is safe for concurrent use. It holds no locks between calls and
// never blocks a writer. Snapshots of an engine wrapped by a Server run
// their kernels under the server's admission gate and default timeout.
type Snapshot struct {
	eng   *Engine
	srv   *Server // nil: no admission gate, telemetry or default timeout
	epoch uint64

	// gs and the pending delta are the writer state at capture; mat holds
	// the graphs with a non-empty delta folded in, built once on first need.
	gs       graphSet
	deltaUnd []graph.Edge
	deltaDir []graph.Edge

	mat        serve.Cell[graphSet]
	ccRaw      serve.Cell[*cc.Result] // compute-space labels (min-id canonical)
	ccRes      serve.Cell[*cc.Result] // the same in original ids
	hist       serve.Cell[map[int]int]
	isConn     serve.Cell[bool]
	largest    serve.Cell[*LargestResult]
	sccRes     serve.Cell[*scc.Result]
	isStrong   serve.Cell[bool]
	largestSCC serve.Cell[*LargestResult]
	cond       serve.Cell[*Condensation]
	biccRes    serve.Cell[*bicc.Result]
	apOnly     serve.Cell[*bicc.Result]
	bgccRes    serve.Cell[*bgcc.Result]
	brOnly     serve.Cell[*bgcc.Result]
	btw        serve.Cell[[]float64]
	core       serve.Cell[[]int32]
}

// cellSet names the groups of snapshot cells a batch can invalidate.
type cellSet uint8

const (
	ccCells  cellSet = 1 << iota // component membership changed
	undCells                     // the undirected edge set changed
	dirCells                     // the arc set changed
)

// inherit seeds sn with every result of p that the stale groups leave
// valid. Results carry over by identity, never by copy.
func (sn *Snapshot) inherit(p *Snapshot, stale cellSet) {
	if stale == 0 {
		carry(&sn.mat, &p.mat)
	}
	if stale&ccCells == 0 {
		carry(&sn.ccRaw, &p.ccRaw)
		carry(&sn.ccRes, &p.ccRes)
		carry(&sn.hist, &p.hist)
		carry(&sn.isConn, &p.isConn)
		carry(&sn.largest, &p.largest)
	}
	if stale&undCells == 0 {
		carry(&sn.biccRes, &p.biccRes)
		carry(&sn.apOnly, &p.apOnly)
		carry(&sn.bgccRes, &p.bgccRes)
		carry(&sn.brOnly, &p.brOnly)
		carry(&sn.btw, &p.btw)
		carry(&sn.core, &p.core)
	}
	if stale&dirCells == 0 {
		carry(&sn.sccRes, &p.sccRes)
		carry(&sn.isStrong, &p.isStrong)
		carry(&sn.largestSCC, &p.largestSCC)
		carry(&sn.cond, &p.cond)
	}
}

func carry[T any](dst, src *serve.Cell[T]) {
	if v, ok := src.Peek(); ok {
		dst.Seed(v)
	}
}

// setStats attaches the serving layer's singleflight telemetry to every
// cell. It runs before the snapshot is published.
func (sn *Snapshot) setStats(st *serve.CellStats) {
	for _, c := range []interface{ SetStats(*serve.CellStats) }{
		&sn.mat, &sn.ccRaw, &sn.ccRes, &sn.hist, &sn.isConn, &sn.largest,
		&sn.sccRes, &sn.isStrong, &sn.largestSCC, &sn.cond, &sn.biccRes,
		&sn.apOnly, &sn.bgccRes, &sn.brOnly, &sn.btw, &sn.core,
	} {
		c.SetStats(st)
	}
}

// Epoch identifies the snapshot's position in the update sequence: epoch k
// reflects exactly the first k batches (counted from NewServer on a served
// engine).
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// NumVertices returns the vertex count (fixed across epochs: batches never
// grow the vertex set).
func (sn *Snapshot) NumVertices() int { return sn.eng.n }

// callKey tags a query's context with how it entered the snapshot: direct
// (an Engine method) or nested (a compute asking for another cell). Only
// untagged calls get the server's default timeout, and only direct calls
// skip its admission gate.
type callKey struct{}

type callKind uint8

const (
	callDirect callKind = iota + 1
	callNested
)

// getCell is the one entry point for every cached snapshot value: warm
// values return immediately; cold ones compute through the cell's
// singleflight, under the server's default timeout, unless the server's
// ablation knob bypasses singleflight. compute takes the snapshot as an
// argument so call sites pass capture-free functions and a warm lookup
// allocates nothing.
func getCell[T any](sn *Snapshot, ctx context.Context, c *serve.Cell[T], compute func(*Snapshot, context.Context) (T, error)) (T, error) {
	srv := sn.srv
	ablate := srv != nil && srv.cfg.DisableSingleflight
	if !ablate {
		// The hit is counted here; a miss is counted by Get below.
		if v, ok := c.Cached(); ok {
			return v, nil
		}
	} else if v, ok := c.Peek(); ok {
		return v, nil
	}
	run := func(ctx context.Context) (T, error) { return compute(sn, ctx) }
	if srv != nil {
		if ctx == nil {
			ctx = context.Background()
		}
		kind, _ := ctx.Value(callKey{}).(callKind)
		if kind == 0 {
			if _, has := ctx.Deadline(); !has && srv.cfg.DefaultTimeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, srv.cfg.DefaultTimeout)
				defer cancel()
			}
			kind = callNested
		}
		// The compute runs on the cell's private context; tag it so nested
		// lookups neither restart the timeout nor re-decide the gate.
		run = func(cctx context.Context) (T, error) {
			return compute(sn, context.WithValue(cctx, callKey{}, kind))
		}
	}
	if ablate {
		v, err := run(ctx)
		if err == nil {
			c.Seed(v)
		}
		return v, err
	}
	for {
		v, err := c.Get(ctx, run)
		if !errors.Is(err, serve.ErrOverloaded) || ctx.Value(callKey{}) != callDirect {
			return v, err
		}
		// A direct call is never shed itself: it joined a gated compute that
		// was. Nothing failed is cached, so retrying starts its own.
	}
}

// kernel runs f on this epoch's materialized graphs inside one admission
// slot (none for direct calls or bare engines). If ctx ends meanwhile,
// whatever f produced is partial and is discarded. Slots are only ever
// taken here, around one kernel, never nested, so a slot holder cannot
// deadlock waiting for another slot.
func kernel[T any](sn *Snapshot, ctx context.Context, f func(graphSet) T) (T, error) {
	var zero T
	if sn.srv != nil && ctx.Value(callKey{}) != callDirect {
		if err := sn.srv.gate.Acquire(ctx); err != nil {
			return zero, err
		}
		defer sn.srv.gate.Release()
	}
	gs, err := sn.materialized(ctx)
	if err != nil {
		return zero, err
	}
	v := f(gs)
	if err := ctxErr(ctx); err != nil {
		return zero, err
	}
	return v, nil
}

// ctxErr reports the context's error; a nil context never errs.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// materialized folds the snapshot's pending delta into fresh CSR graphs,
// once, shared by every kernel on this snapshot. Not gated: it is a graph
// build, not a kernel, and it runs inside callers that already hold a slot.
func (sn *Snapshot) materialized(ctx context.Context) (graphSet, error) {
	if len(sn.deltaUnd) == 0 && len(sn.deltaDir) == 0 {
		return sn.gs, nil
	}
	return getCell(sn, ctx, &sn.mat, func(sn *Snapshot, _ context.Context) (graphSet, error) {
		return materializeGraphs(sn.eng.directed, sn.eng.perm, sn.gs,
			sn.deltaUnd, sn.deltaDir, sn.eng.opt.Threads), nil
	})
}

// undirected is materialized's undirected compute graph, without a call
// when there is no delta to fold (IsConnected's trim scan is a hot path).
func (sn *Snapshot) undirected(ctx context.Context) (*Undirected, error) {
	if len(sn.deltaUnd) == 0 && len(sn.deltaDir) == 0 {
		return sn.gs.und, nil
	}
	gs, err := sn.materialized(ctx)
	return gs.und, err
}

// graphs is materialized for callers without a context; it cannot fail.
func (sn *Snapshot) graphs() graphSet {
	gs, _ := sn.materialized(direct)
	return gs
}

// Undirected returns the snapshot's undirected graph in original vertex ids.
func (sn *Snapshot) Undirected() *Undirected {
	gs := sn.graphs()
	if sn.eng.perm != nil {
		return gs.origUnd
	}
	return gs.und
}

// Directed returns the snapshot's directed graph in original vertex ids, or
// nil for undirected engines.
func (sn *Snapshot) Directed() *Directed {
	gs := sn.graphs()
	if sn.eng.perm != nil {
		return gs.origDir
	}
	return gs.dir
}

// CCPolicy reports the CC matrix cell this snapshot's graph resolves to, in
// cc.ParsePolicy syntax — with Options.CCPolicy at "auto" this is the
// adaptive chooser's pick. It runs no kernel.
func (sn *Snapshot) CCPolicy() string {
	return sn.eng.opt.ccPolicy(sn.graphs().und).String()
}

// SCCPolicy is CCPolicy for the SCC matrix. Undirected engines return
// ErrNotDirected, like every other SCC surface.
func (sn *Snapshot) SCCPolicy() (string, error) {
	if !sn.eng.directed {
		return "", ErrNotDirected
	}
	return sn.eng.opt.sccPolicy(sn.graphs().dir).String(), nil
}

// BiCCPolicy is CCPolicy for the BiCC matrix. BiCC runs on the undirected
// view of either engine kind, so it never errors.
func (sn *Snapshot) BiCCPolicy() string {
	return sn.eng.opt.biccPolicy(sn.graphs().und).String()
}

// ccRawGet returns the compute-space CC decomposition for this epoch,
// computing it at most once. Point queries against the same epoch all
// coalesce here — this is the batching that turns a query storm into one
// kernel pass. After the first batch it is always seeded at capture.
func (sn *Snapshot) ccRawGet(ctx context.Context) (*cc.Result, error) {
	return getCell(sn, ctx, &sn.ccRaw, func(sn *Snapshot, ctx context.Context) (*cc.Result, error) {
		return kernel(sn, ctx, func(gs graphSet) *cc.Result {
			return cc.Solve(gs.und, sn.eng.opt.ccPolicy(gs.und), sn.eng.opt.ccOptions(ctx))
		})
	})
}

// Connected reports whether u and v lie in the same connected component as
// of this epoch. O(1) once the epoch's labels exist. Both endpoints must be
// existing vertices.
func (sn *Snapshot) Connected(ctx context.Context, u, v V) (bool, error) {
	raw, err := sn.ccRawGet(ctx)
	if err != nil {
		return false, err
	}
	return raw.Label[sn.eng.mapV(u)] == raw.Label[sn.eng.mapV(v)], nil
}

// CountCC returns the number of connected components as of this epoch.
func (sn *Snapshot) CountCC(ctx context.Context) (int, error) {
	raw, err := sn.ccRawGet(ctx)
	if err != nil {
		return 0, err
	}
	return raw.NumComponents, nil
}

// CC returns the complete connected-components decomposition (original
// vertex ids) for this epoch. For directed engines this is the WCC
// decomposition.
func (sn *Snapshot) CC(ctx context.Context) (*CCResult, error) {
	return getCell(sn, ctx, &sn.ccRes, func(sn *Snapshot, ctx context.Context) (*cc.Result, error) {
		raw, err := sn.ccRawGet(ctx)
		if err != nil {
			return nil, err
		}
		return remapCC(raw, sn.eng.perm, sn.eng.opt.Threads), nil
	})
}

// CCSizeHistogram maps component size to the number of components of that
// size (the paper's Fig. 8 shape), as of this epoch. Every caller gets a
// private copy of the cached histogram.
func (sn *Snapshot) CCSizeHistogram(ctx context.Context) (map[int]int, error) {
	h, err := getCell(sn, ctx, &sn.hist, func(sn *Snapshot, ctx context.Context) (map[int]int, error) {
		res, err := sn.CC(ctx)
		if err != nil {
			return nil, err
		}
		hist := make(map[int]int, len(res.Sizes))
		for _, sz := range res.Sizes {
			hist[sz]++
		}
		return hist, nil
	})
	if err != nil {
		return nil, err
	}
	return maps.Clone(h), nil
}

// IsConnected answers the small-XCC query "is this graph connected?" (§3).
// With labels cached it is O(1). Otherwise, with partial computation
// enabled, it first looks for a trimmable pattern — any orphan or isolated
// pair in a larger graph disproves connectivity without a traversal — and
// only then runs one traversal from a pseudo-random pivot.
func (sn *Snapshot) IsConnected(ctx context.Context) (bool, error) {
	n := sn.NumVertices()
	if n <= 1 {
		return true, nil
	}
	if raw, ok := sn.ccRaw.Peek(); ok {
		return raw.NumComponents == 1, nil
	}
	if sn.eng.opt.DisablePartial {
		cnt, err := sn.CountCC(ctx)
		return cnt == 1, err
	}
	g, err := sn.undirected(ctx)
	if err != nil {
		return false, err
	}
	if hasTrimmablePattern(g) {
		return false, nil
	}
	return getCell(sn, ctx, &sn.isConn, func(sn *Snapshot, ctx context.Context) (bool, error) {
		return kernel(sn, ctx, func(gs graphSet) bool {
			g, n := gs.und, sn.eng.n
			rng := gen.NewRNG(uint64(n)*0x9e37 + uint64(g.NumEdges()))
			rs := sn.getReach()
			defer sn.eng.reach.Put(rs)
			return rs.Reach(bfs.UndirectedAdj(g), graph.V(rng.Intn(n)), nil, sn.bfsOptions(ctx), sn.mode()).Count() == n
		})
	})
}

// hasTrimmablePattern reports an isolated vertex, or an isolated pair in a
// graph of more than two vertices: either is a separate component (Fig. 7).
func hasTrimmablePattern(g *Undirected) bool {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if g.Degree(graph.V(v)) == 0 {
			return true
		}
	}
	for v := 0; v < n && n > 2; v++ {
		if g.Degree(graph.V(v)) == 1 && g.Degree(g.Neighbors(graph.V(v))[0]) == 1 {
			return true
		}
	}
	return false
}

func (sn *Snapshot) getReach() *bfs.ReachScratch {
	return sn.eng.reach.Get(sn.eng.n, sn.eng.opt.Threads)
}

func (sn *Snapshot) bfsOptions(ctx context.Context) bfs.Options {
	return bfs.Options{Threads: sn.eng.opt.Threads, Ctx: ctx}
}

func (sn *Snapshot) mode() bfs.Mode { return sn.eng.opt.Traversal.mode() }

// LargestResult describes the largest connected component.
type LargestResult struct {
	// Size is the component's vertex count.
	Size int
	// Pivot is a member vertex (the master pivot that found it).
	Pivot V
	// Partial reports whether the answer came from partial computation
	// (one traversal + size comparison) rather than a full decomposition.
	Partial bool

	contains func(V) bool
}

// Contains reports whether v belongs to the largest component.
func (l *LargestResult) Contains(v V) bool { return l.contains(v) }

// largestOf builds the answer from a complete decomposition whose labels
// live in the id space mapIn translates caller ids into. Out-of-range
// vertices are members of no component.
func largestOf(label []uint32, size int, lbl uint32, pivot V, mapIn func(V) V) *LargestResult {
	return &LargestResult{Size: size, Pivot: pivot, contains: func(v V) bool {
		return int(v) < len(label) && label[mapIn(v)] == lbl
	}}
}

// LargestCC answers the largest-XCC query (§3) with partial computation: it
// traverses from the max-degree master pivot and, if the found component is
// at least as big as everything else combined, stops there — no other
// component can beat it. Only when the pivot lands in a minority component
// does it fall back to the complete decomposition. With labels cached
// (always, after the first batch) the census answers instead.
func (sn *Snapshot) LargestCC(ctx context.Context) (*LargestResult, error) {
	return getCell(sn, ctx, &sn.largest, func(sn *Snapshot, ctx context.Context) (*LargestResult, error) {
		if _, ok := sn.ccRaw.Peek(); !ok && !sn.eng.opt.DisablePartial && sn.eng.n > 0 {
			partial, err := kernel(sn, ctx, func(gs graphSet) *LargestResult { return sn.largestCCPartial(ctx, gs.und) })
			if err != nil || partial != nil {
				return partial, err
			}
		}
		raw, err := sn.ccRawGet(ctx)
		if err != nil {
			return nil, err
		}
		return largestOf(raw.Label, raw.LargestSize, raw.LargestLabel, sn.eng.unmapV(V(raw.LargestLabel)), sn.eng.mapV), nil
	})
}

// largestCCPartial is LargestCC's one traversal; nil means the pivot's
// component is a minority. The bitmap stays in compute ids, so membership
// checks translate in.
func (sn *Snapshot) largestCCPartial(ctx context.Context, g *Undirected) *LargestResult {
	n := sn.eng.n
	master := g.MaxDegreeVertex()
	rs := sn.getReach()
	defer sn.eng.reach.Put(rs)
	visited := rs.Reach(bfs.UndirectedAdj(g), master, nil, sn.bfsOptions(ctx), sn.mode())
	size := visited.Count()
	if 2*size < n {
		return nil
	}
	// The result keeps visited.Get, so the bitmap must survive the
	// scratch's next checkout.
	rs.DetachVisited()
	return &LargestResult{Size: size, Pivot: sn.eng.unmapV(master), Partial: true,
		contains: func(v V) bool { return int(v) < n && visited.Get(sn.eng.mapV(v)) }}
}

// InLargestCC reports whether v is in the largest connected component as of
// this epoch. An out-of-range v is in no component.
func (sn *Snapshot) InLargestCC(ctx context.Context, v V) (bool, error) {
	res, err := sn.LargestCC(ctx)
	if err != nil {
		return false, err
	}
	return res.Contains(v), nil
}

// SCC returns the complete strongly-connected-components decomposition for
// this epoch. Undirected engines return ErrNotDirected.
func (sn *Snapshot) SCC(ctx context.Context) (*SCCResult, error) {
	if !sn.eng.directed {
		return nil, ErrNotDirected
	}
	return getCell(sn, ctx, &sn.sccRes, func(sn *Snapshot, ctx context.Context) (*scc.Result, error) {
		return kernel(sn, ctx, func(gs graphSet) *scc.Result {
			raw := scc.Solve(gs.dir, sn.eng.opt.sccPolicy(gs.dir), sn.eng.opt.sccOptions(ctx))
			if ctxErr(ctx) != nil {
				return nil
			}
			return remapSCC(raw, sn.eng.perm, sn.eng.opt.Threads)
		})
	})
}

// IsStronglyConnected answers "is this graph strongly connected?" with
// partial computation: any vertex without an in- or out-arc disproves it
// before any traversal; otherwise one forward and one backward traversal
// from a pivot decide it.
func (sn *Snapshot) IsStronglyConnected(ctx context.Context) (bool, error) {
	if !sn.eng.directed {
		return false, ErrNotDirected
	}
	n := sn.NumVertices()
	if n <= 1 {
		return true, nil
	}
	if _, warm := sn.sccRes.Peek(); warm || sn.eng.opt.DisablePartial {
		res, err := sn.SCC(ctx)
		if err != nil {
			return false, err
		}
		return res.NumComponents == 1, nil
	}
	gs, err := sn.materialized(ctx)
	if err != nil {
		return false, err
	}
	for v := 0; v < n; v++ {
		if gs.dir.InDegree(graph.V(v)) == 0 || gs.dir.OutDegree(graph.V(v)) == 0 {
			return false, nil
		}
	}
	return getCell(sn, ctx, &sn.isStrong, func(sn *Snapshot, ctx context.Context) (bool, error) {
		return kernel(sn, ctx, func(gs graphSet) bool {
			n := sn.eng.n
			rs := sn.getReach()
			defer sn.eng.reach.Put(rs)
			if rs.Reach(bfs.ForwardAdj(gs.dir), 0, nil, sn.bfsOptions(ctx), sn.mode()).Count() != n {
				return false
			}
			// The forward count is consumed, so the same scratch (and
			// bitmap) can carry the backward sweep.
			return rs.Reach(bfs.BackwardAdj(gs.dir), 0, nil, sn.bfsOptions(ctx), sn.mode()).Count() == n
		})
	})
}

// LargestSCC answers "how big is the largest SCC / is v in it" with partial
// computation: one FW-BW sweep from the max-out-degree pivot; if the found
// SCC holds at least half the vertices it must be the largest. Otherwise
// (or with the SCC decomposition already cached) the decomposition answers.
func (sn *Snapshot) LargestSCC(ctx context.Context) (*LargestResult, error) {
	if !sn.eng.directed {
		return nil, ErrNotDirected
	}
	return getCell(sn, ctx, &sn.largestSCC, func(sn *Snapshot, ctx context.Context) (*LargestResult, error) {
		if _, ok := sn.sccRes.Peek(); !ok && !sn.eng.opt.DisablePartial && sn.eng.n > 0 {
			partial, err := kernel(sn, ctx, func(gs graphSet) *LargestResult { return sn.largestSCCPartial(ctx, gs.dir) })
			if err != nil || partial != nil {
				return partial, err
			}
		}
		res, err := sn.SCC(ctx)
		if err != nil {
			return nil, err
		}
		return largestOf(res.Label, res.LargestSize, res.LargestLabel, V(res.LargestLabel), func(v V) V { return v }), nil
	})
}

// largestSCCPartial is LargestSCC's FW-BW sweep; nil means the pivot's SCC
// is a minority. Both halves run through one scratch: the forward bitmap is
// detached before the backward sweep resets the scratch state.
func (sn *Snapshot) largestSCCPartial(ctx context.Context, g *Directed) *LargestResult {
	n := sn.eng.n
	master := g.MaxOutDegreeVertex()
	rs := sn.getReach()
	defer sn.eng.reach.Put(rs)
	fw := rs.Reach(bfs.ForwardAdj(g), master, nil, sn.bfsOptions(ctx), sn.mode())
	rs.DetachVisited()
	bw := rs.Reach(bfs.BackwardAdj(g), master, nil, sn.bfsOptions(ctx), sn.mode())
	size := 0
	for v := 0; v < n; v++ {
		if fw.Get(V(v)) && bw.Get(V(v)) {
			size++
		}
	}
	if 2*size < n {
		return nil
	}
	// Both bitmaps escape into the result's contains closure.
	rs.DetachVisited()
	return &LargestResult{Size: size, Pivot: sn.eng.unmapV(master), Partial: true,
		contains: func(v V) bool {
			if int(v) >= n {
				return false
			}
			v = sn.eng.mapV(v)
			return fw.Get(v) && bw.Get(v)
		}}
}

// BiCC returns the complete biconnected-components decomposition for this
// epoch.
func (sn *Snapshot) BiCC(ctx context.Context) (*BiCCResult, error) {
	return getCell(sn, ctx, &sn.biccRes, func(sn *Snapshot, ctx context.Context) (*bicc.Result, error) {
		return sn.solveBiCC(ctx, false)
	})
}

// solveBiCC runs the BiCC decomposition, or the AP-only partial query (no
// block bookkeeping; a vertex stops being checked once proven an AP). Every
// policy cell produces the same canonical AP set and blocks.
func (sn *Snapshot) solveBiCC(ctx context.Context, apOnly bool) (*bicc.Result, error) {
	return kernel(sn, ctx, func(gs graphSet) *bicc.Result {
		raw := bicc.Solve(gs.und, sn.eng.opt.biccPolicy(gs.und), sn.eng.opt.biccOptions(ctx, apOnly))
		if ctxErr(ctx) != nil {
			return nil
		}
		return remapBiCC(raw, sn.eng.perm, gs.eidMap, sn.eng.opt.Threads)
	})
}

// BgCC returns the complete bridgeless-connected-components decomposition
// for this epoch.
func (sn *Snapshot) BgCC(ctx context.Context) (*BgCCResult, error) {
	return getCell(sn, ctx, &sn.bgccRes, func(sn *Snapshot, ctx context.Context) (*bgcc.Result, error) {
		return sn.solveBgCC(ctx, false)
	})
}

// solveBgCC runs the BgCC decomposition, or the bridge-only partial query.
func (sn *Snapshot) solveBgCC(ctx context.Context, bridgeOnly bool) (*bgcc.Result, error) {
	return kernel(sn, ctx, func(gs graphSet) *bgcc.Result {
		raw := bgcc.Run(gs.und, sn.eng.opt.bgccOptions(ctx, bridgeOnly))
		if ctxErr(ctx) != nil {
			return nil
		}
		return remapBgCC(raw, sn.eng.perm, gs.eidMap, sn.eng.opt.Threads)
	})
}

// apFlags returns the articulation-point flags (original ids) from the
// AP-only kernel, or from the complete BiCC under DisablePartial.
func (sn *Snapshot) apFlags(ctx context.Context) ([]bool, error) {
	var res *bicc.Result
	var err error
	if sn.eng.opt.DisablePartial {
		res, err = sn.BiCC(ctx)
	} else {
		res, err = getCell(sn, ctx, &sn.apOnly, func(sn *Snapshot, ctx context.Context) (*bicc.Result, error) {
			return sn.solveBiCC(ctx, true)
		})
	}
	if err != nil {
		return nil, err
	}
	return res.IsAP, nil
}

// ArticulationPoints answers the AP-only query (§3) for this epoch:
// original vertex ids, ascending.
func (sn *Snapshot) ArticulationPoints(ctx context.Context) ([]V, error) {
	isAP, err := sn.apFlags(ctx)
	if err != nil {
		return nil, err
	}
	var out []V
	for v, ap := range isAP {
		if ap {
			out = append(out, V(v))
		}
	}
	return out, nil
}

// IsArticulationPoint reports whether v is an articulation point, in O(1)
// once the AP flags are cached. An out-of-range v is not.
func (sn *Snapshot) IsArticulationPoint(ctx context.Context, v V) (bool, error) {
	isAP, err := sn.apFlags(ctx)
	if err != nil {
		return false, err
	}
	return int(v) < len(isAP) && isAP[v], nil
}

// Bridges answers the bridge-only query (§3) for this epoch, returning each
// bridge as an ordered endpoint pair in original vertex ids.
func (sn *Snapshot) Bridges(ctx context.Context) ([][2]V, error) {
	var res *bgcc.Result
	var err error
	if sn.eng.opt.DisablePartial {
		res, err = sn.BgCC(ctx)
	} else {
		res, err = getCell(sn, ctx, &sn.brOnly, func(sn *Snapshot, ctx context.Context) (*bgcc.Result, error) {
			return sn.solveBgCC(ctx, true)
		})
	}
	if err != nil {
		return nil, err
	}
	// The flags are indexed by original edge id (remapped through eidMap).
	eps := sn.Undirected().EdgeEndpoints()
	var out [][2]V
	for id, b := range res.IsBridge {
		if b {
			out = append(out, eps[id])
		}
	}
	return out, nil
}

// Condensation contracts this epoch's directed graph by its SCCs (paper
// §2.1, application 1), supporting topological order and O(1) reachability
// queries after a lazily built index.
func (sn *Snapshot) Condensation(ctx context.Context) (*Condensation, error) {
	if !sn.eng.directed {
		return nil, ErrNotDirected
	}
	return getCell(sn, ctx, &sn.cond, func(sn *Snapshot, ctx context.Context) (*Condensation, error) {
		return kernel(sn, ctx, func(gs graphSet) *Condensation {
			// The DAG's vertex-keyed queries (component-of, reachability)
			// must answer in caller ids, so condensation always runs on the
			// original-id graph rather than the reordered compute graph.
			g := gs.dir
			if sn.eng.perm != nil {
				g = gs.origDir
			}
			return condense.Build(g, sn.eng.opt.sccOptions(nil))
		})
	})
}

// BetweennessCentrality computes exact betweenness centrality over the
// undirected view (paper §2.1, application 2), using the biconnected-
// decomposition strategy — per-block weighted Brandes guided by the
// articulation points — unless partial computation or trimming is disabled,
// in which case plain Brandes runs. Scores use the ordered-pair convention.
func (sn *Snapshot) BetweennessCentrality(ctx context.Context) ([]float64, error) {
	return getCell(sn, ctx, &sn.btw, func(sn *Snapshot, ctx context.Context) ([]float64, error) {
		return kernel(sn, ctx, func(gs graphSet) []float64 {
			opt := sn.eng.opt
			var raw []float64
			if opt.DisablePartial || opt.DisableTrim {
				raw = betweenness.Brandes(gs.und, opt.Threads)
			} else {
				raw = betweenness.Decomposed(gs.und, opt.Threads)
			}
			return remapFloats(raw, sn.eng.perm, opt.Threads)
		})
	})
}

// Coreness returns the k-core decomposition of the undirected view: for
// each vertex, the largest k such that it survives in the k-core.
func (sn *Snapshot) Coreness(ctx context.Context) ([]int32, error) {
	return getCell(sn, ctx, &sn.core, func(sn *Snapshot, ctx context.Context) ([]int32, error) {
		return kernel(sn, ctx, func(gs graphSet) []int32 {
			return remapInt32s(kcore.Decompose(gs.und).Coreness, sn.eng.perm, sn.eng.opt.Threads)
		})
	})
}
