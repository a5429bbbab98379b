package aquila

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"aquila/internal/bfs"
	"aquila/internal/cc"
	"aquila/internal/dyn"
	"aquila/internal/graph"
	"aquila/internal/inc"
)

// Engine answers connectivity queries over one graph. It owns the graph's
// writer state and publishes immutable Snapshots; every query is computed
// on a snapshot (see Snapshot), where the query transformation (§3) lives:
// partial-computation queries use dedicated fast paths, and complete
// decompositions are computed at most once per snapshot and cached, so
// repeated queries are free.
//
// An Engine also accepts batches of edge insertions via Apply, and mixed
// insert/delete batches via ApplyUpdates. Insertions are absorbed by an
// incremental union-find layer (internal/inc), so Connected, CountCC and
// IsConnected never pay for a recomputation; queries that walk adjacency
// fold the pending edges into fresh CSR graphs first, once per snapshot.
// The first delete operation promotes the engine to a fully dynamic spanning
// forest (internal/dyn) that answers connectivity across deletions by
// replacement-edge search. When the accumulated delta crosses
// Options.RebuildThreshold, the engine falls back to the static CC pipeline
// and reseeds from the fresh decomposition.
//
// # Concurrency contract
//
// An Engine is safe for concurrent use by multiple goroutines, including
// readers querying while another goroutine applies batches: answers are
// always consistent snapshots. Until the first delete op, connectivity is
// additionally monotone (once two vertices are connected, no later query
// disconnects them); dynamic mode trades that for deletions while keeping
// per-query consistency. The contract, precisely:
//
//   - e.mu guards the writer state only: the graph pointers, the pending
//     delta, the incremental or dynamic structure and the epoch counter. No
//     query result is stored under it.
//   - Every other query runs on the current Snapshot, read through one
//     atomic pointer. A snapshot never changes once published; its results
//     fill lazily in singleflight cells, so a query storm against a cold
//     result shares one compute.
//   - A batch retires the current snapshot. The next one is captured lazily
//     by the first query that needs it (or eagerly, when a Server is
//     attached) and inherits every cached result the batches in between did
//     not invalidate.
//   - Connected, CountCC and IsConnected read the live union-find or forest
//     under e.mu once one exists; Connected reads the union-find lock-free.
//   - Traversal scratches come from a shared race-clean ScratchPool with its
//     own mutex, never held together with e.mu.
type Engine struct {
	opt      Options
	directed bool // fixed at construction; gs.dir is non-nil iff directed
	n        int  // vertex count, fixed at construction

	// perm is the Options.Reorder relabeling (nil without one). Every kernel
	// runs on the relabeled compute graphs; results are mapped back to
	// original ids before they are cached (see remap.go).
	perm *graph.Permutation

	// reach pools traversal scratches for the partial fast paths, shared by
	// every snapshot of the engine.
	reach bfs.ScratchPool

	// cur is the published snapshot; nil after a batch until the next
	// capture. live is set once the union-find or the forest exists.
	cur  atomic.Pointer[Snapshot]
	live atomic.Bool

	mu  sync.Mutex
	srv *Server // attached by NewServer: its snapshots are gated and published eagerly

	// Snapshot bookkeeping: epoch numbers batches; prev is the last captured
	// snapshot and stale the cell groups the batches since then invalidated.
	// ccSeed is a threshold rebuild's decomposition, handed to the next
	// capture so it need not flatten the union-find again.
	epoch  uint64
	prev   *Snapshot
	stale  cellSet
	ccSeed *cc.Result

	// gs holds the compute graphs every kernel runs on (and, when reordered,
	// the caller-id graphs and the edge-id translation). Published graphs
	// are never mutated: materialization builds fresh CSRs.
	gs graphSet

	// Incremental state (nil until the first Apply). deltaUnd/deltaDir hold
	// inserted edges already unioned into inc but not yet materialized into
	// the CSR graphs; undSet/dirSet index them for duplicate detection.
	inc          *inc.State
	deltaUnd     []graph.Edge
	deltaDir     []graph.Edge
	undSet       map[[2]V]struct{}
	dirSet       map[[2]V]struct{}
	baseEdges    int64 // undirected edge count at the last (re)build
	sinceRebuild int64 // undirected edges inserted/deleted since then

	// Fully dynamic state (nil until the first delete op; see ApplyUpdates).
	// Once dyn is non-nil the incremental layer is retired: the forest is
	// the authoritative undirected edge set (self-loops are dropped, as
	// everywhere), and on directed engines dirSet holds the complete arc set
	// rather than a pending delta. dynDirty marks the CSR graphs stale
	// relative to the forest; materializeLocked rebuilds them lazily.
	dyn      *dyn.Forest
	dynDirty bool
}

// NewEngine returns an Engine over an undirected graph. SCC queries on an
// undirected engine degenerate to CC. With Options.Reorder set, the engine
// builds a relabeled copy once here and computes on it from then on.
func NewEngine(g *Undirected, opt Options) *Engine {
	e := &Engine{opt: opt, n: g.NumVertices(), gs: graphSet{und: g}}
	if opt.Reorder != ReorderNone {
		switch opt.Reorder {
		case ReorderDegree:
			e.perm = graph.DegreeOrder(g, opt.Threads)
		default:
			e.perm = graph.BFSOrder(g, opt.Threads)
		}
		e.gs.origUnd = g
		e.gs.und = e.perm.ApplyUndirected(g, opt.Threads)
		e.gs.eidMap = e.perm.EdgeIDMap(g, e.gs.und, opt.Threads)
	}
	return e
}

// NewDirectedEngine returns an Engine over a directed graph. CC/BiCC/BgCC
// queries run over the undirected view (computed once, per paper §6.1); SCC
// and WCC use the directed graph. With Options.Reorder set, both views are
// relabeled (ranked by total degree across the two CSRs).
func NewDirectedEngine(g *Directed, opt Options) *Engine {
	e := &Engine{opt: opt, directed: true, n: g.NumVertices(), gs: graphSet{dir: g, und: graph.Undirect(g)}}
	if opt.Reorder != ReorderNone {
		switch opt.Reorder {
		case ReorderDegree:
			e.perm = graph.DegreeOrderDirected(g, opt.Threads)
		default:
			e.perm = graph.BFSOrderDirected(g, opt.Threads)
		}
		e.gs.origDir, e.gs.origUnd = g, e.gs.und
		e.gs.dir = e.perm.ApplyDirected(g, opt.Threads)
		e.gs.und = e.perm.ApplyUndirected(e.gs.origUnd, opt.Threads)
		e.gs.eidMap = e.perm.EdgeIDMap(e.gs.origUnd, e.gs.und, opt.Threads)
	}
	return e
}

// mapV translates an original vertex id into the compute id space.
func (e *Engine) mapV(v V) V {
	if e.perm == nil {
		return v
	}
	return e.perm.Perm[v]
}

// unmapV translates a compute-space vertex id back to the original space.
func (e *Engine) unmapV(v V) V {
	if e.perm == nil {
		return v
	}
	return e.perm.Inv[v]
}

// direct marks a query issued through the Engine's own methods. It never
// cancels, and on a served engine it bypasses the admission gate and the
// default timeout: an in-process caller that asked for the answer gets it.
var direct = context.WithValue(context.Background(), callKey{}, callDirect)

// Acquire returns the engine's current snapshot, capturing it first if a
// batch has been applied since the last capture. The snapshot stays valid
// for as long as the caller holds it, whatever is applied meanwhile.
func (e *Engine) Acquire() *Snapshot {
	if sn := e.cur.Load(); sn != nil {
		return sn
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.currentLocked()
}

// currentLocked is Acquire for a caller holding e.mu.
func (e *Engine) currentLocked() *Snapshot {
	sn := e.cur.Load()
	if sn == nil {
		sn = e.captureLocked()
		e.cur.Store(sn)
	}
	return sn
}

// captureLocked builds a snapshot of the writer state. Once incremental or
// dynamic state exists the connectivity labels come from an O(|V|)
// union-find flatten or forest census (no traversal), unless the batches
// since the last capture left them valid and they are inherited.
func (e *Engine) captureLocked() *Snapshot {
	if e.dyn != nil {
		// Deletions cannot ride along as an append-only delta, so dynamic
		// snapshots publish fully materialized graphs.
		e.materializeLocked()
	}
	sn := &Snapshot{eng: e, srv: e.srv, epoch: e.epoch, gs: e.gs,
		deltaUnd: slices.Clone(e.deltaUnd), deltaDir: slices.Clone(e.deltaDir)}
	if e.srv != nil {
		sn.setStats(&e.srv.sfStats)
	}
	if e.prev != nil {
		sn.inherit(e.prev, e.stale)
	}
	if _, ok := sn.ccRaw.Peek(); !ok {
		switch {
		case e.ccSeed != nil:
			sn.ccRaw.Seed(e.ccSeed)
		case e.dyn != nil:
			sn.ccRaw.Seed(ccResultFromLabels(e.dyn.Labels()))
		case e.inc != nil:
			sn.ccRaw.Seed(e.inc.CCResult(e.opt.Threads))
		}
	}
	e.prev, e.stale, e.ccSeed = sn, 0, nil
	return sn
}

// staleCells names the cell groups a batch invalidates, given whether it
// changed the undirected edge set, the arc set, and the components.
func staleCells(und, dir, components bool) cellSet {
	var s cellSet
	if und {
		s |= undCells
	}
	if dir {
		s |= dirCells
	}
	if components {
		s |= ccCells
	}
	return s
}

// invalidateLocked records that the current batch changed what the cells in
// s were computed from.
func (e *Engine) invalidateLocked(s cellSet) {
	e.stale |= s
	if s&ccCells != 0 {
		e.ccSeed = nil
	}
}

// publishLocked ends a batch: it advances the epoch and retires the current
// snapshot. A served engine captures the next one right away, so readers
// never wait for it; a bare engine leaves that to the next query.
func (e *Engine) publishLocked() {
	e.epoch++
	if e.srv != nil {
		e.cur.Store(e.captureLocked())
	} else {
		e.cur.Store(nil)
	}
}

// attach binds a serving layer: from now on snapshots carry its admission
// gate and telemetry, and every batch publishes eagerly. The snapshot
// current at attach time is re-captured as epoch 0.
func (e *Engine) attach(s *Server) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.srv, e.epoch = s, 0
	e.cur.Store(e.captureLocked())
}

// Undirected returns the current (possibly derived) undirected view of the
// engine's graph in original vertex ids, pending batches folded in.
func (e *Engine) Undirected() *Undirected { return e.Acquire().Undirected() }

// Directed returns the current directed graph in original vertex ids
// (pending batches folded in), or nil for undirected engines.
func (e *Engine) Directed() *Directed { return e.Acquire().Directed() }

// ApplyResult summarizes one Apply batch.
type ApplyResult struct {
	// NewEdges is the number of distinct undirected edges the batch added
	// (self-loops and duplicates of existing or pending edges are dropped).
	NewEdges int
	// NewArcs is the number of distinct directed arcs added (always 0 for
	// undirected engines).
	NewArcs int
	// Merged is the number of connected-component merges the batch caused.
	Merged int
	// Components is the connected-component count after the batch.
	Components int
	// Rebuilt reports whether this batch pushed the accumulated delta over
	// the rebuild threshold, triggering a full static recomputation.
	Rebuilt bool
	// DeletedEdges is the number of undirected edges the batch removed
	// (deletes of absent edges are dropped; always 0 on insert-only paths).
	DeletedEdges int
	// DeletedArcs is the number of directed arcs removed (always 0 for
	// undirected engines).
	DeletedArcs int
	// Split is the number of component splits the deletions caused — cuts
	// for which the dynamic forest found no replacement edge.
	Split int
	// Dynamic reports whether the batch ran against the fully dynamic
	// spanning forest (true from the first delete op onward).
	Dynamic bool
}

// Apply inserts a batch of edges into the engine's graph. On a directed
// engine each edge is a directed arc U→V (its endpoints also join in the
// undirected view, mirroring Undirect); on an undirected engine it is an
// undirected edge {U,V}. Self-loops and duplicates are dropped. Endpoints
// must be existing vertices — Apply never grows the vertex set.
//
// Apply patches the incremental connectivity state in parallel and
// publishes the next epoch, whose snapshot keeps exactly the cached results
// the batch cannot affect:
//
//   - a batch that adds no new edge or arc keeps every result;
//   - new undirected edges that merge components drop the CC-derived
//     results (CC labels are then re-derived from the union-find, not
//     recomputed) — edges landing inside one component keep them;
//   - any new undirected edge drops the 2-connectivity and
//     degree-structure results (BiCC, BgCC, APs, bridges, betweenness,
//     coreness), which are recomputed lazily on next query;
//   - new directed arcs drop the SCC and condensation results, also
//     recomputed lazily.
//
// When the edges inserted since the last full decomposition exceed
// Options.RebuildThreshold times the graph size at that point, Apply
// materializes the graph and reruns the static CC pipeline, reseeding the
// incremental state (a freshly flattened union-find).
func (e *Engine) Apply(batch []Edge) (*ApplyResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ed := range batch {
		if int(ed.U) >= e.n || int(ed.V) >= e.n {
			return nil, fmt.Errorf("aquila: Apply: edge (%d,%d) out of range [0,%d)", ed.U, ed.V, e.n)
		}
	}
	res := e.applyLocked(batch)
	e.publishLocked()
	return res, nil
}

// applyLocked is Apply's body, shared with the insert-only fast path of
// ApplyUpdates. Once the engine has promoted to the dynamic forest, inserts
// route there too — the union-find no longer exists.
func (e *Engine) applyLocked(batch []Edge) *ApplyResult {
	if e.dyn != nil {
		ups := make([]Update, len(batch))
		for i, ed := range batch {
			ups[i] = Update{Op: OpInsert, U: ed.U, V: ed.V}
		}
		return e.applyUpdatesDynLocked(ups)
	}
	if e.inc == nil {
		// First update: the static pipeline seeds the incremental state from
		// the current snapshot's raw compute-space labels (min-id canonical
		// there), computing them if no query has yet.
		res, _ := e.currentLocked().ccRawGet(direct)
		e.inc = inc.FromLabels(res.Label, res.NumComponents)
		e.undSet = make(map[[2]V]struct{})
		e.dirSet = make(map[[2]V]struct{})
		e.baseEdges = e.gs.und.NumEdges()
		e.sinceRebuild = 0
		e.live.Store(true)
	}

	// Split the batch into genuinely new undirected edges and directed arcs,
	// checking both the materialized graphs and the pending delta. Under a
	// reorder the delta (like everything the kernels see) lives in compute
	// ids, so endpoints are translated up front.
	var newUnd, newDir []graph.Edge
	for _, ed := range batch {
		if ed.U == ed.V {
			continue
		}
		eu, ev := e.mapV(ed.U), e.mapV(ed.V)
		if e.directed {
			key := [2]V{eu, ev}
			if _, dup := e.dirSet[key]; !dup && !e.gs.dir.HasArc(eu, ev) {
				newDir = append(newDir, graph.Edge{U: eu, V: ev})
				e.dirSet[key] = struct{}{}
			}
		}
		u, v := eu, ev
		if u > v {
			u, v = v, u
		}
		key := [2]V{u, v}
		if _, dup := e.undSet[key]; !dup && !e.gs.und.HasEdge(u, v) {
			newUnd = append(newUnd, graph.Edge{U: u, V: v})
			e.undSet[key] = struct{}{}
		}
	}

	res := &ApplyResult{NewEdges: len(newUnd), NewArcs: len(newDir)}
	if len(newUnd) == 0 && len(newDir) == 0 {
		res.Components = e.inc.ComponentCount()
		return res // fully duplicate batch: every cached result stays valid
	}

	res.Merged = e.inc.Apply(newUnd, e.opt.Threads)
	e.deltaUnd = append(e.deltaUnd, newUnd...)
	e.deltaDir = append(e.deltaDir, newDir...)
	e.sinceRebuild += int64(len(newUnd))

	e.invalidateLocked(staleCells(len(newUnd) > 0, len(newDir) > 0, res.Merged > 0))

	if th := e.opt.rebuildThreshold(); th > 0 && float64(e.sinceRebuild) >= th*float64(e.baseEdges+1) {
		e.rebuildLocked()
		res.Rebuilt = true
	}
	res.Components = e.inc.ComponentCount()
	return res
}

// graphSet bundles the graph pointers one materialization step transforms:
// the compute CSRs, the caller-id CSRs (reordered engines only) and the
// edge-id translation. Both the writer (under e.mu) and snapshots (outside
// any lock) materialize through the same function.
type graphSet struct {
	dir     *Directed
	und     *Undirected
	origDir *Directed
	origUnd *Undirected
	eidMap  []int64
}

// materializeGraphs folds delta edges into fresh CSR graphs and returns the
// updated set. It reads the input graphs but never mutates them, so a caller
// holding only immutable snapshots can materialize without any lock.
func materializeGraphs(directed bool, perm *graph.Permutation, gs graphSet, deltaUnd, deltaDir []graph.Edge, th int) graphSet {
	if len(deltaUnd) == 0 && len(deltaDir) == 0 {
		return gs
	}
	if directed {
		edges := make([]graph.Edge, 0, int(gs.dir.NumArcs())+len(deltaDir))
		for u := 0; u < gs.dir.NumVertices(); u++ {
			for _, v := range gs.dir.Out(V(u)) {
				edges = append(edges, graph.Edge{U: V(u), V: v})
			}
		}
		edges = append(edges, deltaDir...)
		gs.dir = graph.BuildDirectedThreads(gs.dir.NumVertices(), edges, th)
		gs.und = graph.UndirectThreads(gs.dir, th)
	} else {
		eps := gs.und.EdgeEndpoints()
		edges := make([]graph.Edge, 0, len(eps)+len(deltaUnd))
		for _, ep := range eps {
			edges = append(edges, graph.Edge{U: ep[0], V: ep[1]})
		}
		edges = append(edges, deltaUnd...)
		gs.und = graph.BuildUndirectedThreads(gs.und.NumVertices(), edges, th)
	}
	return relabelBack(directed, perm, gs, th)
}

// relabelBack re-derives the caller-id graphs and the edge-id translation
// of a reordered engine from freshly built compute graphs (dense edge ids
// shift when edges are inserted or deleted). It is the identity without a
// reorder.
func relabelBack(directed bool, perm *graph.Permutation, gs graphSet, th int) graphSet {
	if perm == nil {
		return gs
	}
	inv := &graph.Permutation{Perm: perm.Inv, Inv: perm.Perm}
	if directed {
		gs.origDir = inv.ApplyDirected(gs.dir, th)
		gs.origUnd = graph.UndirectThreads(gs.origDir, th)
	} else {
		gs.origUnd = inv.ApplyUndirected(gs.und, th)
	}
	gs.eidMap = perm.EdgeIDMap(gs.origUnd, gs.und, th)
	return gs
}

// materializeLocked folds the pending delta edges into the writer's CSR
// graphs. Published graph pointers are never mutated in place, so snapshots
// held by concurrent readers stay valid.
func (e *Engine) materializeLocked() {
	if e.dyn != nil {
		e.materializeDynLocked()
		return
	}
	if len(e.deltaUnd) == 0 && len(e.deltaDir) == 0 {
		return
	}
	e.gs = materializeGraphs(e.directed, e.perm, e.gs, e.deltaUnd, e.deltaDir, e.opt.Threads)
	e.deltaUnd, e.deltaDir = nil, nil
	e.undSet, e.dirSet = make(map[[2]V]struct{}), make(map[[2]V]struct{})
}

// rebuildLocked is the fall-back-to-static path: materialize the delta, run
// the full cc pipeline, and reseed the incremental state from the fresh
// decomposition. In dynamic mode the forest stays authoritative for future
// updates; the rebuild re-canonicalizes the next snapshot's decomposition
// through the static pipeline (re-resolving the CC policy chooser against
// the reshaped graph) and resets the rebuild budget.
func (e *Engine) rebuildLocked() {
	e.materializeLocked()
	res := cc.Solve(e.gs.und, e.opt.ccPolicy(e.gs.und), e.opt.ccOptions(nil))
	e.invalidateLocked(ccCells)
	e.ccSeed = res
	if e.dyn == nil {
		e.inc = inc.FromLabels(res.Label, res.NumComponents)
	}
	e.baseEdges = e.gs.und.NumEdges()
	e.sinceRebuild = 0
}
