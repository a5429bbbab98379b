package main

import (
	"fmt"
	"sort"

	"aquila"
	"aquila/internal/baseline/serialdfs"
	"aquila/internal/graph"
)

// analystOracle holds the serialdfs answers to every analyst query on one
// graph, computed once per seed outside any timing. The undirected view is
// built from the arc list by the edge-list builder, not by graph.Undirect,
// so the oracle does not share the engine's conversion path.
type analystOracle struct {
	N         int
	Arcs      int64
	WCC, SCC  []uint32
	Connected bool // one WCC
	BgCC      []uint32
	IsAP      []bool
	NumBlocks int
	// Endpoints and BlockSig describe the BiCC partition edge by edge:
	// BlockSig[i] numbers edge i's block by first appearance, so two
	// partitions of the same edge list agree iff their signatures do.
	Endpoints [][2]aquila.V
	BlockSig  []int32
}

func undirectedOf(g *graph.Directed) *graph.Undirected {
	edges := make([]graph.Edge, 0, g.NumArcs())
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Out(graph.V(u)) {
			edges = append(edges, graph.Edge{U: graph.V(u), V: v})
		}
	}
	return graph.BuildUndirected(g.NumVertices(), edges)
}

func computeAnalystOracle(g *graph.Directed) *analystOracle {
	u := undirectedOf(g)
	b := serialdfs.BiCC(u)
	wcc := serialdfs.CC(u)
	return &analystOracle{
		N: g.NumVertices(), Arcs: g.NumArcs(),
		WCC: wcc, SCC: serialdfs.SCC(g), BgCC: serialdfs.BgCC(u), Connected: countDistinct(wcc) == 1,
		IsAP: b.IsAP, NumBlocks: b.NumBlocks,
		Endpoints: u.EdgeEndpoints(), BlockSig: blockSignature(b.BlockOf),
	}
}

// blockSignature renumbers block labels by first appearance in edge order.
func blockSignature(blockOf []int64) []int32 {
	seen := map[int64]int32{}
	sig := make([]int32, len(blockOf))
	for i, b := range blockOf {
		s, ok := seen[b]
		if !ok {
			s = int32(len(seen))
			seen[b] = s
		}
		sig[i] = s
	}
	return sig
}

func countDistinct(label []uint32) int {
	seen := make(map[uint32]struct{})
	for _, l := range label {
		seen[l] = struct{}{}
	}
	return len(seen)
}

func equalLabels(name string, got, want []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d labels, oracle has %d", name, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("%s: vertex %d labelled %d, oracle %d", name, v, got[v], want[v])
		}
	}
	return nil
}

// Each check compares one analyst answer with the oracle and returns nil when
// they agree.

func (o *analystOracle) checkGraph(g *aquila.Directed) error {
	if g.NumVertices() != o.N || g.NumArcs() != o.Arcs {
		return fmt.Errorf("loaded graph has %d vertices / %d arcs, generated %d / %d",
			g.NumVertices(), g.NumArcs(), o.N, o.Arcs)
	}
	return nil
}

func (o *analystOracle) checkCC(r *aquila.CCResult) error {
	if err := equalLabels("cc", r.Label, o.WCC); err != nil {
		return err
	}
	if want := countDistinct(o.WCC); r.NumComponents != want {
		return fmt.Errorf("cc: %d components, oracle %d", r.NumComponents, want)
	}
	return nil
}

func (o *analystOracle) checkSCC(r *aquila.SCCResult) error {
	if err := equalLabels("scc", r.Label, o.SCC); err != nil {
		return err
	}
	if want := countDistinct(o.SCC); r.NumComponents != want {
		return fmt.Errorf("scc: %d components, oracle %d", r.NumComponents, want)
	}
	return nil
}

func (o *analystOracle) checkAPFlags(name string, isAP []bool) error {
	if len(isAP) != len(o.IsAP) {
		return fmt.Errorf("%s: %d AP flags, oracle %d", name, len(isAP), len(o.IsAP))
	}
	for v := range isAP {
		if isAP[v] != o.IsAP[v] {
			return fmt.Errorf("%s: vertex %d AP=%t, oracle %t", name, v, isAP[v], o.IsAP[v])
		}
	}
	return nil
}

// checkBiCC needs the edge order the result's BlockOf refers to.
func (o *analystOracle) checkBiCC(r *aquila.BiCCResult, endpoints [][2]aquila.V) error {
	if err := o.checkAPFlags("bicc", r.IsAP); err != nil {
		return err
	}
	if r.NumBlocks != o.NumBlocks {
		return fmt.Errorf("bicc: %d blocks, oracle %d", r.NumBlocks, o.NumBlocks)
	}
	if len(endpoints) != len(o.Endpoints) {
		return fmt.Errorf("bicc: %d edges, oracle %d", len(endpoints), len(o.Endpoints))
	}
	for i := range endpoints {
		if endpoints[i] != o.Endpoints[i] {
			return fmt.Errorf("bicc: edge %d is %v, oracle %v", i, endpoints[i], o.Endpoints[i])
		}
	}
	sig := blockSignature(r.BlockOf)
	for i := range sig {
		if sig[i] != o.BlockSig[i] {
			return fmt.Errorf("bicc: edge %d %v in the wrong block", i, endpoints[i])
		}
	}
	return nil
}

func (o *analystOracle) checkBgCC(r *aquila.BgCCResult) error {
	if err := equalLabels("bgcc", r.Label, o.BgCC); err != nil {
		return err
	}
	if want := countDistinct(o.BgCC); r.NumComponents != want {
		return fmt.Errorf("bgcc: %d components, oracle %d", r.NumComponents, want)
	}
	return nil
}

func (o *analystOracle) checkConnected(got bool) error {
	if want := o.Connected; got != want {
		return fmt.Errorf("connected: %t, oracle %t", got, want)
	}
	return nil
}

func (o *analystOracle) checkLargestSCC(r *aquila.LargestResult) error {
	sizes := map[uint32]int{}
	best := 0
	for _, l := range o.SCC {
		sizes[l]++
		best = max(best, sizes[l])
	}
	if r.Size != best {
		return fmt.Errorf("largest-scc: size %d, oracle %d", r.Size, best)
	}
	if int(r.Pivot) >= o.N || sizes[o.SCC[r.Pivot]] != best {
		return fmt.Errorf("largest-scc: pivot %d is not in a largest SCC", r.Pivot)
	}
	lbl := o.SCC[r.Pivot]
	for v := range o.SCC {
		if r.Contains(aquila.V(v)) != (o.SCC[v] == lbl) {
			return fmt.Errorf("largest-scc: membership of vertex %d wrong", v)
		}
	}
	return nil
}

func (o *analystOracle) checkAPs(aps []aquila.V) error {
	flags := make([]bool, o.N)
	for i, v := range aps {
		if int(v) >= o.N || (i > 0 && aps[i-1] >= v) {
			return fmt.Errorf("aps: list not ascending and in range at %d", i)
		}
		flags[v] = true
	}
	return o.checkAPFlags("aps", flags)
}

// Serving observations, checked after the measured window against the
// oracle state of the epoch each answer names.

type pointObs struct {
	U, V      aquila.V
	Epoch     uint64
	Connected bool
}

type applyObs struct {
	Batch                              int // index into the batch stream
	Epoch                              uint64
	NewEdges, DeletedEdges, Components int
}

type biccObs struct {
	Epoch            uint64
	NumBlocks, NumAP int
}

// servedLog is what the load generator saw. Epoch k is the graph after the
// first k applied batches of the stream, applied in stream order.
type servedLog struct {
	Points  []pointObs
	Applies []applyObs
	BiCCs   []biccObs
}

// mirror is the benchmark's own copy of the served arc set: the base CSR plus
// the arcs added and removed since.
type mirror struct {
	base           *graph.Directed
	added, removed map[[2]aquila.V]struct{}
}

func newMirror(base *graph.Directed) *mirror {
	return &mirror{base: base, added: map[[2]aquila.V]struct{}{}, removed: map[[2]aquila.V]struct{}{}}
}

func (m *mirror) has(a [2]aquila.V) bool {
	if _, ok := m.added[a]; ok {
		return true
	}
	_, gone := m.removed[a]
	return !gone && m.base.HasArc(a[0], a[1])
}

// apply replays one batch (inserts, then deletes) with the directed engine's
// rules and returns how many undirected edges appeared and disappeared: an
// undirected edge exists while either of its arcs does.
func (m *mirror) apply(b batch) (newEdges, deletedEdges int) {
	for _, a := range b.Ins {
		if a[0] == a[1] || m.has(a) {
			continue
		}
		if _, gone := m.removed[a]; gone {
			delete(m.removed, a)
		} else {
			m.added[a] = struct{}{}
		}
		if !m.has([2]aquila.V{a[1], a[0]}) {
			newEdges++
		}
	}
	for _, a := range b.Del {
		if a[0] == a[1] || !m.has(a) {
			continue
		}
		if _, ok := m.added[a]; ok {
			delete(m.added, a)
		} else {
			m.removed[a] = struct{}{}
		}
		if !m.has([2]aquila.V{a[1], a[0]}) {
			deletedEdges++
		}
	}
	return newEdges, deletedEdges
}

// undirected builds the current undirected graph.
func (m *mirror) undirected() *graph.Undirected {
	n := m.base.NumVertices()
	edges := make([]graph.Edge, 0, int(m.base.NumArcs())+len(m.added))
	for u := 0; u < n; u++ {
		for _, v := range m.base.Out(graph.V(u)) {
			if _, gone := m.removed[[2]aquila.V{graph.V(u), v}]; !gone {
				edges = append(edges, graph.Edge{U: graph.V(u), V: v})
			}
		}
	}
	for a := range m.added {
		edges = append(edges, graph.Edge{U: a[0], V: a[1]})
	}
	return graph.BuildUndirected(n, edges)
}

// minUF is a serial union-find whose roots are component minima, so find
// returns serialdfs's canonical label. Insert-only streams extend the base
// graph's serialdfs labels with it instead of re-running the DFS per epoch.
type minUF struct {
	parent []uint32
	comps  int
}

func newMinUF(label []uint32) *minUF {
	return &minUF{parent: append([]uint32(nil), label...), comps: countDistinct(label)}
}

func (u *minUF) find(v uint32) uint32 {
	for u.parent[v] != v {
		u.parent[v] = u.parent[u.parent[v]]
		v = u.parent[v]
	}
	return v
}

func (u *minUF) union(a, b uint32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.comps--
}

// checkServed replays the batch stream epoch by epoch and checks every logged
// answer against the oracle for its epoch: point answers against the epoch's
// serialdfs connectivity, apply counters against the mirror, and cold BiCC
// answers against serialdfs.BiCC. It returns the number of wrong answers and
// the first few of them.
func checkServed(base *graph.Directed, batches []batch, log *servedLog) (wrong int, details []string) {
	fail := func(format string, args ...any) {
		wrong++
		if len(details) < 5 {
			details = append(details, fmt.Sprintf(format, args...))
		}
	}
	points := append([]pointObs(nil), log.Points...)
	sort.SliceStable(points, func(i, j int) bool { return points[i].Epoch < points[j].Epoch })
	applies := map[uint64]applyObs{}
	var last uint64
	for _, a := range log.Applies {
		applies[a.Epoch] = a
		last = max(last, a.Epoch)
	}
	biccs := map[uint64][]biccObs{}
	for _, b := range log.BiCCs {
		biccs[b.Epoch] = append(biccs[b.Epoch], b)
		last = max(last, b.Epoch)
	}
	if len(points) > 0 {
		last = max(last, points[len(points)-1].Epoch)
	}
	if last > uint64(len(batches)) {
		fail("epoch %d answered but only %d batches exist", last, len(batches))
		return wrong, details
	}
	insertOnly := true
	for _, b := range batches[:last] {
		insertOnly = insertOnly && len(b.Del) == 0
	}

	m := newMirror(base)
	var uf *minUF
	label := func(v aquila.V) uint32 { return uf.find(uint32(v)) }
	if insertOnly {
		uf = newMinUF(serialdfs.CC(m.undirected()))
	}
	var curLabel []uint32 // per-epoch serialdfs labels when deletes occur
	if !insertOnly {
		label = func(v aquila.V) uint32 { return curLabel[v] }
	}
	pi := 0
	for ep := uint64(0); ep <= last; ep++ {
		if ep > 0 {
			b := batches[ep-1]
			newE, delE := m.apply(b)
			if insertOnly {
				for _, a := range b.Ins {
					uf.union(uint32(a[0]), uint32(a[1]))
				}
			}
			if a, ok := applies[ep]; ok && (a.NewEdges != newE || a.DeletedEdges != delE) {
				fail("apply at epoch %d: new %d deleted %d, mirror %d / %d", ep, a.NewEdges, a.DeletedEdges, newE, delE)
			}
		}
		_, hasApply := applies[ep]
		needCC := hasApply || (pi < len(points) && points[pi].Epoch == ep)
		var und *graph.Undirected
		if !insertOnly && needCC || len(biccs[ep]) > 0 {
			und = m.undirected()
		}
		comps := 0
		if insertOnly {
			comps = uf.comps
		} else if needCC {
			curLabel = serialdfs.CC(und)
			comps = countDistinct(curLabel)
		}
		if a, ok := applies[ep]; ok && a.Components != comps {
			fail("apply at epoch %d: %d components, oracle %d", ep, a.Components, comps)
		}
		for ; pi < len(points) && points[pi].Epoch == ep; pi++ {
			p := points[pi]
			if want := label(p.U) == label(p.V); p.Connected != want {
				fail("connected(%d,%d) at epoch %d = %t, oracle %t", p.U, p.V, ep, p.Connected, want)
			}
		}
		if obs := biccs[ep]; len(obs) > 0 {
			b := serialdfs.BiCC(und)
			aps := 0
			for _, ap := range b.IsAP {
				if ap {
					aps++
				}
			}
			for _, o := range obs {
				if o.NumBlocks != b.NumBlocks || o.NumAP != aps {
					fail("bicc at epoch %d: %d blocks %d APs, oracle %d / %d", ep, o.NumBlocks, o.NumAP, b.NumBlocks, aps)
				}
			}
		}
	}
	return wrong, details
}
