package aquila

import (
	"errors"

	"aquila/internal/apps/condense"
	"aquila/internal/bgcc"
	"aquila/internal/bicc"
	"aquila/internal/cc"
	"aquila/internal/scc"
)

// CCResult is a complete connected-components decomposition.
type CCResult = cc.Result

// SCCResult is a complete strongly-connected-components decomposition.
type SCCResult = scc.Result

// BiCCResult is a complete biconnected-components decomposition.
type BiCCResult = bicc.Result

// BgCCResult is a complete bridgeless-connected-components decomposition.
type BgCCResult = bgcc.Result

// Condensation is the SCC-contracted DAG of a directed graph (paper §2.1,
// application 1), supporting topological order and O(1) reachability queries
// after a lazily built index.
type Condensation = condense.DAG

// ErrNotDirected is returned by SCC queries on engines built over undirected
// graphs.
var ErrNotDirected = errors.New("aquila: SCC queries need a directed graph (use NewDirectedEngine)")

// The Engine's queries answer on its current snapshot (see the Snapshot
// method of the same name for each one's strategy); only Connected, CountCC
// and IsConnected read the live union-find or forest once a batch has been
// applied. Results are cached on the snapshot and shared: callers must not
// mutate them.

// CC returns the complete connected-components decomposition. For directed
// engines this is the WCC decomposition. After Apply batches it is
// re-derived from the incremental union-find in O(|V|) instead of
// recomputed by traversal.
func (e *Engine) CC() *CCResult { r, _ := e.Acquire().CC(direct); return r }

// WCC is CC under its directed-graph name: the weakly connected components.
func (e *Engine) WCC() *CCResult { return e.CC() }

// SCC returns the complete strongly-connected-components decomposition.
func (e *Engine) SCC() (*SCCResult, error) { return e.Acquire().SCC(direct) }

// BiCC returns the complete biconnected-components decomposition.
func (e *Engine) BiCC() *BiCCResult { r, _ := e.Acquire().BiCC(direct); return r }

// BgCC returns the complete bridgeless-connected-components decomposition.
func (e *Engine) BgCC() *BgCCResult { r, _ := e.Acquire().BgCC(direct); return r }

// CCSizeHistogram maps component size to the number of components of that
// size (the paper's Fig. 8 shape).
func (e *Engine) CCSizeHistogram() map[int]int {
	h, _ := e.Acquire().CCSizeHistogram(direct)
	return h
}

// LargestCC answers the largest-XCC query (§3) with partial computation.
func (e *Engine) LargestCC() *LargestResult { r, _ := e.Acquire().LargestCC(direct); return r }

// InLargestCC reports whether v is in the largest connected component.
func (e *Engine) InLargestCC(v V) bool { ok, _ := e.Acquire().InLargestCC(direct, v); return ok }

// IsStronglyConnected answers "is this graph strongly connected?" with
// partial computation.
func (e *Engine) IsStronglyConnected() (bool, error) { return e.Acquire().IsStronglyConnected(direct) }

// LargestSCC answers "how big is the largest SCC / is v in it" with partial
// computation.
func (e *Engine) LargestSCC() (*LargestResult, error) { return e.Acquire().LargestSCC(direct) }

// ArticulationPoints answers the AP-only query (§3) with the workload-reduced
// AP detection, without block bookkeeping.
func (e *Engine) ArticulationPoints() []V { r, _ := e.Acquire().ArticulationPoints(direct); return r }

// IsArticulationPoint reports whether v is an articulation point (false for
// an out-of-range v), in O(1) once the AP flags are cached.
func (e *Engine) IsArticulationPoint(v V) bool {
	ok, _ := e.Acquire().IsArticulationPoint(direct, v)
	return ok
}

// Bridges answers the bridge-only query (§3), returning each bridge as an
// ordered endpoint pair.
func (e *Engine) Bridges() [][2]V { r, _ := e.Acquire().Bridges(direct); return r }

// Condensation contracts the engine's directed graph by its SCCs.
func (e *Engine) Condensation() (*Condensation, error) { return e.Acquire().Condensation(direct) }

// BetweennessCentrality computes exact betweenness centrality over the
// undirected view.
func (e *Engine) BetweennessCentrality() []float64 {
	r, _ := e.Acquire().BetweennessCentrality(direct)
	return r
}

// Coreness returns the k-core decomposition of the undirected view.
func (e *Engine) Coreness() []int32 { r, _ := e.Acquire().Coreness(direct); return r }

// CCPolicy reports the CC matrix cell the engine would use for its current
// graph, in cc.ParsePolicy syntax.
func (e *Engine) CCPolicy() string { return e.Acquire().CCPolicy() }

// SCCPolicy reports the SCC matrix cell the engine would use for its current
// graph; undirected engines return ErrNotDirected.
func (e *Engine) SCCPolicy() (string, error) { return e.Acquire().SCCPolicy() }

// BiCCPolicy reports the BiCC matrix cell the engine would use for its
// current graph.
func (e *Engine) BiCCPolicy() string { return e.Acquire().BiCCPolicy() }

// liveCount reads the component count off the union-find or forest; ok is
// false before the first batch, when the snapshot answers instead.
func (e *Engine) liveCount() (cnt int, ok bool) {
	if !e.live.Load() {
		return 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dyn != nil {
		return e.dyn.ComponentCount(), true
	}
	return e.inc.ComponentCount(), true
}

// CountCC returns the number of connected components. Under incremental
// updates it reads an O(1) counter maintained by Apply.
func (e *Engine) CountCC() int {
	if cnt, ok := e.liveCount(); ok {
		return cnt
	}
	cnt, _ := e.Acquire().CountCC(direct)
	return cnt
}

// IsConnected answers the small-XCC query "is this graph connected?" (§3):
// a trimmable pattern disproves it without a traversal, and otherwise one
// traversal decides it. Under incremental updates the component counter
// answers directly.
func (e *Engine) IsConnected() bool {
	if cnt, ok := e.liveCount(); ok {
		return cnt == 1 || e.n <= 1
	}
	ok, _ := e.Acquire().IsConnected(direct)
	return ok
}

// Connected reports whether u and v lie in the same connected component.
// Before any batch it reads the snapshot's CC labels; once incremental
// updates have begun it is answered straight from the union-find in
// near-constant time, without waiting for writers. In dynamic mode (after
// the first delete op) it reads the spanning forest in O(log n) under the
// engine lock. Both endpoints must be existing vertices.
func (e *Engine) Connected(u, v V) bool {
	if e.live.Load() {
		e.mu.Lock()
		if e.dyn != nil {
			// The forest is not safe for concurrent mutation, so unlike the
			// union-find this query holds e.mu — still O(log n).
			defer e.mu.Unlock()
			return e.dyn.Connected(e.mapV(u), e.mapV(v))
		}
		s := e.inc
		e.mu.Unlock()
		return s.Connected(e.mapV(u), e.mapV(v))
	}
	ok, _ := e.Acquire().Connected(direct, u, v)
	return ok
}
