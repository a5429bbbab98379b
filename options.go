package aquila

import (
	"context"

	"aquila/internal/bfs"
	"aquila/internal/bgcc"
	"aquila/internal/bicc"
	"aquila/internal/cc"
	"aquila/internal/scc"
	"aquila/internal/stats"
)

// Traversal selects how much of the enhanced-BFS machinery is used for the
// large-component traversals.
type Traversal int

const (
	// TraversalEnhanced (default) uses multi-pivot sampling and the relaxed
	// synchronization schedule (§5.3).
	TraversalEnhanced Traversal = iota
	// TraversalDirOpt uses direction-optimizing BFS without the enhancements.
	TraversalDirOpt
	// TraversalPlain uses plain synchronous top-down parallel BFS.
	TraversalPlain
)

func (t Traversal) mode() bfs.Mode {
	switch t {
	case TraversalPlain:
		return bfs.ModePlain
	case TraversalDirOpt:
		return bfs.ModeDirOpt
	default:
		return bfs.ModeEnhanced
	}
}

// Reorder selects the cache-aware vertex relabeling applied when an Engine is
// built. The engine computes on the relabeled CSR (hubs and traversal
// neighborhoods packed onto adjacent rows) and transparently maps every
// result — labels, AP/bridge sets, Contains closures, pair queries — back to
// the caller's original vertex ids, so reordering is observationally
// invisible apart from speed.
type Reorder int

const (
	// ReorderNone computes on the input graph as-is (default).
	ReorderNone Reorder = iota
	// ReorderDegree relabels vertices in degree-descending order, clustering
	// hubs at the front of the CSR (frequent-first layout).
	ReorderDegree
	// ReorderBFS relabels vertices in a hub-seeded breadth-first order, so
	// vertices a traversal touches together sit on nearby CSR rows.
	ReorderBFS
)

// Options configures an Engine. The zero value uses all techniques with
// GOMAXPROCS workers.
type Options struct {
	// Threads is the worker count; 0 means GOMAXPROCS.
	Threads int
	// Traversal selects the large-task BFS flavour.
	Traversal Traversal
	// Reorder selects the cache-aware vertex relabeling (default: none).
	Reorder Reorder
	// DisableTrim turns off trivial-pattern trimming (Fig. 7).
	DisableTrim bool
	// DisableSPO turns off single-parent-only pruning (Fig. 5) in BiCC/BgCC.
	DisableSPO bool
	// DisableAdaptive turns off the large/small task split: everything is
	// computed with the data-parallel method.
	DisableAdaptive bool
	// DisablePartial turns off query transformation: every query is answered
	// from the complete decomposition (the strategy of conventional
	// frameworks the paper compares against in Figs. 12–14).
	DisablePartial bool
	// CCPolicy selects the connected-components matrix cell. "" or "auto"
	// (the default) picks the cell adaptively from cheap graph statistics at
	// solve time; any other value is a cc.ParsePolicy spec ("sampling+finish",
	// e.g. "afforest+uf-async", or "pipeline" for the classic trim+BFS+LP
	// cell). Every cell returns the same canonical labeling, so the choice is
	// performance-only. An unparseable spec degrades to "auto" (NewEngine
	// cannot error); front-ends validate with ValidateCCPolicy first.
	CCPolicy string
	// SCCPolicy selects the strongly-connected-components matrix cell. ""
	// or "auto" (the default) picks the cell adaptively from the directed-
	// graph probe (cheap statistics plus a bounded post-trim liveness scan)
	// at solve time; any other value is an scc.ParsePolicy spec ("coloring",
	// "multireach", "fwbw", or the alias "pipeline" for the classic paper
	// cell). Every cell returns the same canonical labeling, so the choice
	// is performance-only; only directed engines consult it. An unparseable
	// spec degrades to "auto" (NewEngine cannot error); front-ends validate
	// with ValidateSCCPolicy first.
	SCCPolicy string
	// BiCCPolicy selects the biconnected-components matrix cell. "" or
	// "auto" (the default) picks the cell adaptively from the undirected
	// probe (cheap statistics plus a bounded BFS-depth sample) at solve
	// time; any other value is a bicc.ParsePolicy spec ("constrained",
	// "skeleton", or the alias "pipeline" for the classic paper cell).
	// Every cell returns the same canonical AP set and block partition, so
	// the choice is performance-only. An unparseable spec degrades to
	// "auto" (NewEngine cannot error); front-ends validate with
	// ValidateBiCCPolicy first.
	BiCCPolicy string
	// RebuildThreshold controls when Apply falls back to a full static
	// recomputation: once the undirected edges inserted since the last
	// rebuild exceed RebuildThreshold × the edge count at that rebuild,
	// Apply materializes the graph and reruns the static CC pipeline,
	// reseeding the incremental union-find in a freshly flattened state.
	// In dynamic mode (after the first delete op) the budget counts inserts
	// plus deletes, and the rebuild re-canonicalizes the cached labels
	// through the static pipeline while the spanning forest stays
	// authoritative. 0 means the default (0.25); negative values disable
	// automatic rebuilds, growing the pending delta without bound.
	RebuildThreshold float64
	// DisableDynamic pins the engine to the monotone insert-only incremental
	// layer: batches containing delete operations are rejected with
	// ErrDeletesDisabled instead of promoting to the dynamic spanning
	// forest. Deployments that depend on monotone connectivity (a Connected
	// answer never later revoked) set this as a guard rail.
	DisableDynamic bool
}

// ValidateCCPolicy reports whether s is an acceptable Options.CCPolicy value:
// "", "auto", or a parseable matrix-cell spec. Front-ends call this to reject
// a bad -cc-policy before building an engine.
func ValidateCCPolicy(s string) error {
	if s == "" || s == "auto" {
		return nil
	}
	_, err := cc.ParsePolicy(s)
	return err
}

// ValidateSCCPolicy reports whether s is an acceptable Options.SCCPolicy
// value: "", "auto", or a parseable matrix-cell spec. Front-ends call this
// to reject a bad -scc-policy before building an engine.
func ValidateSCCPolicy(s string) error {
	if s == "" || s == "auto" {
		return nil
	}
	_, err := scc.ParsePolicy(s)
	return err
}

// ValidateBiCCPolicy reports whether s is an acceptable Options.BiCCPolicy
// value: "", "auto", or a parseable matrix-cell spec. Front-ends call this
// to reject a bad -bicc-policy before building an engine.
func ValidateBiCCPolicy(s string) error {
	if s == "" || s == "auto" {
		return nil
	}
	_, err := bicc.ParsePolicy(s)
	return err
}

// defaultRebuildThreshold is the delta fraction at which patching the
// union-find stops paying off versus one fresh decomposition.
const defaultRebuildThreshold = 0.25

// rebuildThreshold resolves the knob: the returned value is the effective
// fraction, with 0 meaning "rebuilds disabled".
func (o Options) rebuildThreshold() float64 {
	switch {
	case o.RebuildThreshold == 0:
		return defaultRebuildThreshold
	case o.RebuildThreshold < 0:
		return 0
	default:
		return o.RebuildThreshold
	}
}

// Kernel options and policy resolution. Each policy resolves per graph, not
// per engine: a batch can reshape the graph enough to change the auto cell,
// so every snapshot resolves against its own pinned graph. Explicit specs
// parse to their cell; "auto", "" and unparseable specs run the chooser.

func (o Options) ccOptions(ctx context.Context) cc.Options {
	return cc.Options{Threads: o.Threads, NoTrim: o.DisableTrim, NoAdaptive: o.DisableAdaptive,
		Mode: o.Traversal.mode(), Ctx: ctx}
}

func (o Options) ccPolicy(g *Undirected) cc.Policy {
	if s := o.CCPolicy; s != "" && s != "auto" {
		if pol, err := cc.ParsePolicy(s); err == nil {
			return pol
		}
	}
	return cc.ChoosePolicy(stats.CheapUndirected(g))
}

func (o Options) sccOptions(ctx context.Context) scc.Options {
	return scc.Options{Threads: o.Threads, NoTrim: o.DisableTrim, NoAdaptive: o.DisableAdaptive,
		Mode: o.Traversal.mode(), Ctx: ctx}
}

func (o Options) sccPolicy(g *Directed) scc.Policy {
	if s := o.SCCPolicy; s != "" && s != "auto" {
		if pol, err := scc.ParsePolicy(s); err == nil {
			return pol
		}
	}
	return scc.ChoosePolicy(stats.ProbeDirected(g, o.Threads))
}

func (o Options) biccOptions(ctx context.Context, apOnly bool) bicc.Options {
	return bicc.Options{Threads: o.Threads, NoTrim: o.DisableTrim, NoSPO: o.DisableSPO,
		NoAdaptive: o.DisableAdaptive, Mode: o.Traversal.mode(), APOnly: apOnly, Ctx: ctx}
}

func (o Options) biccPolicy(g *Undirected) bicc.Policy {
	if s := o.BiCCPolicy; s != "" && s != "auto" {
		if pol, err := bicc.ParsePolicy(s); err == nil {
			return pol
		}
	}
	return bicc.ChoosePolicy(stats.ProbeUndirected(g))
}

func (o Options) bgccOptions(ctx context.Context, bridgeOnly bool) bgcc.Options {
	return bgcc.Options{Threads: o.Threads, NoTrim: o.DisableTrim, NoSPO: o.DisableSPO,
		NoAdaptive: o.DisableAdaptive, Mode: o.Traversal.mode(), BridgeOnly: bridgeOnly, Ctx: ctx}
}
