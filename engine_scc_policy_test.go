package aquila

// Engine-level tests for Options.SCCPolicy — the SCC face of the policy
// plumbing TestEngineCCPolicy* covers for CC: explicit cells, the probe-fed
// auto default, invalid-spec degradation, Apply re-resolution, and
// cancellation, all against the serial oracle.

import (
	"context"
	"errors"
	"testing"

	"aquila/internal/baseline/serialdfs"
	"aquila/internal/gen"
	"aquila/internal/graph"
	"aquila/internal/scc"
	"aquila/internal/verify"
)

func TestValidateSCCPolicy(t *testing.T) {
	for _, ok := range []string{"", "auto", "coloring", "pipeline", "multireach", "fwbw"} {
		if err := ValidateSCCPolicy(ok); err != nil {
			t.Errorf("ValidateSCCPolicy(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"color", "multi-reach", "tarjan", "auto+auto"} {
		if err := ValidateSCCPolicy(bad); err == nil {
			t.Errorf("ValidateSCCPolicy(%q) accepted", bad)
		}
	}
}

// TestEngineSCCPolicyCells runs the engine's SCC surface under every explicit
// matrix cell against the serial oracle: identical min-id labelings and
// census, and SCCPolicy() echoes the pinned cell.
func TestEngineSCCPolicyCells(t *testing.T) {
	g := gen.Rings(gen.RingsConfig{Rings: 80, MinSize: 2, MaxSize: 30, ExtraChords: 1, Seed: 71})
	truth := serialdfs.SCC(g)
	for _, pol := range scc.Policies() {
		e := NewDirectedEngine(g, Options{Threads: 2, SCCPolicy: pol.String()})
		res, err := e.SCC()
		if err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
		for v := range truth {
			if res.Label[v] != truth[v] {
				t.Fatalf("policy %v: Label[%d] = %d, want min-id %d", pol, v, res.Label[v], truth[v])
			}
		}
		got, err := e.SCCPolicy()
		if err != nil {
			t.Fatalf("SCCPolicy(): %v", err)
		}
		if got != pol.String() {
			t.Fatalf("SCCPolicy() = %q, want %q", got, pol)
		}
	}
}

// TestEngineSCCPolicyAuto: "" and "auto" resolve through the probe-fed
// chooser to a parseable cell, and the decomposition matches the oracle.
func TestEngineSCCPolicyAuto(t *testing.T) {
	g := gen.Rings(gen.RingsConfig{Rings: 50, MinSize: 3, MaxSize: 20, Seed: 73})
	truth := serialdfs.SCC(g)
	for _, spec := range []string{"", "auto"} {
		e := NewDirectedEngine(g, Options{Threads: 2, SCCPolicy: spec})
		pol, err := e.SCCPolicy()
		if err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
		if _, err := scc.ParsePolicy(pol); err != nil {
			t.Fatalf("spec %q: SCCPolicy() = %q not parseable: %v", spec, pol, err)
		}
		res, err := e.SCC()
		if err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
		if err := verify.SamePartition(res.Label, truth); err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
	}
}

// TestEngineSCCPolicyInvalidDegradesToAuto: NewDirectedEngine cannot return
// an error, so an unparseable spec must answer correctly via the adaptive
// fallback rather than panic or wedge.
func TestEngineSCCPolicyInvalidDegradesToAuto(t *testing.T) {
	g := gen.Random(800, 3000, 77)
	e := NewDirectedEngine(g, Options{Threads: 2, SCCPolicy: "not-a-cell"})
	res, err := e.SCC()
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.SamePartition(res.Label, serialdfs.SCC(g)); err != nil {
		t.Fatal(err)
	}
	pol, err := e.SCCPolicy()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scc.ParsePolicy(pol); err != nil {
		t.Fatalf("fallback SCCPolicy() = %q not parseable: %v", pol, err)
	}
}

// TestEngineSCCPolicyUndirected: SCCPolicy on an undirected engine reports
// ErrNotDirected, exactly like the SCC queries themselves.
func TestEngineSCCPolicyUndirected(t *testing.T) {
	e := NewEngine(gen.RandomUndirected(100, 200, 79), Options{})
	if _, err := e.SCCPolicy(); !errors.Is(err, ErrNotDirected) {
		t.Fatalf("err = %v, want ErrNotDirected", err)
	}
}

// TestEngineSCCPolicyApply: after growing the graph through Apply, an
// explicitly pinned cell must answer like the oracle on the grown graph —
// and auto must re-resolve against the new topology without wedging.
func TestEngineSCCPolicyApply(t *testing.T) {
	g := gen.Rings(gen.RingsConfig{Rings: 30, MinSize: 2, MaxSize: 15, Seed: 83})
	n := g.NumVertices()
	// Close a big cycle over the whole chain: last ring back to vertex 0.
	back := Edge{U: graph.V(n - 1), V: 0}
	for _, spec := range []string{"multireach", "coloring", "auto"} {
		e := NewDirectedEngine(g, Options{Threads: 2, SCCPolicy: spec})
		if _, err := e.Apply([]Edge{back}); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		all := append(allArcs(g), graph.Edge{U: back.U, V: back.V})
		truth := serialdfs.SCC(graph.BuildDirected(n, all))
		res, err := e.SCC()
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for v := range truth {
			if res.Label[v] != truth[v] {
				t.Fatalf("%s: post-Apply Label[%d] = %d, want %d", spec, v, res.Label[v], truth[v])
			}
		}
	}
}

// TestEngineSCCPolicyCancellation mirrors the kernel cancellation tables at
// the engine level for each cell and auto: pre-cancelled contexts surface
// context.Canceled, nothing partial is cached, and the retry matches the
// oracle.
func TestEngineSCCPolicyCancellation(t *testing.T) {
	g := gen.Rings(gen.RingsConfig{Rings: 60, MinSize: 2, MaxSize: 25, ExtraChords: 1, Seed: 89})
	truth := serialdfs.SCC(g)
	for _, spec := range []string{"coloring", "multireach", "fwbw", "auto"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			e := NewDirectedEngine(g, Options{Threads: 2, SCCPolicy: spec})
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := e.Acquire().SCC(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			res, err := e.Acquire().SCC(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for v := range truth {
				if res.Label[v] != truth[v] {
					t.Fatalf("retry after cancel: Label[%d] = %d, want %d", v, res.Label[v], truth[v])
				}
			}
		})
	}
}

// allArcs reconstructs the arc list of a directed CSR, for rebuilding oracle
// inputs.
func allArcs(g *Directed) []graph.Edge {
	var out []graph.Edge
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Out(graph.V(v)) {
			out = append(out, graph.Edge{U: graph.V(v), V: u})
		}
	}
	return out
}
