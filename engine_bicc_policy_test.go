package aquila

// Engine-level tests for Options.BiCCPolicy — the BiCC face of the policy
// plumbing TestEngineCCPolicy*/TestEngineSCCPolicy* cover for CC/SCC:
// explicit cells, the depth-probe-fed auto default, invalid-spec degradation,
// Apply re-resolution, reorder parity, and cancellation, all against the
// serial oracle.

import (
	"context"
	"errors"
	"testing"

	"aquila/internal/baseline/serialdfs"
	"aquila/internal/bicc"
	"aquila/internal/gen"
	"aquila/internal/verify"
)

func TestValidateBiCCPolicy(t *testing.T) {
	for _, ok := range []string{"", "auto", "constrained", "skeleton", "pipeline"} {
		if err := ValidateBiCCPolicy(ok); err != nil {
			t.Errorf("ValidateBiCCPolicy(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"skel", "tarjan", "constrained+spo", "auto+auto"} {
		if err := ValidateBiCCPolicy(bad); err == nil {
			t.Errorf("ValidateBiCCPolicy(%q) accepted", bad)
		}
	}
}

// engineBiCCCheck compares the engine's full BiCC surface (blocks, block
// count, AP set) against the serial oracle for the same graph.
func engineBiCCCheck(t *testing.T, e *Engine, truth *serialdfs.BiCCResult) {
	t.Helper()
	res := e.BiCC()
	if err := verify.SameEdgePartition(res.BlockOf, truth.BlockOf); err != nil {
		t.Fatalf("blocks: %v", err)
	}
	if res.NumBlocks != truth.NumBlocks {
		t.Fatalf("NumBlocks = %d, want %d", res.NumBlocks, truth.NumBlocks)
	}
	if err := verify.SameBoolSet(res.IsAP, truth.IsAP, "AP"); err != nil {
		t.Fatal(err)
	}
}

// TestEngineBiCCPolicyCells runs the engine's BiCC surface under every
// explicit matrix cell against the serial oracle, and checks that both
// BiCCPolicy() and the result echo the pinned cell.
func TestEngineBiCCPolicyCells(t *testing.T) {
	g := gen.CliqueChain(gen.CliqueChainConfig{
		Cliques: 40, CliqueSize: 5, Tail: 20, Shuffle: true, Seed: 91,
	})
	truth := serialdfs.BiCC(g)
	for _, pol := range bicc.Policies() {
		e := NewEngine(g, Options{Threads: 2, BiCCPolicy: pol.String()})
		if got := e.BiCCPolicy(); got != pol.String() {
			t.Fatalf("BiCCPolicy() = %q, want %q", got, pol)
		}
		res := e.BiCC()
		if res.Policy != pol {
			t.Fatalf("Result.Policy = %v, want %v", res.Policy, pol)
		}
		engineBiCCCheck(t, e, truth)
	}
}

// TestEngineBiCCPolicyAuto: "" and "auto" resolve through the depth-probe-fed
// chooser to a parseable cell, and the decomposition matches the oracle.
func TestEngineBiCCPolicyAuto(t *testing.T) {
	g := gen.CliqueChain(gen.CliqueChainConfig{Cliques: 30, CliqueSize: 4, Seed: 93})
	truth := serialdfs.BiCC(g)
	for _, spec := range []string{"", "auto"} {
		e := NewEngine(g, Options{Threads: 2, BiCCPolicy: spec})
		pol := e.BiCCPolicy()
		if _, err := bicc.ParsePolicy(pol); err != nil {
			t.Fatalf("spec %q: BiCCPolicy() = %q not parseable: %v", spec, pol, err)
		}
		engineBiCCCheck(t, e, truth)
	}
}

// TestEngineBiCCPolicyInvalidDegradesToAuto: NewEngine cannot return an
// error, so an unparseable spec must answer correctly via the adaptive
// fallback rather than panic or wedge.
func TestEngineBiCCPolicyInvalidDegradesToAuto(t *testing.T) {
	g := gen.RandomUndirected(800, 2400, 97)
	e := NewEngine(g, Options{Threads: 2, BiCCPolicy: "not-a-cell"})
	engineBiCCCheck(t, e, serialdfs.BiCC(g))
	pol := e.BiCCPolicy()
	if _, err := bicc.ParsePolicy(pol); err != nil {
		t.Fatalf("fallback BiCCPolicy() = %q not parseable: %v", pol, err)
	}
}

// TestEngineBiCCPolicyApply: after growing the graph through Apply, both
// pinned cells must answer like the oracle on the grown graph — and auto must
// re-resolve against the new topology without wedging.
func TestEngineBiCCPolicyApply(t *testing.T) {
	g := gen.CliqueChain(gen.CliqueChainConfig{Cliques: 20, CliqueSize: 4, Seed: 101})
	n := g.NumVertices()
	// A batch of long chords: closing the chain into big cycles fuses runs of
	// cliques and bridges into single blocks, so the block structure (and the
	// probe's depth signal) genuinely changes.
	batch := []Edge{
		{U: 0, V: V(n - 1)},
		{U: V(n / 4), V: V(3 * n / 4)},
		{U: V(n / 3), V: V(n / 2)},
	}
	for _, spec := range []string{"constrained", "skeleton", "auto"} {
		e := NewEngine(g, Options{Threads: 2, BiCCPolicy: spec})
		e.BiCC() // warm the pre-Apply cache so Apply must invalidate it
		if _, err := e.Apply(batch); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		// The oracle runs on the engine's own post-Apply graph, so edge ids
		// line up by construction.
		engineBiCCCheck(t, e, serialdfs.BiCC(e.Undirected()))
	}
}

// TestEngineBiCCPolicyReorder: reordering must stay observationally invisible
// under both explicit cells — BlockOf comes back in original edge ids through
// remapBiCC, partition-identical to the unreordered engine.
func TestEngineBiCCPolicyReorder(t *testing.T) {
	g := gen.CliqueChain(gen.CliqueChainConfig{
		Cliques: 25, CliqueSize: 5, Tail: 15, Shuffle: true, Seed: 103,
	})
	truth := serialdfs.BiCC(g)
	for _, pol := range bicc.Policies() {
		for mname, mode := range reorderModes {
			t.Run(pol.String()+"/"+mname, func(t *testing.T) {
				e := NewEngine(g, Options{Threads: 2, Reorder: mode, BiCCPolicy: pol.String()})
				res := e.BiCC()
				if res.Policy != pol {
					t.Fatalf("Result.Policy = %v, want %v", res.Policy, pol)
				}
				engineBiCCCheck(t, e, truth)
			})
		}
	}
}

// TestEngineBiCCPolicyCancellation mirrors the kernel cancellation tables at
// the engine level for each cell and auto: pre-cancelled contexts surface
// context.Canceled, nothing partial is cached, and the retry matches the
// oracle.
func TestEngineBiCCPolicyCancellation(t *testing.T) {
	g := gen.CliqueChain(gen.CliqueChainConfig{
		Cliques: 60, CliqueSize: 6, Tail: 30, Shuffle: true, Seed: 107,
	})
	truth := serialdfs.BiCC(g)
	for _, spec := range []string{"constrained", "skeleton", "auto"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			e := NewEngine(g, Options{Threads: 2, BiCCPolicy: spec})
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := e.Acquire().BiCC(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			res, err := e.Acquire().BiCC(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.SameEdgePartition(res.BlockOf, truth.BlockOf); err != nil {
				t.Fatalf("retry after cancel: %v", err)
			}
			if err := verify.SameBoolSet(res.IsAP, truth.IsAP, "AP"); err != nil {
				t.Fatalf("retry after cancel: %v", err)
			}
		})
	}
}
