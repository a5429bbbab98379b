package cli

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"aquila"
	"aquila/internal/gen"
)

func paperServer() *aquila.Server {
	return aquila.NewServer(paperEngine(), aquila.ServerConfig{})
}

func TestAnswerServedAllQueries(t *testing.T) {
	srv := paperServer()
	ctx := context.Background()
	want := map[string]string{
		"connected":          "false",
		"connected=0,5":      "true",
		"connected=0,12":     "false",
		"strongly-connected": "false",
		"num-cc":             "3 connected components",
		"num-scc":            "6 strongly connected components",
		"num-bicc":           "6 biconnected components",
		"num-bgcc":           "6 bridgeless connected components",
		"in-largest-cc=5":    "true",
		"in-largest-cc=13":   "false",
	}
	for q, expect := range want {
		got, err := Answer(ctx, srv.Acquire(), q)
		if err != nil {
			t.Errorf("query %q: %v", q, err)
			continue
		}
		if got != expect {
			t.Errorf("query %q = %q, want %q", q, got, expect)
		}
	}
	// The serving layer may answer largest-cc from the census or a partial
	// traversal depending on which caches warmed first, so only the size is
	// stable — not the "(via ...)" strategy note.
	if got, err := Answer(ctx, srv.Acquire(), "largest-cc"); err != nil || !strings.HasPrefix(got, "largest CC: 8 vertices") {
		t.Errorf("largest-cc = %q, %v", got, err)
	}
	// Served answers must agree with the direct engine path.
	eng := paperEngine()
	for _, q := range []string{"aps", "bridges", "histogram", "stats", "largest-scc", "cc-policy", "scc-policy", "bicc-policy"} {
		served, err := Answer(ctx, srv.Acquire(), q)
		if err != nil {
			t.Errorf("served %q: %v", q, err)
			continue
		}
		direct, err := Answer(context.Background(), eng.Acquire(), q)
		if err != nil {
			t.Errorf("direct %q: %v", q, err)
			continue
		}
		if served != direct {
			t.Errorf("query %q: served %q, direct %q", q, served, direct)
		}
	}
	if _, err := Answer(ctx, srv.Acquire(), "nonsense"); err == nil {
		t.Error("nonsense: want error")
	}
}

// TestAnswerParityDirectServed asks every query in Queries of a bare engine
// and of a served twin, on the paper example with and without a BFS reorder,
// before and after a batch that deletes the bridge {12,13}: each answer must
// print the same either way.
func TestAnswerParityDirectServed(t *testing.T) {
	ctx := context.Background()
	queries := make([]string, len(Queries))
	for i, q := range Queries {
		queries[i] = strings.NewReplacer("<u>,<v>", "0,12", "<v>", "12").Replace(q)
	}
	g := gen.PaperExample()
	cut := aquila.Delete(12, 13)
	if !g.HasArc(12, 13) {
		cut = aquila.Delete(13, 12)
	}
	for _, opt := range []aquila.Options{{Threads: 2}, {Threads: 2, Reorder: aquila.ReorderBFS}} {
		eng := aquila.NewDirectedEngine(g, opt)
		srv := aquila.NewServer(aquila.NewDirectedEngine(g, opt), aquila.ServerConfig{})
		for _, batch := range [][]aquila.Update{nil, {cut}} {
			if batch != nil {
				if _, err := eng.ApplyUpdates(batch); err != nil {
					t.Fatal(err)
				}
				if _, err := srv.ApplyUpdates(batch); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range queries {
				direct, derr := Answer(ctx, eng.Acquire(), q)
				served, serr := Answer(ctx, srv.Acquire(), q)
				if derr != nil || serr != nil || direct != served {
					t.Errorf("reorder=%v deleted=%v %q: direct (%q, %v), served (%q, %v)",
						opt.Reorder, batch != nil, q, direct, derr, served, serr)
				}
			}
		}
	}
}

func TestReplayServedSnapshotIsolation(t *testing.T) {
	// Pin before the bridging batch: `??` must keep answering from the old
	// epoch while `?` sees every applied edge.
	script := `pin
? 0 12
0 8
---
? 0 8
?? 0 8
8 12
---
? 1 13
?? 0 8
`
	out, err := ReplayServed(paperServer(), strings.NewReader(script), 0)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out, "\n")
	want := []string{
		"pinned epoch 0",
		"connected(0, 12) @epoch 0 = false",
		"batch 1 -> epoch 1: 1 edges in, 1 new, 1 merges, 2 components",
		"connected(0, 8) @epoch 1 = true",
		"pinned connected(0, 8) @epoch 0 = false",
		"batch 2 -> epoch 2: 1 edges in, 1 new, 1 merges, 1 components",
		"connected(1, 13) @epoch 2 = true",
		"pinned connected(0, 8) @epoch 0 = false",
	}
	if len(lines) != len(want) {
		t.Fatalf("transcript:\n%s\nwant %d lines", out, len(want))
	}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("line %d = %q, want %q", i, lines[i], w)
		}
	}
}

func TestReplayServedRepin(t *testing.T) {
	script := "0 8\n---\npin\n?? 0 8\n"
	out, err := ReplayServed(paperServer(), strings.NewReader(script), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pinned epoch 1") || !strings.Contains(out, "@epoch 1 = true") {
		t.Fatalf("re-pin transcript wrong:\n%s", out)
	}
}

func TestReplayServedErrors(t *testing.T) {
	for _, script := range []string{
		"?? 1\n",     // malformed pinned query
		"?? 0 999\n", // out-of-range pinned query
		"0\n",        // not a pair
	} {
		if _, err := ReplayServed(paperServer(), strings.NewReader(script), 0); err == nil {
			t.Errorf("script %q: want error", script)
		}
	}
}

// TestAnswerServedOverloaded saturates a 1-slot/0-queue server and asserts
// shed queries surface as the explicit "overloaded, retry" classification
// (still matching aquila.ErrOverloaded under errors.Is) instead of a generic
// error string. Singleflight is disabled so concurrent identical queries
// cannot coalesce into one admission slot.
func TestAnswerServedOverloaded(t *testing.T) {
	// The kernel pass must outlive a scheduler preemption slice (~10ms) so
	// concurrent callers interleave even on a single-CPU host; a ~1M-edge
	// graph keeps one CC pass well past that.
	g := gen.RandomUndirected(300000, 1000000, 7)
	ctx := context.Background()
	const callers = 8
	for round := 0; round < 10; round++ {
		// Fresh server per round: after a successful round the snapshot's
		// cells are warm and no caller would need a slot again.
		srv := aquila.NewServer(aquila.NewEngine(g, aquila.Options{Threads: 1}),
			aquila.ServerConfig{MaxInFlight: 1, MaxQueue: -1, DisableSingleflight: true})
		start := make(chan struct{})
		errs := make(chan error, callers)
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, err := Answer(ctx, srv.Acquire(), "num-cc")
				errs <- err
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		var shed, ok int
		for err := range errs {
			switch {
			case err == nil:
				ok++
			case errors.Is(err, aquila.ErrOverloaded):
				if !strings.HasPrefix(err.Error(), "overloaded, retry") {
					t.Fatalf("shed query error = %q, want explicit overloaded-retry message", err)
				}
				shed++
			default:
				t.Fatalf("unexpected error: %v", err)
			}
		}
		if shed > 0 {
			if ok == 0 {
				t.Fatal("every caller was shed; one should hold the slot and succeed")
			}
			return // saturation observed and classified correctly
		}
	}
	t.Fatal("never saturated the 1-slot/0-queue server in 10 rounds")
}
