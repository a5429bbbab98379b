package aquila

import (
	"context"
	"errors"
	"testing"
	"time"

	"aquila/internal/baseline/serialdfs"
	"aquila/internal/gen"
	"aquila/internal/graph"
	"aquila/internal/verify"
)

// kernelCases tables the four decomposition kernels through their
// context-taking entry points. check validates a successful result against
// the serial oracle, proving a cancelled attempt leaves no corrupt cache.
var kernelCases = []struct {
	name     string
	directed bool
	run      func(e *Engine, ctx context.Context) error
	check    func(t *testing.T, e *Engine, und *Undirected, dir *Directed)
}{
	{
		name: "CC",
		run:  func(e *Engine, ctx context.Context) error { _, err := e.Acquire().CC(ctx); return err },
		check: func(t *testing.T, e *Engine, und *Undirected, _ *Directed) {
			res, err := e.Acquire().CC(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.SamePartition(res.Label, serialdfs.CC(und)); err != nil {
				t.Fatal(err)
			}
		},
	},
	{
		name:     "SCC",
		directed: true,
		run:      func(e *Engine, ctx context.Context) error { _, err := e.Acquire().SCC(ctx); return err },
		check: func(t *testing.T, e *Engine, _ *Undirected, dir *Directed) {
			res, err := e.Acquire().SCC(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.SamePartition(res.Label, serialdfs.SCC(dir)); err != nil {
				t.Fatal(err)
			}
		},
	},
	{
		name: "BiCC",
		run:  func(e *Engine, ctx context.Context) error { _, err := e.Acquire().BiCC(ctx); return err },
		check: func(t *testing.T, e *Engine, und *Undirected, _ *Directed) {
			res, err := e.Acquire().BiCC(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want := serialdfs.APs(und)
			if want == nil {
				want = make([]bool, und.NumVertices())
			}
			if err := verify.SameBoolSet(res.IsAP, want, "AP"); err != nil {
				t.Fatal(err)
			}
		},
	},
	{
		name: "BgCC",
		run:  func(e *Engine, ctx context.Context) error { _, err := e.Acquire().BgCC(ctx); return err },
		check: func(t *testing.T, e *Engine, und *Undirected, _ *Directed) {
			res, err := e.Acquire().BgCC(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want := serialdfs.Bridges(und)
			if want == nil {
				want = make([]bool, 0)
			}
			if err := verify.BridgeSetEqual(res.IsBridge, want); err != nil {
				t.Fatal(err)
			}
		},
	},
}

func cancelTestEngine(directed bool, threads int) (*Engine, *Undirected, *Directed) {
	if directed {
		dir := gen.RMAT(11, 8, 17)
		return NewDirectedEngine(dir, Options{Threads: threads}), graph.Undirect(dir), dir
	}
	und := gen.RandomUndirected(2000, 6000, 17)
	return NewEngine(und, Options{Threads: threads}), und, nil
}

// TestKernelPreCancelled: a context cancelled before the call must surface
// context.Canceled from every kernel at every thread count, and must leave
// the engine fully usable — the retry with a live context matches the oracle.
func TestKernelPreCancelled(t *testing.T) {
	for _, tc := range kernelCases {
		for _, threads := range []int{1, 4} {
			tc, threads := tc, threads
			t.Run(tc.name, func(t *testing.T) {
				e, und, dir := cancelTestEngine(tc.directed, threads)
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if err := tc.run(e, ctx); !errors.Is(err, context.Canceled) {
					t.Fatalf("threads=%d: err = %v, want context.Canceled", threads, err)
				}
				tc.check(t, e, und, dir)
			})
		}
	}
}

// TestKernelMidFlightCancel cancels while the kernel runs: the call must
// return promptly (bounded below by nothing, above by a generous timeout)
// with a context error, or — if the kernel won the race — a result that
// checks out. Either way the engine stays correct afterwards.
func TestKernelMidFlightCancel(t *testing.T) {
	for _, tc := range kernelCases {
		for _, threads := range []int{1, 4} {
			tc, threads := tc, threads
			t.Run(tc.name, func(t *testing.T) {
				e, und, dir := cancelTestEngine(tc.directed, threads)
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan error, 1)
				go func() { done <- tc.run(e, ctx) }()
				time.Sleep(200 * time.Microsecond)
				cancel()
				select {
				case err := <-done:
					if err != nil && !errors.Is(err, context.Canceled) {
						t.Fatalf("threads=%d: err = %v, want nil or Canceled", threads, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("threads=%d: kernel did not return after cancel", threads)
				}
				tc.check(t, e, und, dir)
			})
		}
	}
}

// TestKernelDeadline runs every kernel under an already-expired deadline.
func TestKernelDeadline(t *testing.T) {
	for _, tc := range kernelCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			e, und, dir := cancelTestEngine(tc.directed, 2)
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			defer cancel()
			if err := tc.run(e, ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want DeadlineExceeded", err)
			}
			tc.check(t, e, und, dir)
		})
	}
}

// TestLargestCCCancelled cancels the partial-traversal fast path and checks
// the engine answers correctly on retry (scratch must be returned to the
// pool, visited state must not leak into the fresh attempt).
func TestLargestCCCancelled(t *testing.T) {
	g := gen.RandomUndirected(3000, 9000, 23)
	e := NewEngine(g, Options{Threads: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Acquire().LargestCC(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	res, err := e.Acquire().LargestCC(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	truth := serialdfs.CC(g)
	sizes := make(map[uint32]int)
	for _, l := range truth {
		sizes[l]++
	}
	maxSize := 0
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	if res.Size != maxSize {
		t.Fatalf("LargestCC.Size = %d, oracle %d", res.Size, maxSize)
	}
	if ok, err := e.Acquire().IsConnected(context.Background()); err != nil {
		t.Fatal(err)
	} else if want := len(sizes) == 1; ok != want {
		t.Fatalf("IsConnected = %v, oracle %v", ok, want)
	}
}
