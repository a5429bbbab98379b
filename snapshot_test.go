package aquila

import (
	"context"
	"testing"

	"aquila/internal/serve"
)

// TestSnapshotPartialPaths checks that the snapshot answers the §3
// partial-computation queries with their partial kernels: the AP-only and
// bridge-only queries leave the complete BiCC/BgCC cells cold, and
// IsConnected on a graph with an isolated vertex is decided by the trim scan
// with no traversal and no allocation. DisablePartial routes all three
// through the complete decompositions instead.
func TestSnapshotPartialPaths(t *testing.T) {
	ctx := context.Background()
	for _, disable := range []bool{false, true} {
		sn := paperEngine(Options{Threads: 2, DisablePartial: disable}).Acquire()
		if _, err := sn.ArticulationPoints(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := sn.Bridges(ctx); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name           string
			partial, whole bool
		}{
			{"AP", peeked(&sn.apOnly), peeked(&sn.biccRes)},
			{"bridge", peeked(&sn.brOnly), peeked(&sn.bgccRes)},
		} {
			if c.partial == disable || c.whole != disable {
				t.Errorf("DisablePartial=%v: %s-only cell warm=%v, complete cell warm=%v",
					disable, c.name, c.partial, c.whole)
			}
		}

		// Vertex 4 is isolated.
		e := NewEngine(NewUndirected(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}),
			Options{Threads: 2, DisablePartial: disable})
		sn = e.Acquire()
		if ok, err := sn.IsConnected(ctx); err != nil || ok {
			t.Fatalf("DisablePartial=%v: IsConnected = (%v, %v), want (false, nil)", disable, ok, err)
		}
		if traversed := peeked(&sn.isConn) || peeked(&sn.ccRaw); traversed == !disable {
			t.Errorf("DisablePartial=%v: IsConnected traversal ran = %v", disable, traversed)
		}
		if disable {
			continue
		}
		if allocs := testing.AllocsPerRun(100, func() { e.IsConnected() }); allocs != 0 {
			t.Errorf("Engine.IsConnected allocates %v times per call on the trim path", allocs)
		}
	}
}

func peeked[T any](c *serve.Cell[T]) bool {
	_, ok := c.Peek()
	return ok
}
