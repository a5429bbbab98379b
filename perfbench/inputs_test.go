package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aquila/internal/gen"
)

// Small versions of the workloads' input shapes.
var testWorkloads = []workload{
	{Name: "social", SocialScale: 2, BatchOps: 20, ApplyEvery: time.Millisecond, Batches: 6, Points: 64},
	{Name: "churn", ServeVertices: 400, ServeArcs: 800, BatchOps: 20, ApplyEvery: time.Millisecond,
		Churn: true, Batches: 6, Points: 64},
}

var inputFiles = []string{filePoints, fileBatches, fileOracle}

func graphFile(w workload) string {
	if w.SocialScale > 0 {
		return fileText
	}
	return fileAQG
}

func TestSameSeedGivesByteIdenticalInputs(t *testing.T) {
	for _, w := range testWorkloads {
		a, b, c := t.TempDir(), t.TempDir(), t.TempDir()
		for _, run := range []struct {
			dir  string
			seed uint64
		}{{a, 7}, {b, 7}, {c, 8}} {
			if err := prepare(w, run.seed, run.dir); err != nil {
				t.Fatalf("%s: prepare: %v", w.Name, err)
			}
		}
		for _, f := range append([]string{graphFile(w)}, inputFiles...) {
			fa, fb, fc := read(t, a, f), read(t, b, f), read(t, c, f)
			if !bytes.Equal(fa, fb) {
				t.Errorf("%s/%s: same seed gave different bytes", w.Name, f)
			}
			if bytes.Equal(fa, fc) {
				t.Errorf("%s/%s: seeds 7 and 8 gave identical bytes", w.Name, f)
			}
		}
		in, err := loadInputs(w, a)
		if err != nil {
			t.Fatal(err)
		}
		if len(in.Points) != w.Points || len(in.Batches) != w.Batches || in.Oracle.N == 0 {
			t.Fatalf("%s: read back %d points, %d batches", w.Name, len(in.Points), len(in.Batches))
		}
	}
}

func read(t *testing.T, dir, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The text edge list must describe the generated graph exactly: the isolated
// vertices survive the rotation, so the loaded vertex count matches.
func TestSocialTextKeepsEveryVertex(t *testing.T) {
	g := socialGraph(2, 3)
	raw := gen.Social(gen.SocialConfig{GiantVertices: 2000, GiantAvgDeg: 6, SmallComps: 80, SmallMaxSize: 6,
		Isolated: 40, MutualFrac: 0.4, Seed: 3})
	if g.NumVertices() != raw.NumVertices() || g.NumArcs() != raw.NumArcs() {
		t.Fatalf("rotation changed the graph: %d/%d vs %d/%d", g.NumVertices(), g.NumArcs(), raw.NumVertices(), raw.NumArcs())
	}
	if g.OutDegree(graphV(g.NumVertices()-1))+g.InDegree(graphV(g.NumVertices()-1)) == 0 {
		t.Fatal("the highest vertex id is isolated; a text edge list would drop it")
	}
}

// Churn batches delete only arcs that exist when they apply and keep the arc
// count level.
func TestChurnBatchesDeleteLiveArcs(t *testing.T) {
	w := testWorkloads[1]
	g := gen.Random(w.ServeVertices, w.ServeArcs, 5)
	m := newMirror(g)
	live := int(g.NumArcs())
	for i, b := range updateBatches(g, w, 11) {
		for _, a := range b.Ins {
			if m.has(a) {
				t.Fatalf("batch %d inserts existing arc %v", i, a)
			}
		}
		m.apply(batch{Ins: b.Ins})
		for _, a := range b.Del {
			if !m.has(a) {
				t.Fatalf("batch %d deletes absent arc %v", i, a)
			}
			m.apply(batch{Del: [][2]graphV{a}})
		}
		live += len(b.Ins) - len(b.Del)
	}
	if live != int(g.NumArcs()) {
		t.Fatalf("arc count drifted to %d from %d", live, g.NumArcs())
	}
}
