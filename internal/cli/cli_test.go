package cli

import (
	"context"
	"strings"
	"testing"

	"aquila"
	"aquila/internal/gen"
)

func paperEngine() *aquila.Engine {
	return aquila.NewDirectedEngine(gen.PaperExample(), aquila.Options{Threads: 2})
}

func TestAnswerAllQueries(t *testing.T) {
	eng := paperEngine()
	want := map[string]string{
		"connected":          "false",
		"strongly-connected": "false",
		"num-cc":             "3 connected components",
		"num-scc":            "6 strongly connected components",
		"num-bicc":           "6 biconnected components",
		"num-bgcc":           "6 bridgeless connected components",
		"largest-scc":        "largest SCC: 7 vertices",
		"in-largest-cc=5":    "true",
		"in-largest-cc=13":   "false",
	}
	for q, expect := range want {
		got, err := Answer(context.Background(), eng.Acquire(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got != expect {
			t.Errorf("%s = %q, want %q", q, got, expect)
		}
	}
}

func TestAnswerLargestCC(t *testing.T) {
	got, err := Answer(context.Background(), paperEngine().Acquire(), "largest-cc")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "8 vertices") || !strings.Contains(got, "partial") {
		t.Errorf("largest-cc = %q", got)
	}
}

func TestAnswerCCPolicy(t *testing.T) {
	// The paper example is tiny, so the auto chooser resolves to the pipeline
	// cell.
	got, err := Answer(context.Background(), paperEngine().Acquire(), "cc-policy")
	if err != nil {
		t.Fatal(err)
	}
	if got != "cc policy: none+hybrid-bfs" {
		t.Errorf("cc-policy = %q", got)
	}
	// An engine pinned to an explicit cell reports that cell verbatim.
	eng := aquila.NewDirectedEngine(gen.PaperExample(),
		aquila.Options{Threads: 2, CCPolicy: "afforest+uf-rem"})
	if got, _ := Answer(context.Background(), eng.Acquire(), "cc-policy"); got != "cc policy: afforest+uf-rem" {
		t.Errorf("explicit cc-policy = %q", got)
	}
	if out, err := Explain("cc-policy"); err != nil || !strings.Contains(out, "diagnostic") {
		t.Errorf("Explain(cc-policy) = %q, %v", out, err)
	}
}

func TestAnswerSCCPolicy(t *testing.T) {
	// The paper example is tiny, so the auto chooser resolves to the coloring
	// pipeline.
	got, err := Answer(context.Background(), paperEngine().Acquire(), "scc-policy")
	if err != nil {
		t.Fatal(err)
	}
	if got != "scc policy: coloring" {
		t.Errorf("scc-policy = %q", got)
	}
	// An engine pinned to an explicit cell reports that cell verbatim.
	eng := aquila.NewDirectedEngine(gen.PaperExample(),
		aquila.Options{Threads: 2, SCCPolicy: "multireach"})
	if got, _ := Answer(context.Background(), eng.Acquire(), "scc-policy"); got != "scc policy: multireach" {
		t.Errorf("explicit scc-policy = %q", got)
	}
	// Undirected engines have no SCC matrix to resolve.
	und := aquila.NewEngine(gen.PaperExampleUndirected(), aquila.Options{})
	if _, err := Answer(context.Background(), und.Acquire(), "scc-policy"); err == nil {
		t.Errorf("scc-policy on undirected engine: want error")
	}
	if out, err := Explain("scc-policy"); err != nil || !strings.Contains(out, "diagnostic") {
		t.Errorf("Explain(scc-policy) = %q, %v", out, err)
	}
}

func TestAnswerAPsAndBridges(t *testing.T) {
	eng := paperEngine()
	got, _ := Answer(context.Background(), eng.Acquire(), "aps")
	if !strings.HasPrefix(got, "2 articulation points") {
		t.Errorf("aps = %q", got)
	}
	got, _ = Answer(context.Background(), eng.Acquire(), "bridges")
	if !strings.HasPrefix(got, "3 bridges") {
		t.Errorf("bridges = %q", got)
	}
}

func TestAnswerHistogram(t *testing.T) {
	got, err := Answer(context.Background(), paperEngine().Acquire(), "histogram")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"3 distinct sizes", "size        2", "size        4", "size        8"} {
		if !strings.Contains(got, frag) {
			t.Errorf("histogram missing %q:\n%s", frag, got)
		}
	}
}

func TestAnswerErrors(t *testing.T) {
	eng := paperEngine()
	for _, q := range []string{"nonsense", "in-largest-cc=abc", "in-largest-cc=999"} {
		if _, err := Answer(context.Background(), eng.Acquire(), q); err == nil {
			t.Errorf("query %q: want error", q)
		}
	}
	// SCC queries on an undirected engine propagate ErrNotDirected.
	und := aquila.NewEngine(gen.PaperExampleUndirected(), aquila.Options{})
	if _, err := Answer(context.Background(), und.Acquire(), "num-scc"); err == nil {
		t.Errorf("num-scc on undirected engine: want error")
	}
}
