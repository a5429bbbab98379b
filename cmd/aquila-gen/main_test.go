package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"aquila/internal/graph"
)

// TestMain lets the test binary stand in for the aquila-gen command: with
// AQUILA_GEN_RUN_MAIN set it runs main on its arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("AQUILA_GEN_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func aquilaGen(t *testing.T, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "AQUILA_GEN_RUN_MAIN=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("aquila-gen %v: %v\n%s", args, err, out)
	}
}

// TestRegenerateUnderMapping regenerates a container onto the path this
// process has mmap'd, as regenerating the graph under a running daemon does.
// Writing in place would truncate the mapping and fault the next adjacency
// read; the old mapping must stay readable and the new file must load.
func TestRegenerateUnderMapping(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.aqg")
	aquilaGen(t, "-kind", "rmat", "-scale", "10", "-format", "aqg", "-out", path)
	c, err := graph.LoadContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	aquilaGen(t, "-kind", "rmat", "-scale", "10", "-seed", "2", "-format", "aqg", "-out", path)

	arcs := 0
	for u := 0; u < c.Directed.NumVertices(); u++ {
		arcs += len(c.Directed.Out(graph.V(u)))
	}
	if int64(arcs) != c.Directed.NumArcs() {
		t.Fatalf("old mapping reads %d arcs, header says %d", arcs, c.Directed.NumArcs())
	}
	fresh, err := graph.LoadContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Release()
	if fresh.Directed == nil || fresh.Directed.NumVertices() != c.Directed.NumVertices() {
		t.Fatalf("regenerated container does not load as the same-size graph")
	}
}
