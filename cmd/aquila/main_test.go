package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the aquila command: with
// AQUILA_RUN_MAIN set it runs main on its arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("AQUILA_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runAquila runs the command in a subprocess, failing the test unless it exits
// 0 (a fault on a truncated mapping kills the process with a signal).
func runAquila(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "AQUILA_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("aquila %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestSaveBinOntoMappedSource is the regression for -save-bin onto the
// container the graph was mmap'd from: writing in place truncated the mapping
// under the running process (SIGBUS) and left a 0-byte file. The command must
// exit 0 and the rewritten file must load and answer as before.
func TestSaveBinOntoMappedSource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.aqg")
	want := runAquila(t, "-gen", "rmat", "-scale", "10", "-save-bin", path, "-query", "num-cc")
	if got := runAquila(t, "-graph", path, "-save-bin", path, "-query", "num-cc"); got != want {
		t.Fatalf("same-path -save-bin answered %q, want %q", got, want)
	}
	if got := runAquila(t, "-graph", path, "-query", "num-cc"); got != want {
		t.Fatalf("rewritten container answered %q, want %q", got, want)
	}
	matches, _ := filepath.Glob(filepath.Join(filepath.Dir(path), ".*tmp*"))
	if len(matches) != 0 {
		t.Fatalf("temporary files left behind: %v", matches)
	}
}
