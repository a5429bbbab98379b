package cli

import (
	"context"
	"strings"
	"testing"

	"aquila"
)

func TestReplayUpdates(t *testing.T) {
	// Paper graph: components {0..7}, {8..11}, {12,13}. The script bridges
	// them with two batches and interleaves connectivity probes.
	script := `# bridge the paper graph's components
? 0 12
0 8
---
? 1 9
8 12
? 1 13
`
	eng := paperEngine()
	out, err := ReplayUpdates(eng, strings.NewReader(script), 0)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out, "\n")
	want := []string{
		"connected(0, 12) = false",
		"batch 1: 1 edges in, 1 new, 1 merges, 2 components",
		"connected(1, 9) = true",
		"batch 2: 1 edges in, 1 new, 1 merges, 1 components",
		"connected(1, 13) = true",
	}
	if len(lines) != len(want) {
		t.Fatalf("transcript:\n%s\nwant %d lines", out, len(want))
	}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("line %d = %q, want %q", i, lines[i], w)
		}
	}
	if eng.CountCC() != 1 {
		t.Errorf("CountCC = %d after replay, want 1", eng.CountCC())
	}
}

func TestReplayUpdatesAutoBatch(t *testing.T) {
	// Plain edge-list stream with batchSize 2: flushed as ceil(3/2) batches.
	eng := paperEngine()
	out, err := ReplayUpdates(eng, strings.NewReader("0 8\n8 12\n3 12\n"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out, "batch "); got != 2 {
		t.Errorf("transcript has %d batches, want 2:\n%s", got, out)
	}
}

func TestReplayUpdatesErrors(t *testing.T) {
	for _, script := range []string{
		"0\n",        // not a pair
		"0 x\n",      // bad vertex id
		"? 1\n",      // malformed query
		"? 0 999\n",  // out-of-range query endpoint
		"0 999999\n", // out-of-range endpoint (engine rejects on flush)
	} {
		if _, err := ReplayUpdates(paperEngine(), strings.NewReader(script), 0); err == nil {
			t.Errorf("script %q: want error", script)
		}
	}
}

func TestAnswerConnectedPair(t *testing.T) {
	eng := paperEngine()
	if got, err := Answer(context.Background(), eng.Acquire(), "connected=0,5"); err != nil || got != "true" {
		t.Errorf("connected=0,5 = %q, %v", got, err)
	}
	if got, err := Answer(context.Background(), eng.Acquire(), "connected=0,12"); err != nil || got != "false" {
		t.Errorf("connected=0,12 = %q, %v", got, err)
	}
	for _, q := range []string{"connected=0", "connected=0,z", "connected=0,999"} {
		if _, err := Answer(context.Background(), eng.Acquire(), q); err == nil {
			t.Errorf("query %q: want error", q)
		}
	}
	// After an incremental bridge, the pair query sees the merged state.
	if _, err := eng.Apply([]aquila.Edge{{U: 0, V: 12}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := Answer(context.Background(), eng.Acquire(), "connected=0,12"); got != "true" {
		t.Errorf("connected=0,12 after Apply = %q, want true", got)
	}
}
