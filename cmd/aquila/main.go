// Command aquila answers graph connectivity queries from the command line —
// the paper's framework as a tool: load (or generate) a graph, state a query,
// and Aquila classifies it (complete / largest / small / AP-bridge) and picks
// the computation strategy.
//
// Usage:
//
//	aquila -graph edges.txt -query connected
//	aquila -gen rmat -scale 12 -query num-scc
//	aquila -graph edges.txt -query aps -verbose
//	aquila -graph base.txt -updates stream.txt -batch 1000 -query num-cc
//
// Queries: connected, connected=<u>,<v>, strongly-connected, num-cc,
// num-scc, num-bicc, num-bgcc, largest-cc, largest-scc, in-largest-cc=<v>,
// aps, bridges, histogram, stats, cc-policy, scc-policy, bicc-policy —
// answered the same way with or without -serve.
//
// -cc-policy selects the connected-components matrix cell, -scc-policy the
// strongly-connected-components cell, and -bicc-policy the biconnected-
// components cell ("auto" picks one adaptively from graph statistics; see
// the README's "Algorithm matrix" section for the cells).
//
// With -updates, the file is replayed as batches of edge insertions (`u v`
// lines) and deletions (`- u v` lines) before the query runs. Insert-only
// scripts go through the incremental connectivity layer; the first batch
// containing a delete promotes the engine to the fully dynamic spanning
// forest. See internal/cli.ReplayUpdates for the script format.
//
// With -serve, updates and queries go through the concurrent serving layer
// instead: every batch publishes a new epoch, every answer comes from a
// pinned snapshot, and the script gains `pin` / `?? u v` directives that
// query a pinned past epoch (see internal/cli.ReplayServed). -timeout sets a
// per-query deadline.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"aquila"
	"aquila/internal/cli"
	"aquila/internal/gen"
)

func main() {
	var (
		graphPath  = flag.String("graph", "", "edge-list file (whitespace-separated 'u v' lines)")
		genKind    = flag.String("gen", "", "generate instead of loading: rmat, random, social")
		scale      = flag.Int("scale", 12, "generator scale (rmat: log2 vertices; others: vertex count /1000)")
		seed       = flag.Uint64("seed", 1, "generator seed")
		query      = flag.String("query", "num-cc", "query to answer")
		updates    = flag.String("updates", "", "update script replayed as batches before the query (u v inserts, '- u v' deletes)")
		batchSize  = flag.Int("batch", 0, "auto-flush update batches every N ops (0 = explicit separators only)")
		rebuild    = flag.Float64("rebuild-threshold", 0, "delta/base edge ratio forcing a static rebuild (0 = default 0.25, <0 = never)")
		threads    = flag.Int("threads", 0, "worker count (0 = GOMAXPROCS)")
		ccPolicy   = flag.String("cc-policy", "auto", "CC algorithm matrix cell: auto, pipeline, or sampling+finish (e.g. afforest+uf-async); see the cc-policy query")
		sccPolicy  = flag.String("scc-policy", "auto", "SCC algorithm matrix cell: auto, coloring, multireach, or fwbw; see the scc-policy query")
		biccPolicy = flag.String("bicc-policy", "auto", "BiCC algorithm matrix cell: auto, constrained, or skeleton; see the bicc-policy query")
		reorder    = flag.String("reorder", "none", "cache-aware vertex reordering: none, degree, bfs")
		noPartial  = flag.Bool("no-partial", false, "disable query transformation (always complete computation)")
		serve      = flag.Bool("serve", false, "route updates and queries through the concurrent serving layer (snapshot isolation, singleflight, admission control)")
		timeout    = flag.Duration("timeout", 0, "per-query deadline in serve mode (0 = none)")
		saveBin    = flag.String("save-bin", "", "write the loaded graph as an .aqg v2 container to this path and continue")
		verbose    = flag.Bool("verbose", false, "print strategy and timing details")
		explain    = flag.Bool("explain", false, "print the query classification and strategy before answering")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the query to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile (after the query) to this file")
	)
	flag.Parse()

	if *explain {
		text, err := cli.Explain(*query)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aquila:", err)
			os.Exit(1)
		}
		fmt.Println(text)
	}

	reorderMode, err := parseReorder(*reorder)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aquila:", err)
		os.Exit(1)
	}

	if err := aquila.ValidateCCPolicy(*ccPolicy); err != nil {
		fmt.Fprintln(os.Stderr, "aquila:", err)
		os.Exit(1)
	}
	if err := aquila.ValidateSCCPolicy(*sccPolicy); err != nil {
		fmt.Fprintln(os.Stderr, "aquila:", err)
		os.Exit(1)
	}
	if err := aquila.ValidateBiCCPolicy(*biccPolicy); err != nil {
		fmt.Fprintln(os.Stderr, "aquila:", err)
		os.Exit(1)
	}

	g, parseDur, buildDur, err := obtainGraph(*graphPath, *genKind, *scale, *seed, *threads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aquila:", err)
		os.Exit(1)
	}
	if *verbose {
		fmt.Printf("graph: %d vertices, %d arcs\n", g.NumVertices(), g.NumArcs())
	}
	if *saveBin != "" {
		if err := saveContainer(g, *saveBin); err != nil {
			fmt.Fprintln(os.Stderr, "aquila:", err)
			os.Exit(1)
		}
		if *verbose {
			fmt.Printf("saved .aqg container to %s\n", *saveBin)
		}
	}
	eng := aquila.NewDirectedEngine(g, aquila.Options{
		Threads:          *threads,
		Reorder:          reorderMode,
		DisablePartial:   *noPartial,
		RebuildThreshold: *rebuild,
		CCPolicy:         *ccPolicy,
		SCCPolicy:        *sccPolicy,
		BiCCPolicy:       *biccPolicy,
	})
	var srv *aquila.Server
	if *serve {
		srv = aquila.NewServer(eng, aquila.ServerConfig{DefaultTimeout: *timeout})
	}
	if *updates != "" {
		f, err := os.Open(*updates)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aquila:", err)
			os.Exit(1)
		}
		var transcript string
		if srv != nil {
			transcript, err = cli.ReplayServed(srv, f, *batchSize)
		} else {
			transcript, err = cli.ReplayUpdates(eng, f, *batchSize)
		}
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "aquila:", err)
			os.Exit(1)
		}
		if transcript != "" {
			fmt.Println(transcript)
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aquila:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "aquila:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	start := time.Now()
	// With -serve the engine's snapshots are the server's: gated, with the
	// -timeout default.
	out, err := cli.Answer(context.Background(), eng.Acquire(), *query)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aquila:", err)
		os.Exit(1)
	}
	fmt.Println(out)
	if *verbose {
		fmt.Printf("answered in %v\n", elapsed)
		fmt.Printf("phases: parse=%v build=%v query=%v\n", parseDur, buildDur, elapsed)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aquila:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // flush recently-freed objects so the profile shows live heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "aquila:", err)
			os.Exit(1)
		}
	}
}

func parseReorder(s string) (aquila.Reorder, error) {
	switch s {
	case "", "none":
		return aquila.ReorderNone, nil
	case "degree":
		return aquila.ReorderDegree, nil
	case "bfs":
		return aquila.ReorderBFS, nil
	default:
		return aquila.ReorderNone, fmt.Errorf("unknown reorder mode %q (want none, degree, bfs)", s)
	}
}

// saveContainer writes g as an .aqg v2 container through a renamed temp
// file, so path may be the very container g is mmap'd from.
func saveContainer(g *aquila.Directed, path string) error {
	return cli.WriteFileAtomic(path, func(w io.Writer) error { return aquila.WriteContainer(w, g) })
}

// obtainGraph loads or generates the input and reports how long the parse
// and CSR-build phases took (generators count as build; parse is then zero).
// File loading goes through cli.LoadDirected, which auto-detects .aqg v2
// containers (mmap'd), legacy v1 binaries, and the text formats by content
// and extension.
func obtainGraph(path, kind string, scale int, seed uint64, threads int) (*aquila.Directed, time.Duration, time.Duration, error) {
	if path != "" {
		lg, err := cli.LoadDirected(path, threads)
		if err != nil {
			return nil, 0, 0, err
		}
		return lg.Graph, lg.ParseDur, lg.BuildDur, nil
	}
	genStart := time.Now()
	var g *aquila.Directed
	switch kind {
	case "rmat":
		g = gen.RMAT(scale, 16, seed)
	case "random":
		n := scale * 1000
		g = gen.Random(n, 16*n, seed)
	case "social":
		g = gen.Social(gen.SocialConfig{
			GiantVertices: scale * 1000, GiantAvgDeg: 6,
			SmallComps: scale * 40, SmallMaxSize: 6,
			Isolated: scale * 20, MutualFrac: 0.4, Seed: seed,
		})
	case "":
		return nil, 0, 0, fmt.Errorf("need -graph FILE or -gen KIND")
	default:
		return nil, 0, 0, fmt.Errorf("unknown generator %q", kind)
	}
	return g, 0, time.Since(genStart), nil
}
