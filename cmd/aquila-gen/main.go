// Command aquila-gen writes synthetic benchmark graphs to disk, either as
// plain edge lists or as mmap-able .aqg v2 binary containers.
//
// Usage:
//
//	aquila-gen -kind rmat -scale 14 -out rmat14.txt
//	aquila-gen -kind social -scale 10 -format aqg -out social.aqg
//	aquila-gen -kind suite -out-dir graphs/      # the 11 Table 1 stand-ins
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"aquila/internal/bench"
	"aquila/internal/cli"
	"aquila/internal/gen"
	"aquila/internal/graph"
)

func main() {
	var (
		kind   = flag.String("kind", "rmat", "rmat, random, social, web, suite")
		scale  = flag.Int("scale", 12, "generator scale")
		seed   = flag.Uint64("seed", 1, "generator seed")
		format = flag.String("format", "txt", "txt (edge list), aqg (mmap-able v2 container), or bin (same as aqg)")
		out    = flag.String("out", "", "output file (single graph)")
		outDir = flag.String("out-dir", "", "output directory (suite)")
	)
	flag.Parse()

	if *kind == "suite" {
		if *outDir == "" {
			fatal("suite needs -out-dir")
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err.Error())
		}
		for _, w := range bench.Suite(1.0) {
			path := filepath.Join(*outDir, w.Abbr+"."+*format)
			if err := writeGraph(w.G, path, *format); err != nil {
				fatal(err.Error())
			}
			fmt.Printf("%s: %d vertices, %d arcs -> %s\n", w.Name, w.G.NumVertices(), w.G.NumArcs(), path)
		}
		return
	}

	var g *graph.Directed
	switch *kind {
	case "rmat":
		g = gen.RMAT(*scale, 16, *seed)
	case "random":
		n := *scale * 1000
		g = gen.Random(n, 16*n, *seed)
	case "social":
		g = gen.Social(gen.SocialConfig{
			GiantVertices: *scale * 1000, GiantAvgDeg: 6,
			SmallComps: *scale * 40, SmallMaxSize: 6,
			Isolated: *scale * 20, MutualFrac: 0.4, Seed: *seed,
		})
	case "web":
		g = gen.Web(gen.WebConfig{
			Communities: *scale * 4, CommunitySize: 250, IntraDeg: 5,
			InterEdges: *scale * 200, PendantFrac: 0.1, Seed: *seed,
		})
	default:
		fatal("unknown kind " + *kind)
	}
	if *out == "" {
		fatal("need -out FILE")
	}
	if err := writeGraph(g, *out, *format); err != nil {
		fatal(err.Error())
	}
	fmt.Printf("%d vertices, %d arcs -> %s\n", g.NumVertices(), g.NumArcs(), *out)
}

// writeGraph writes through a renamed temp file, so regenerating a graph a
// running process has mmap'd leaves that process's mapping intact.
func writeGraph(g *graph.Directed, path, format string) error {
	return cli.WriteFileAtomic(path, func(w io.Writer) error {
		switch format {
		case "bin", "aqg":
			// Binary output is the .aqg v2 container: versioned,
			// page-aligned, mmap-able, and readable by every command's
			// auto-detecting loader (legacy v1 files remain readable, just
			// no longer written).
			return graph.WriteContainer(w, g)
		default:
			return graph.WriteEdgeList(w, g)
		}
	})
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "aquila-gen:", msg)
	os.Exit(1)
}
