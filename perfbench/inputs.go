package main

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"aquila"
	"aquila/internal/gen"
	"aquila/internal/graph"
)

// workload holds every parameter of one workload. All of them are recorded in
// the run metadata.
type workload struct {
	Name string `json:"name"`

	// Analyst graph: gen.Social at the CLI's "-gen social -scale S" shape,
	// written as a text edge list.
	SocialScale int `json:"social_scale,omitempty"`

	// Serving graph: gen.Random(ServeVertices, ServeArcs), written as .aqg.
	ServeVertices int `json:"serve_vertices,omitempty"`
	ServeArcs     int `json:"serve_arcs,omitempty"`

	// Serving traffic.
	ReadRate   float64       `json:"read_rate,omitempty"`   // point reads per second, open loop
	BatchOps   int           `json:"batch_ops,omitempty"`   // ops per POST /v1/apply
	ApplyEvery time.Duration `json:"apply_every,omitempty"` // writer cadence
	Churn      bool          `json:"churn,omitempty"`       // batches delete as many edges as they insert; cold /v1/bicc after each publish

	// Apply + cold /v1/bicc pairs after the serving window, where the
	// window's own traffic asks no /v1/bicc.
	ColdBiCCProbes int `json:"cold_bicc_probes,omitempty"`
	Batches        int `json:"batches"` // batches pre-generated (setup ones included)
	Points         int `json:"points"`  // point pairs pre-generated (reused cyclically)
}

// workloads are the benchmark's traffic mixes; README.md says why each exists.
var workloads = map[string]workload{
	"analyst": {
		Name: "analyst", SocialScale: 200,
		// Secondary serving phase on the social graph (see report.go).
		ReadRate: 2000, BatchOps: 500, ApplyEvery: 40 * time.Millisecond,
		ColdBiCCProbes: 4, Batches: 300, Points: 1 << 16,
	},
	"serve-stream": {
		Name: "serve-stream", ServeVertices: 60000, ServeArcs: 120000,
		ReadRate: 2000, BatchOps: 1000, ApplyEvery: 50 * time.Millisecond,
		ColdBiCCProbes: 10, Batches: 600, Points: 1 << 16,
	},
	"serve-churn": {
		Name: "serve-churn", ServeVertices: 60000, ServeArcs: 120000,
		ReadRate: 1000, BatchOps: 500, ApplyEvery: 100 * time.Millisecond, Churn: true,
		Batches: 400, Points: 1 << 16,
	},
}

// batch is one POST /v1/apply body: inserts apply before deletes.
type batch struct {
	Ins, Del [][2]aquila.V
}

func (b batch) ops() int { return len(b.Ins) + len(b.Del) }

// inputs is everything a run feeds the program, all derived from the seed.
type inputs struct {
	GraphPath string
	Points    [][2]aquila.V
	Batches   []batch
	Oracle    *analystOracle
}

// Input file names inside a run's work directory.
const (
	fileText    = "graph.txt"
	fileAQG     = "graph.aqg"
	filePoints  = "points.bin"
	fileBatches = "batches.bin"
	fileOracle  = "oracle.gob"
)

// subSeed derives an independent stream seed from the run seed (splitmix64).
func subSeed(seed uint64, stream uint64) uint64 {
	z := seed + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// socialGraph generates the analyst graph. gen.Social puts its isolated
// vertices at the top of the id range, where a text edge list (vertex count
// = max id + 1) would drop them, so ids are rotated to move that block to the
// bottom; everything else keeps its id order and locality.
func socialGraph(scale int, seed uint64) *graph.Directed {
	cfg := gen.SocialConfig{
		GiantVertices: scale * 1000, GiantAvgDeg: 6,
		SmallComps: scale * 40, SmallMaxSize: 6,
		Isolated: scale * 20, MutualFrac: 0.4, Seed: seed,
	}
	return rotate(gen.Social(cfg), cfg.Isolated)
}

// servingGraph generates the serving graph, rotated like the analyst graph
// so that vertex 0 is isolated: the small-XCC query's trim scan then stops
// at the same vertex for every seed instead of at a seed-dependent one.
func servingGraph(n, m int, seed uint64) *graph.Directed {
	g := gen.Random(n, m, seed)
	for v := 0; v < n; v++ {
		if g.OutDegree(graph.V(v))+g.InDegree(graph.V(v)) == 0 {
			return rotate(g, n-v)
		}
	}
	return g
}

// rotate relabels every vertex v as (v+k) mod n.
func rotate(g *graph.Directed, k int) *graph.Directed {
	n := g.NumVertices()
	edges := make([]graph.Edge, 0, g.NumArcs())
	for u := 0; u < n; u++ {
		for _, v := range g.Out(graph.V(u)) {
			edges = append(edges, graph.Edge{U: graph.V((u + k) % n), V: graph.V((int(v) + k) % n)})
		}
	}
	return graph.BuildDirected(n, edges)
}

// prepare writes a workload's input files for seed into dir: the graph, the
// point-read pairs, the update batches, and the oracle's answers for the
// analyst queries on the graph. It runs in its own process (see main.go) so
// the generators' and oracle's memory never counts toward the measured
// process's peak RSS.
func prepare(w workload, seed uint64, dir string) error {
	var g *graph.Directed
	var graphFile string
	if w.SocialScale > 0 {
		g = socialGraph(w.SocialScale, subSeed(seed, 1))
		graphFile = fileText
	} else {
		g = servingGraph(w.ServeVertices, w.ServeArcs, subSeed(seed, 1))
		graphFile = fileAQG
	}
	if err := writeFile(filepath.Join(dir, graphFile), func(wr io.Writer) error {
		if graphFile == fileText {
			return graph.WriteEdgeList(wr, g)
		}
		return graph.WriteContainer(wr, g)
	}); err != nil {
		return err
	}
	pts := pointPairs(g.NumVertices(), w.Points, subSeed(seed, 2))
	if err := writeFile(filepath.Join(dir, filePoints), func(wr io.Writer) error { return encodePairs(wr, pts) }); err != nil {
		return err
	}
	bs := updateBatches(g, w, subSeed(seed, 3))
	if err := writeFile(filepath.Join(dir, fileBatches), func(wr io.Writer) error { return encodeBatches(wr, bs) }); err != nil {
		return err
	}
	or := computeAnalystOracle(g)
	return writeFile(filepath.Join(dir, fileOracle), func(wr io.Writer) error { return gob.NewEncoder(wr).Encode(or) })
}

// loadInputs reads back what prepare wrote.
func loadInputs(w workload, dir string) (*inputs, error) {
	in := &inputs{GraphPath: filepath.Join(dir, fileAQG)}
	if w.SocialScale > 0 {
		in.GraphPath = filepath.Join(dir, fileText)
	}
	var err error
	if in.Points, err = readFileWith(filepath.Join(dir, filePoints), decodePairs); err != nil {
		return nil, err
	}
	if in.Batches, err = readFileWith(filepath.Join(dir, fileBatches), decodeBatches); err != nil {
		return nil, err
	}
	in.Oracle, err = readFileWith(filepath.Join(dir, fileOracle), func(r io.Reader) (*analystOracle, error) {
		var o analystOracle
		err := gob.NewDecoder(r).Decode(&o)
		return &o, err
	})
	if err != nil {
		return nil, err
	}
	return in, nil
}

// pointPairs draws uniform vertex pairs for GET /v1/connected.
func pointPairs(n, count int, seed uint64) [][2]aquila.V {
	rng := gen.NewRNG(seed)
	out := make([][2]aquila.V, count)
	for i := range out {
		out[i] = [2]aquila.V{aquila.V(rng.Intn(n)), aquila.V(rng.Intn(n))}
	}
	return out
}

// updateBatches pre-generates the writer's batches. Insert-only workloads add
// uniform random arcs. Churn batches insert and delete BatchOps/2 arcs each:
// the deletes pick uniformly among arcs present at that point of the stream
// (the generator replays the stream on its own arc set), so the arc count
// stays level and every delete removes a real edge. The first churn batch is
// the one that promotes the engine to the dynamic forest during set-up.
func updateBatches(g *graph.Directed, w workload, seed uint64) []batch {
	rng := gen.NewRNG(seed)
	n := g.NumVertices()
	randArc := func() [2]aquila.V {
		for {
			u, v := aquila.V(rng.Intn(n)), aquila.V(rng.Intn(n))
			if u != v {
				return [2]aquila.V{u, v}
			}
		}
	}
	out := make([]batch, w.Batches)
	if !w.Churn {
		for i := range out {
			out[i].Ins = make([][2]aquila.V, w.BatchOps)
			for j := range out[i].Ins {
				out[i].Ins[j] = randArc()
			}
		}
		return out
	}
	// Live arc set with O(1) uniform removal.
	var arcs [][2]aquila.V
	index := map[[2]aquila.V]int{}
	for u := 0; u < n; u++ {
		for _, v := range g.Out(graph.V(u)) {
			index[[2]aquila.V{aquila.V(u), v}] = len(arcs)
			arcs = append(arcs, [2]aquila.V{aquila.V(u), v})
		}
	}
	half := w.BatchOps / 2
	for i := range out {
		for len(out[i].Ins) < half {
			a := randArc()
			if _, ok := index[a]; ok {
				continue
			}
			index[a] = len(arcs)
			arcs = append(arcs, a)
			out[i].Ins = append(out[i].Ins, a)
		}
		// Deletes apply after the batch's inserts, so they may pick them.
		for len(out[i].Del) < half {
			j := rng.Intn(len(arcs))
			a := arcs[j]
			last := arcs[len(arcs)-1]
			arcs[j] = last
			index[last] = j
			arcs = arcs[:len(arcs)-1]
			delete(index, a)
			out[i].Del = append(out[i].Del, a)
		}
	}
	return out
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := write(bw); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func readFileWith[T any](path string, decode func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	v, err := decode(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return v, fmt.Errorf("read %s: %w", path, err)
	}
	return v, nil
}

// Streams are little-endian uint32 words: a count, then the pairs; batches
// are a count, then per batch the insert and delete counts and their pairs.

func encodePairs(w io.Writer, ps [][2]aquila.V) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(ps))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, ps)
}

func decodePairs(r io.Reader) ([][2]aquila.V, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	ps := make([][2]aquila.V, n)
	return ps, binary.Read(r, binary.LittleEndian, ps)
}

func encodeBatches(w io.Writer, bs []batch) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(bs))); err != nil {
		return err
	}
	for _, b := range bs {
		if err := encodePairs(w, b.Ins); err != nil {
			return err
		}
		if err := encodePairs(w, b.Del); err != nil {
			return err
		}
	}
	return nil
}

func decodeBatches(r io.Reader) ([]batch, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	bs := make([]batch, n)
	for i := range bs {
		var err error
		if bs[i].Ins, err = decodePairs(r); err != nil {
			return nil, err
		}
		if bs[i].Del, err = decodePairs(r); err != nil {
			return nil, err
		}
	}
	return bs, nil
}
