package main

import (
	"fmt"
	"runtime"
	"time"

	"aquila"
	"aquila/internal/bfs"
	"aquila/internal/bgcc"
	"aquila/internal/bicc"
	"aquila/internal/cc"
	"aquila/internal/cli"
	"aquila/internal/graph"
	"aquila/internal/scc"
	"aquila/internal/stats"
)

// analystQueries are the paper's query categories, in the order each cycle
// asks them. The metric for query q is "<q>_ms".
var analystQueries = []string{"cc", "scc", "bicc", "bgcc", "connected", "largest_scc", "aps"}

// gate counts attempted and failed operations and keeps the first failures.
type gate struct {
	attempted, failed int
	details           []string
}

func (g *gate) check(what string, err error) {
	g.attempted++
	if err != nil {
		g.failed++
		if len(g.details) < 10 {
			g.details = append(g.details, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

func (g *gate) merge(o *gate) {
	g.attempted += o.attempted
	g.failed += o.failed
	for _, d := range o.details {
		if len(g.details) < 10 {
			g.details = append(g.details, d)
		}
	}
}

// analystResult holds one analyst phase's samples.
type analystResult struct {
	setup  []float64            // s, load + NewDirectedEngine per cycle
	query  map[string][]float64 // ms per query category
	cycles int
	gate   gate
	cells  map[string]string // chooser cells the engine resolved
}

// add appends o's samples to a's.
func (a *analystResult) add(o *analystResult) {
	a.setup = append(a.setup, o.setup...)
	for q, xs := range o.query {
		a.query[q] = append(a.query[q], xs...)
	}
	a.cycles += o.cycles
	a.gate.merge(&o.gate)
}

// runAnalyst is the closed loop of one analyst: each cycle loads the graph
// with the CLI loader, builds an engine with default options, and asks one
// query per category, each on a fresh engine so no cache carries over. It
// runs whole cycles until budget is spent, at least minCycles and at most
// maxCycles of them. Every answer is checked against the oracle after its
// timing ends.
//
// The directed engine built at set-up answers cc; scc and largest_scc get
// fresh directed engines; the undirected-view queries (bicc, bgcc,
// connected, aps) run on fresh NewEngine instances over that engine's own
// undirected view — the graph a directed engine runs them on — which saves
// four graph.Undirect passes per cycle without changing the code path timed.
func runAnalyst(path string, or *analystOracle, budget time.Duration, minCycles, maxCycles int, tr *tracer, rt *rtProbe) *analystResult {
	res := &analystResult{query: map[string][]float64{}, cells: map[string]string{}}
	deadline := time.Now().Add(budget)
	for res.cycles < maxCycles && (res.cycles < minCycles || time.Now().Before(deadline)) {
		res.cycles++
		runtime.GC()
		t0 := time.Now()
		lg, err := cli.LoadDirected(path, 0)
		if err != nil {
			res.gate.check("load", err)
			return res
		}
		tLoad := time.Now()
		eng := aquila.NewDirectedEngine(lg.Graph, aquila.Options{})
		tEng := time.Now()
		res.setup = append(res.setup, tEng.Sub(t0).Seconds())
		res.gate.check("load", or.checkGraph(lg.Graph))
		if tr != nil {
			traceLoad(tr, lg, t0, tLoad, tEng)
		}
		und := eng.Undirected()
		for _, q := range analystQueries {
			var e *aquila.Engine
			switch q {
			case "cc":
				e = eng
			case "scc", "largest_scc":
				e = aquila.NewDirectedEngine(lg.Graph, aquila.Options{})
			default:
				e = aquila.NewEngine(und, aquila.Options{})
			}
			runtime.GC()
			if q == "connected" {
				res.query[q] = append(res.query[q], askConnectedBatch(e, or, &res.gate, tr))
				continue
			}
			start := time.Now()
			check := ask(e, q)
			end := time.Now()
			res.query[q] = append(res.query[q], durMs(end.Sub(start)))
			res.gate.check(q, check(or))
			rt.sample()
			if tr != nil {
				replayQuery(tr, tr.add("engine."+q, 0, 0, start, end, false), q, lg.Graph, und)
			}
		}
		if res.cycles == 1 {
			res.cells["cc"] = eng.CCPolicy()
			res.cells["scc"], _ = eng.SCCPolicy()
			res.cells["bicc"] = eng.BiCCPolicy()
		}
		if err := lg.Release(); err != nil {
			res.gate.check("release", err)
		}
	}
	return res
}

// A call to IsConnected is answered in tens of nanoseconds on these graphs
// (the trim scan stops at vertex 0), so a single call would time the clock
// more than the query. One sample asks it connectedRounds times
// connectedBatch times on the fresh engine and is the median batch's time
// divided by connectedBatch; one batch that an interrupt lands in then does
// not move it. IsConnected keeps no cache, so every call is a cold answer.
const (
	connectedBatch  = 1024
	connectedRounds = 32
	connectedCalls  = connectedBatch * connectedRounds
)

func askConnectedBatch(e *aquila.Engine, or *analystOracle, g *gate, tr *tracer) float64 {
	answers := make([]bool, connectedCalls)
	batches := make([]float64, connectedRounds)
	start := time.Now()
	for r := range batches {
		t := time.Now()
		for i := r * connectedBatch; i < (r+1)*connectedBatch; i++ {
			answers[i] = e.IsConnected()
		}
		batches[r] = durMs(time.Since(t))
	}
	end := time.Now()
	for _, a := range answers {
		g.check("connected", or.checkConnected(a))
	}
	if tr != nil {
		replayQuery(tr, tr.add("engine.connected", 0, 0, start, end, false), "connected", nil, e.Undirected())
	}
	return median(batches) / connectedBatch
}

// ask runs query q on e and returns the check of its answer, so the check's
// own cost stays outside the timed call.
func ask(e *aquila.Engine, q string) func(*analystOracle) error {
	switch q {
	case "cc":
		r := e.CC()
		return func(o *analystOracle) error { return o.checkCC(r) }
	case "scc":
		r, err := e.SCC()
		return func(o *analystOracle) error {
			if err != nil {
				return err
			}
			return o.checkSCC(r)
		}
	case "bicc":
		r := e.BiCC()
		return func(o *analystOracle) error { return o.checkBiCC(r, e.Undirected().EdgeEndpoints()) }
	case "bgcc":
		r := e.BgCC()
		return func(o *analystOracle) error { return o.checkBgCC(r) }
	case "largest_scc":
		r, err := e.LargestSCC()
		return func(o *analystOracle) error {
			if err != nil {
				return err
			}
			return o.checkLargestSCC(r)
		}
	case "aps":
		r := e.ArticulationPoints()
		return func(o *analystOracle) error { return o.checkAPs(r) }
	}
	panic("unknown analyst query " + q)
}

// traceLoad records the loader and engine construction spans. Parse, build
// and mmap times are the durations cli.LoadDirected reports; graph.Undirect
// is replayed under engine.new, which calls it internally.
func traceLoad(tr *tracer, lg *cli.LoadedGraph, t0, tLoad, tEng time.Time) {
	load := tr.add("cli.load", 0, 0, t0, tLoad, false)
	if lg.BuildDur == 0 {
		tr.add("graph.mmap", load, 0, t0, t0.Add(lg.ParseDur), false)
	} else {
		tr.add("graph.parse", load, 0, t0, t0.Add(lg.ParseDur), false)
		b := t0.Add(lg.ParseDur)
		tr.add("graph.build", load, 0, b, b.Add(lg.BuildDur), false)
	}
	id := tr.add("engine.new", 0, 0, tLoad, tEng, false)
	runtime.GC()
	tr.timed("graph.undirect", id, true, func() { graph.Undirect(lg.Graph) })
}

// replayQuery re-runs, from the benchmark, the chooser probe and kernel that
// the engine ran inside query q, as replay children of the query's span, and
// records the kernels' work counters. Options mirror the engine defaults. The
// heap is collected first, as it is before the engine's own call, so the
// replay is not charged for collecting the query's garbage.
func replayQuery(tr *tracer, parent int, q string, dir *aquila.Directed, und *aquila.Undirected) {
	runtime.GC()
	switch q {
	case "cc":
		var pol cc.Policy
		tr.timed("stats.cc_probe", parent, true, func() { pol = cc.ChoosePolicy(stats.CheapUndirected(und)) })
		var r *cc.Result
		tr.timed("cc.solve", parent, true, func() { r = cc.Solve(und, pol, cc.Options{Mode: bfs.ModeEnhanced}) })
		tr.label("cell.cc", pol.String())
		tr.count("cc.solves", 1)
		tr.count("cc.sample_merges", float64(r.Stats.SampleMerges))
		tr.count("cc.finish_rows", float64(r.Stats.FinishRows))
		tr.count("cc.largest_by_bfs", float64(r.Stats.LargestByBFS))
	case "scc":
		var pol scc.Policy
		tr.timed("stats.scc_probe", parent, true, func() { pol = scc.ChoosePolicy(stats.ProbeDirected(dir, 0)) })
		var r *scc.Result
		tr.timed("scc.solve", parent, true, func() { r = scc.Solve(dir, pol, scc.Options{Mode: bfs.ModeEnhanced}) })
		tr.label("cell.scc", pol.String())
		tr.count("scc.solves", 1)
		tr.count("scc.trimmed", float64(r.Stats.TrimmedSize1+r.Stats.TrimmedSize2))
		tr.count("scc.giant_size", float64(r.Stats.GiantSize))
		tr.count("scc.coloring_rounds", float64(r.Stats.ColoringRounds))
		tr.count("scc.multireach_rounds", float64(r.Stats.MultiReachRounds))
		tr.count("scc.multireach_pivots", float64(r.Stats.MultiReachPivots))
	case "bicc", "aps":
		pol := replayBiCCProbe(tr, parent, und)
		name := "bicc.solve"
		if q == "aps" {
			name = "bicc.aponly"
		}
		var r *bicc.Result
		tr.timed(name, parent, true, func() {
			r = bicc.Solve(und, pol, bicc.Options{Mode: bfs.ModeEnhanced, APOnly: q == "aps"})
		})
		countBiCC(tr, r)
	case "bgcc":
		var r *bgcc.Result
		tr.timed("bgcc.solve", parent, true, func() { r = bgcc.Run(und, bgcc.Options{Mode: bfs.ModeEnhanced}) })
		tr.count("bgcc.solves", 1)
		tr.count("bgcc.ran", float64(r.Stats.Ran))
		tr.count("bgcc.skipped_spo", float64(r.Stats.SkippedSPO))
		tr.count("bgcc.bridges", float64(r.Stats.Bridges))
	case "largest_scc":
		// LargestSCC is one forward and one backward sweep from the
		// max-out-degree pivot.
		m := dir.MaxOutDegreeVertex()
		tr.timed("bfs.reach", parent, true, func() {
			bfs.EnhancedReach(bfs.ForwardAdj(dir), m, nil, bfs.Options{}, bfs.ModeEnhanced)
		})
		tr.timed("bfs.reach", parent, true, func() {
			bfs.EnhancedReach(bfs.BackwardAdj(dir), m, nil, bfs.Options{}, bfs.ModeEnhanced)
		})
	case "connected":
		// On graphs with an isolated vertex IsConnected is answered by its
		// trim scan and runs no traversal; the undirected sweep from the
		// max-degree pivot (the LargestCC path) is recorded on its own, not
		// as a child of the query.
		tr.timed("bfs.reach", 0, false, func() {
			bfs.EnhancedReach(bfs.UndirectedAdj(und), und.MaxDegreeVertex(), nil, bfs.Options{}, bfs.ModeEnhanced)
		})
	}
}

func replayBiCCProbe(tr *tracer, parent int, und *aquila.Undirected) bicc.Policy {
	var pol bicc.Policy
	tr.timed("stats.bicc_probe", parent, true, func() { pol = bicc.ChoosePolicy(stats.ProbeUndirected(und)) })
	tr.label("cell.bicc", pol.String())
	return pol
}

func countBiCC(tr *tracer, r *bicc.Result) {
	tr.count("bicc.solves", 1)
	tr.count("bicc.candidates", float64(r.Stats.Candidates))
	tr.count("bicc.ran", float64(r.Stats.Ran))
	tr.count("bicc.skipped_trim", float64(r.Stats.SkippedTrim))
	tr.count("bicc.skipped_spo", float64(r.Stats.SkippedSPO))
	tr.count("bicc.positive_checks", float64(r.Stats.PositiveChecks))
}
