package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// measurement is one pass over a workload: its main phase and, in the
// untraced run, its secondary phase.
type measurement struct {
	w       workload
	inputMB float64
	analyst *analystResult
	serve   *serveResult
	rt      rtReport
	rss     float64 // peak RSS of the process at the end of the main phase
	gate    gate
	cells   map[string]string
}

// Phases. Every workload reports every end-to-end metric; where a metric's
// path is not the workload's own, a secondary phase measures it on the
// workload's graph. The main phase takes mainShare of --seconds and the
// secondary phase secondaryShare. On the serving workloads the secondary
// phase runs in two halves, one before the main phase and one after it, so
// that it samples the host at two times of the run; on analyst it runs after
// the main phase, whose peak RSS a served social graph would exceed. The
// traced pass runs the main phase alone, so per-layer numbers describe it.
const (
	mainShare      = 0.6
	secondaryShare = 0.25
)

// share is the part of the run's --seconds a phase gets.
func share(seconds time.Duration, f float64) time.Duration {
	return time.Duration(f * float64(seconds))
}

// Point p99 and apply p90 are taken per part of the window — up to
// pointParts parts of at least pointPart reads (a p99 with 20 reads beyond
// it), up to applyParts parts of at least applyPart applies (4 beyond it) —
// and reported as the interquartile mean over the parts.
const (
	pointPart  = 2000
	pointParts = 40
	applyPart  = 40
	applyParts = 8
)

// serveSetups is how many times a serving workload boots its stack; setup_s
// is taken over them.
const serveSetups = 5

func measure(w workload, in *inputs, seconds time.Duration, tr *tracer, secondary bool) *measurement {
	m := &measurement{w: w, inputMB: fileMB(in.GraphPath)}
	rt := newRTProbe()
	main, second := share(seconds, mainShare), share(seconds, secondaryShare)
	if w.SocialScale > 0 {
		m.analyst = runAnalyst(in.GraphPath, in.Oracle, main, 3, 1<<30, tr, rt)
		m.rss = peakRSSMB()
		m.rt = rt.report()
		if secondary {
			in.Oracle = nil // its last use; the serving phase's heap should not carry it
			m.serve = runServing(loadFn(in.GraphPath), in, servePlan{
				setups: 1, window: second, readRate: w.ReadRate, applyEvery: w.ApplyEvery,
				satBursts: 2, biccAfter: w.ColdBiCCProbes}, nil, nil)
		}
	} else {
		// The first analyst half peaks far below the serving phase, so the
		// peak RSS at the end of the window is the main phase's.
		if secondary {
			m.analyst = runAnalyst(in.GraphPath, in.Oracle, second/2, 2, 1<<30, nil, nil)
		}
		plan := servePlan{setups: serveSetups, window: main, readRate: w.ReadRate, applyEvery: w.ApplyEvery,
			coldBiCC: w.Churn}
		if !w.Churn || secondary {
			plan.satBursts = 2
		}
		if secondary {
			plan.biccAfter = w.ColdBiCCProbes
		}
		m.serve = runServing(loadFn(in.GraphPath), in, plan, tr, rt)
		m.rss = m.serve.rssMB
		m.rt = rt.report()
		if secondary {
			m.analyst.add(runAnalyst(in.GraphPath, in.Oracle, second/2, 2, 1<<30, nil, nil))
		}
	}
	if m.serve != nil {
		m.gate.merge(&m.serve.gate)
		m.cells = m.serve.cells
	}
	if m.analyst != nil {
		m.gate.merge(&m.analyst.gate)
		m.cells = m.analyst.cells
	}
	return m
}

// sampleInfo is the evidence behind one reported value.
type sampleInfo struct {
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond,omitempty"` // samples beyond a percentile
	Source  string  `json:"source"`           // "main" or "secondary" phase
}

// endToEndMetrics are the metrics of the result line with --trace 0, in
// BENCHMARK.json order.
var endToEndMetrics = []string{
	"setup_s", "success_ratio", "rss_peak_mb",
	"cc_ms", "scc_ms", "bicc_ms", "bgcc_ms", "connected_ms", "largest_scc_ms", "aps_ms",
	"apply_p50_ms", "point_max_qps", "cold_bicc_ms",
}

// endToEnd computes the end-to-end metrics, and the evidence behind every
// value it has data for — point_p50_us, point_p99_us and apply_p90_ms
// included, which the result line leaves to the traced run's per-layer
// metrics (see README.md).
func (m *measurement) endToEnd() (map[string]metricOut, map[string]sampleInfo) {
	info := map[string]sampleInfo{}
	analystMain := m.w.SocialScale > 0
	src := func(main bool) string {
		if main {
			return "main"
		}
		return "secondary"
	}
	put := func(name, unit string, v float64, n, beyond int, main bool) {
		info[name] = sampleInfo{Unit: unit, Value: v, Samples: n, Beyond: beyond, Source: src(main)}
	}
	if analystMain {
		put("setup_s", "s", iqm(m.analyst.setup), len(m.analyst.setup), 0, true)
	} else {
		put("setup_s", "s", iqm(m.serve.setup), len(m.serve.setup), 0, true)
	}
	put("success_ratio", "ratio", 1-float64(m.gate.failed)/float64(max(1, m.gate.attempted)), m.gate.attempted, 0, true)
	put("rss_peak_mb", "MB", m.rss, 1, 0, true)
	if a := m.analyst; a != nil {
		for _, q := range analystQueries {
			put(q+"_ms", "ms", iqm(a.query[q]), len(a.query[q]), 0, analystMain)
		}
	}
	if s := m.serve; s != nil {
		p50 := percentile(s.reads.lat, 0.5)
		p99 := windowedPercentile(s.reads.lat, 0.99, pointPart, pointParts)
		put("point_p50_us", "us", p50.Value, p50.N, p50.Beyond, !analystMain)
		put("point_p99_us", "us", p99.Value, p99.N, p99.Beyond, !analystMain)
		a50, a90 := percentile(s.applyMs, 0.5), windowedPercentile(s.applyMs, 0.9, applyPart, applyParts)
		put("apply_p50_ms", "ms", a50.Value, a50.N, a50.Beyond, !analystMain)
		put("apply_p90_ms", "ms", a90.Value, a90.N, a90.Beyond, !analystMain)
		if len(s.satRates) > 0 {
			put("point_max_qps", "1/s", iqm(s.satRates), len(s.satRates), 0, !analystMain && !m.w.Churn)
		}
		if len(s.biccMs) > 0 {
			put("cold_bicc_ms", "ms", iqm(s.biccMs), len(s.biccMs), 0, m.w.Churn)
		}
	}
	out := map[string]metricOut{}
	for _, n := range endToEndMetrics {
		if i, ok := info[n]; ok {
			out[n] = metricOut{Value: i.Value, Unit: i.Unit}
		}
	}
	return out, info
}

// generatorDiag reports the serving phase's load-generator health: how late
// sends left, the closed-loop round trips for contrast with the open-loop
// latencies, and the backlog; and how the window's p99 varies between its
// parts, next to the p99 pooled over the whole window.
func (m *measurement) generatorDiag() map[string]any {
	s := m.serve
	if s == nil {
		return nil
	}
	var parts []float64 // p99 of each part of the window
	for k, n := 0, min(pointParts, len(s.reads.lat)/pointPart); k < n; k++ {
		parts = append(parts, percentile(s.reads.lat[k*len(s.reads.lat)/n:(k+1)*len(s.reads.lat)/n], 0.99).Value)
	}
	return map[string]any{
		"p99_pooled_us": percentile(s.reads.lat, 0.99).Value, "p99_parts_quartiles_us": quartiles(parts),
		"lag_p50_us": percentile(s.reads.lag, 0.5).Value, "lag_p99_us": percentile(s.reads.lag, 0.99).Value,
		"rtt_p50_us": percentile(s.reads.rtt, 0.5).Value, "rtt_p99_us": percentile(s.reads.rtt, 0.99).Value,
		"backlog_max": s.reads.backlogMax, "applies": s.applies,
	}
}

// overhead is, for each end-to-end metric of the main phase, the traced
// value minus the untraced one.
func overhead(plain, traced *measurement) map[string]float64 {
	_, a := plain.endToEnd()
	_, b := traced.endToEnd()
	out := map[string]float64{}
	for n, x := range a {
		if y, ok := b[n]; ok && x.Source == "main" {
			out[n] = y.Value - x.Value
		}
	}
	return out
}

// perLayerMetrics lists the traced run's metrics in BENCHMARK.json order.
var perLayerMetrics = []struct{ name, unit string }{
	{"graph.parse_ms", "ms"}, {"graph.build_ms", "ms"}, {"graph.mmap_ms", "ms"},
	{"graph.undirect_ms", "ms"}, {"graph.input_mb", "MB"},
	{"engine.new_ms", "ms"},
	{"engine.self_ms.cc", "ms"}, {"engine.self_ms.scc", "ms"}, {"engine.self_ms.bicc", "ms"},
	{"engine.self_ms.bgcc", "ms"}, {"engine.self_ms.aps", "ms"},
	{"engine.self_ms.connected", "ms"}, {"engine.self_ms.largest_scc", "ms"},
	{"stats.cc_probe_ms", "ms"}, {"stats.scc_probe_ms", "ms"}, {"stats.bicc_probe_ms", "ms"},
	{"cc.solve_ms", "ms"}, {"cc.sample_merges", "count"}, {"cc.finish_rows", "count"}, {"cc.largest_by_bfs", "count"},
	{"scc.solve_ms", "ms"}, {"scc.trimmed", "count"}, {"scc.giant_size", "count"},
	{"scc.coloring_rounds", "count"}, {"scc.multireach_rounds", "count"}, {"scc.multireach_pivots", "count"},
	{"bicc.solve_ms", "ms"}, {"bicc.aponly_ms", "ms"}, {"bicc.candidates", "count"}, {"bicc.ran", "count"},
	{"bicc.skipped_trim", "count"}, {"bicc.skipped_spo", "count"}, {"bicc.positive_ratio", "ratio"},
	{"bgcc.solve_ms", "ms"}, {"bgcc.ran", "count"}, {"bgcc.skipped_spo", "count"}, {"bgcc.bridge_ratio", "ratio"},
	{"bfs.reach_ms", "ms"},
	{"inc.apply_ms", "ms"}, {"inc.merged", "count"}, {"inc.rebuilds", "count"},
	{"dyn.promote_ms", "ms"}, {"dyn.apply_ms", "ms"}, {"dyn.deleted_edges", "count"}, {"dyn.splits", "count"},
	{"dyn.split_ratio", "ratio"},
	{"serve.apply_ms", "ms"}, {"serve.publish_ms", "ms"}, {"serve.connected_us", "us"}, {"serve.cold_bicc_ms", "ms"},
	{"serve.singleflight_hits", "count"}, {"serve.singleflight_misses", "count"}, {"serve.admission_rejects", "count"},
	{"httpd.handler_p50_us", "us"}, {"httpd.handler_p99_us", "us"}, {"httpd.client_p50_us", "us"},
	{"httpd.apply_handler_ms", "ms"}, {"httpd.metrics_mismatch", "count"},
	{"gen.lag_p50_us", "us"}, {"gen.lag_p99_us", "us"}, {"gen.backlog_max", "count"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.heap_peak_mb", "MB"}, {"proc.cpu_s", "s"},
	{"point_p50_us", "us"}, {"point_p99_us", "us"}, {"apply_p90_ms", "ms"},
}

// perLayer turns the traced pass's spans and counters into the per-layer
// metrics. A layer the workload leaves idle reports 0.
func (m *measurement) perLayer(tr *tracer) map[string]metricOut {
	v := map[string]float64{}
	med := func(name string) float64 { return median(tr.durations(name)) }
	per := func(count, base string) float64 {
		if tr.counts[base] == 0 {
			return 0
		}
		return tr.counts[count] / tr.counts[base]
	}
	self := tr.selfTimes()
	selfMed := func(name string) float64 {
		var xs []float64
		for _, s := range tr.spans {
			if s.Name == name {
				xs = append(xs, durMs(self[s.ID]))
			}
		}
		return median(xs)
	}
	v["graph.parse_ms"] = med("graph.parse")
	v["graph.build_ms"] = med("graph.build")
	v["graph.mmap_ms"] = med("graph.mmap")
	v["graph.undirect_ms"] = med("graph.undirect")
	v["graph.input_mb"] = m.inputMB
	v["engine.new_ms"] = med("engine.new")
	for _, q := range analystQueries {
		v["engine.self_ms."+q] = selfMed("engine." + q)
	}
	v["engine.self_ms.connected"] /= connectedCalls // its span times every call of a sample
	v["stats.cc_probe_ms"] = med("stats.cc_probe")
	v["stats.scc_probe_ms"] = med("stats.scc_probe")
	v["stats.bicc_probe_ms"] = med("stats.bicc_probe")
	v["cc.solve_ms"] = med("cc.solve")
	v["cc.sample_merges"] = per("cc.sample_merges", "cc.solves")
	v["cc.finish_rows"] = per("cc.finish_rows", "cc.solves")
	v["cc.largest_by_bfs"] = per("cc.largest_by_bfs", "cc.solves")
	v["scc.solve_ms"] = med("scc.solve")
	for _, c := range []string{"trimmed", "giant_size", "coloring_rounds", "multireach_rounds", "multireach_pivots"} {
		v["scc."+c] = per("scc."+c, "scc.solves")
	}
	v["bicc.solve_ms"] = med("bicc.solve")
	v["bicc.aponly_ms"] = med("bicc.aponly")
	for _, c := range []string{"candidates", "ran", "skipped_trim", "skipped_spo"} {
		v["bicc."+c] = per("bicc."+c, "bicc.solves")
	}
	v["bicc.positive_ratio"] = per("bicc.positive_checks", "bicc.ran")
	v["bgcc.solve_ms"] = med("bgcc.solve")
	v["bgcc.ran"] = per("bgcc.ran", "bgcc.solves")
	v["bgcc.skipped_spo"] = per("bgcc.skipped_spo", "bgcc.solves")
	v["bgcc.bridge_ratio"] = per("bgcc.bridges", "bgcc.ran")
	if n := len(tr.durations("engine.largest_scc")); n > 0 {
		total := 0.0
		for _, d := range tr.durations("bfs.reach") {
			total += d
		}
		v["bfs.reach_ms"] = total / float64(n)
	}
	v["inc.apply_ms"] = med("inc.apply")
	v["inc.merged"] = per("inc.merged", "inc.batches")
	v["inc.rebuilds"] = tr.counts["inc.rebuilds"]
	v["dyn.promote_ms"] = med("dyn.promote")
	v["dyn.apply_ms"] = med("dyn.apply")
	v["dyn.deleted_edges"] = per("dyn.deleted_edges", "dyn.batches")
	v["dyn.splits"] = per("dyn.splits", "dyn.batches")
	v["dyn.split_ratio"] = per("dyn.splits", "dyn.deleted_edges")
	v["serve.apply_ms"] = med("serve.apply")
	v["serve.cold_bicc_ms"] = med("serve.cold_bicc")
	v["serve.connected_us"] = 1000 * med("serve.connected")
	if s := m.serve; s != nil {
		v["serve.publish_ms"] = median(s.publishMs)
		v["serve.singleflight_hits"] = s.sfHits
		v["serve.singleflight_misses"] = s.sfMisses
		v["serve.admission_rejects"] = s.rejects
		v["httpd.metrics_mismatch"] = s.mismatch
		v["gen.lag_p50_us"] = percentile(s.reads.lag, 0.5).Value
		v["gen.lag_p99_us"] = percentile(s.reads.lag, 0.99).Value
		v["gen.backlog_max"] = float64(s.reads.backlogMax)
		v["point_p50_us"] = percentile(s.reads.lat, 0.5).Value
		v["point_p99_us"] = windowedPercentile(s.reads.lat, 0.99, pointPart, pointParts).Value
		v["apply_p90_ms"] = windowedPercentile(s.applyMs, 0.9, applyPart, applyParts).Value
	}
	// Handler spans of the window's reads: those sent with a client span.
	var handler []float64
	for _, sp := range tr.spans {
		if sp.Name == "httpd.connected" && sp.Parent != 0 {
			handler = append(handler, durUs(sp.dur()))
		}
	}
	v["httpd.handler_p50_us"] = percentile(handler, 0.5).Value
	v["httpd.handler_p99_us"] = percentile(handler, 0.99).Value
	v["httpd.client_p50_us"] = clientOverhead(tr)
	v["httpd.apply_handler_ms"] = med("httpd.apply")
	v["runtime.gc_cycles"] = m.rt.GCCycles
	v["runtime.gc_pause_ms"] = m.rt.GCPauseMs
	v["runtime.heap_peak_mb"] = m.rt.HeapPeakMB
	v["proc.cpu_s"] = m.rt.CPUSeconds
	out := map[string]metricOut{}
	for _, pm := range perLayerMetrics {
		out[pm.name] = metricOut{Value: v[pm.name], Unit: pm.unit}
	}
	return out
}

// clientOverhead is the median, over point reads, of the client round trip
// minus the handler's own time (µs): the HTTP client, the loopback hop and
// net/http's server plumbing outside httpd's handler.
func clientOverhead(tr *tracer) float64 {
	client := map[int]time.Duration{}
	for _, s := range tr.spans {
		if s.Name == "client.connected" {
			client[s.ID] = s.dur()
		}
	}
	var xs []float64
	for _, s := range tr.spans {
		if c, ok := client[s.Parent]; ok && s.Name == "httpd.connected" {
			xs = append(xs, durUs(c-s.dur()))
		}
	}
	return median(xs)
}

// writeTrace writes the span dump and the per-layer summary of a traced run.
func writeTrace(base string, w workload, seed uint64, tr *tracer, layers map[string]metricOut, over map[string]float64, meta map[string]any) error {
	stem := filepath.Join(base, fmt.Sprintf("trace-%s-seed%d", w.Name, seed))
	if err := tr.writeDump(stem + ".tsv"); err != nil {
		return err
	}
	var b strings.Builder
	mb, _ := json.MarshalIndent(meta, "", "  ")
	fmt.Fprintf(&b, "meta %s\n\nper-layer metrics:\n", mb)
	for _, pm := range perLayerMetrics {
		fmt.Fprintf(&b, "  %-28s %14.4f %s\n", pm.name, layers[pm.name].Value, pm.unit)
	}
	var names []string
	for n := range over {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "\ntracing overhead (traced minus untraced, end-to-end metrics of the main phase):\n")
	for _, n := range names {
		fmt.Fprintf(&b, "  %-20s %+12.4f\n", n, over[n])
	}
	fmt.Fprintf(&b, "\nspans (self time = duration minus covered child time minus replayed child time):\n%s", tr.summary())
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s.tsv and %s-summary.txt\n", stem, stem)
	return os.WriteFile(stem+"-summary.txt", []byte(b.String()), 0o644)
}
