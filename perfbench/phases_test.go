package main

import (
	"testing"
	"time"
)

// The phase tests drive the real measuring code on tiny inputs, traced, so
// that the race detector sees the reader, the writer, the handler
// middleware and the twins running together.

func TestServingPhaseSmoke(t *testing.T) {
	w := testWorkloads[1]
	w.ReadRate, w.ApplyEvery, w.Batches = 2000, 20*time.Millisecond, 60
	dir := t.TempDir()
	if err := prepare(w, 3, dir); err != nil {
		t.Fatal(err)
	}
	in, err := loadInputs(w, dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	plan := servePlan{setups: 2, window: 300 * time.Millisecond, readRate: w.ReadRate, applyEvery: w.ApplyEvery,
		coldBiCC: true, satBursts: 2, biccAfter: 1}
	res := runServing(loadFn(in.GraphPath), in, plan, tr, newRTProbe())
	if res.gate.failed != 0 || res.applies == 0 || len(res.reads.lat) == 0 || len(res.satRates) != satParts {
		t.Fatalf("serving phase: %+v", res.gate)
	}
	m := &measurement{w: w, serve: res}
	layers := m.perLayer(tr)
	for _, name := range []string{"dyn.apply_ms", "serve.publish_ms", "serve.cold_bicc_ms", "httpd.handler_p50_us", "bicc.solve_ms"} {
		if layers[name].Value <= 0 {
			t.Errorf("%s = %v on a churn window", name, layers[name].Value)
		}
	}
	if len(layers) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics, want %d", len(layers), len(perLayerMetrics))
	}
}

func TestAnalystPhaseSmoke(t *testing.T) {
	w := testWorkloads[0]
	dir := t.TempDir()
	if err := prepare(w, 4, dir); err != nil {
		t.Fatal(err)
	}
	in, err := loadInputs(w, dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	res := runAnalyst(in.GraphPath, in.Oracle, 0, 2, 2, tr, newRTProbe())
	if res.gate.failed != 0 || res.cycles != 2 {
		t.Fatalf("analyst phase: %+v", res.gate)
	}
	for _, q := range analystQueries {
		if len(res.query[q]) != 2 {
			t.Errorf("%s: %d samples, want 2", q, len(res.query[q]))
		}
	}
	m := &measurement{w: w, analyst: res}
	out, info := m.endToEnd()
	if out["bicc_ms"].Value <= 0 || info["bicc_ms"].Samples != 2 || info["setup_s"].Source != "main" {
		t.Fatalf("end-to-end: %+v", info)
	}
	if layers := m.perLayer(tr); layers["cc.solve_ms"].Value <= 0 || layers["serve.apply_ms"].Value != 0 {
		t.Fatalf("analyst per-layer: cc.solve %v serve.apply %v", layers["cc.solve_ms"].Value, layers["serve.apply_ms"].Value)
	}
}
