package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q := quartiles(xs)
	if !near(q[0], 2.75) || !near(q[1], 5.5) || !near(q[2], 8.25) {
		t.Fatalf("quartiles = %v, want [2.75 5.5 8.25]", q)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q := quartiles([]float64{4, 1, 2}); !near(q[0], 1) || !near(q[1], 2) || !near(q[2], 4) {
		t.Fatalf("quartiles(3) = %v", q)
	}
	if m := median([]float64{3, 1, 2, 100}); !near(m, 2.5) {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if q := quartiles([]float64{7}); q != [3]float64{7, 7, 7} {
		t.Fatalf("single sample quartiles = %v", q)
	}
	if q := quartiles(nil); q != [3]float64{} {
		t.Fatalf("empty quartiles = %v", q)
	}
}

func TestIQMDropsOuterQuarters(t *testing.T) {
	// 1..8: drop {1, 2} and {7, 8}, mean of 3..6.
	if m := iqm([]float64{8, 7, 6, 5, 4, 3, 2, 1}); !near(m, 4.5) {
		t.Fatalf("iqm(1..8) = %v, want 4.5", m)
	}
	// One stalled sample out of eight does not move it.
	if m := iqm([]float64{3, 4, 5, 6, 3, 4, 5, 900}); !near(m, 4.5) {
		t.Fatalf("iqm with a stall = %v, want 4.5", m)
	}
	// A host that runs at two speeds: the median lands on one level, the
	// interquartile mean between them.
	two := []float64{10, 10, 10, 10, 10, 12, 12, 12, 12, 12, 12, 12}
	if m := iqm(two); !near(m, 34.0/3) || median(two) != 12 {
		t.Fatalf("iqm = %v, median = %v over two levels", m, median(two))
	}
	if m := iqm([]float64{1, 2, 6}); !near(m, 3) {
		t.Fatalf("iqm of three = %v, want their mean", m)
	}
	if iqm(nil) != 0 {
		t.Fatal("iqm of nothing is not 0")
	}
}

func TestPercentileReportsSampleCounts(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	p99 := percentile(xs, 0.99)
	if p99.Value != 990 || p99.N != 1000 || p99.Beyond != 10 {
		t.Fatalf("p99 = %+v, want value 990 over 1000 samples with 10 beyond", p99)
	}
	p90 := percentile(xs[:100], 0.90)
	if p90.N != 100 || p90.Beyond != 10 {
		t.Fatalf("p90 over 100 = %+v, want 10 beyond", p90)
	}
	if p := percentile(nil, 0.5); p != (pctl{}) {
		t.Fatalf("empty percentile = %+v", p)
	}
}

func TestWindowedPercentileShrugsOffOneBurst(t *testing.T) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(100 + i%100) // p99 of every part is 198
	}
	for i := 3000; i < 3300; i++ {
		xs[i] = 50000 // a burst of stalls inside the fourth part
	}
	if p := percentile(xs, 0.99); p.Value != 50000 {
		t.Fatalf("pooled p99 = %v, want the burst", p.Value)
	}
	w := windowedPercentile(xs, 0.99, 1000, 10)
	if w.Value != 198 || w.N != 10000 || w.Beyond != 10 {
		t.Fatalf("windowed p99 = %+v, want 198 over 10000 with 10 beyond per part", w)
	}
	if w := windowedPercentile(xs[:1500], 0.99, 1000, 10); w != percentile(xs[:1500], 0.99) {
		t.Fatal("a window too short to split must fall back to the pooled percentile")
	}
}

// TestOpenLoopChargesStallToQueuedRequests drives the generator accounting
// with a simulated single-connection sender: request 3 stalls for 5 ms, and
// every request due during the stall must carry the wait it spent queued —
// measured from its due time — even though its own round trip is short.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := newSchedule(t0, 1000) // one request per ms
	const service = 100 * time.Microsecond
	var g genStats
	var prevDone time.Time
	for i := 0; i < 12; i++ {
		sent := s.due(i)
		if prevDone.After(sent) {
			sent = prevDone // the connection is busy: the send waits
		}
		d := service
		if i == 3 {
			d = 5*time.Millisecond + service
		}
		done := sent.Add(d)
		g.record(s, i, sent, done)
		prevDone = done
	}
	// Request 3 left at 3 ms and returned at 8.1 ms.
	if !near(g.lat[3], 5100) {
		t.Fatalf("stalled request latency = %vµs, want 5100", g.lat[3])
	}
	// Request 4 was due at 4 ms, left at 8.1 ms, returned at 8.2 ms: 4.2 ms
	// from its due time, although its own round trip was 0.1 ms.
	if !near(g.lat[4], 4200) || !near(g.rtt[4], 100) || !near(g.lag[4], 4100) {
		t.Fatalf("request 4: lat %v rtt %v lag %v, want 4200/100/4100", g.lat[4], g.rtt[4], g.lag[4])
	}
	// Requests 5..8 were due during the stall and drain back to back.
	for i := 5; i <= 8; i++ {
		want := float64(8100+(i-3)*100) - float64(i*1000)
		if !near(g.lat[i], want) {
			t.Fatalf("request %d latency = %v, want %v", i, g.lat[i], want)
		}
	}
	// By request 9 (due 9 ms, sent 9 ms) the queue has drained.
	if !near(g.lat[9], 100) || g.lastBack != 0 {
		t.Fatalf("request 9 latency %v backlog %d, want 100µs and 0", g.lat[9], g.lastBack)
	}
	// At 8.1 ms requests 4..8 were due: 4 were waiting behind request 4.
	if g.backlogMax != 4 {
		t.Fatalf("backlog max = %d, want 4", g.backlogMax)
	}
	// The stall shows at p99 of the open-loop view and not in the RTTs' median.
	if p := percentile(g.lat, 0.99); p.Value != 5100 {
		t.Fatalf("p99 latency = %v", p.Value)
	}
	if m := median(g.rtt); m != 100 {
		t.Fatalf("median rtt = %v", m)
	}
}

func TestGeneratorLagAndBacklog(t *testing.T) {
	t0 := time.Unix(0, 0)
	s := newSchedule(t0, 10000) // 100 µs interval
	if s.dueBy(t0.Add(-time.Nanosecond)) != 0 || s.dueBy(t0) != 1 || s.dueBy(t0.Add(250*time.Microsecond)) != 3 {
		t.Fatal("dueBy miscounts")
	}
	var g genStats
	// A generator that falls steadily behind: every send leaves 50 µs later
	// than the previous one relative to its due time.
	for i := 0; i < 10; i++ {
		sent := s.due(i).Add(time.Duration(i) * 50 * time.Microsecond)
		g.record(s, i, sent, sent.Add(10*time.Microsecond))
	}
	if !near(g.lag[9], 450) {
		t.Fatalf("lag of last send = %v, want 450", g.lag[9])
	}
	// Request 9 left at 1350 µs, when requests 0..13 were due: 4 behind it.
	if g.lastBack != 4 || g.backlogMax != 4 {
		t.Fatalf("backlog last %d max %d, want 4/4", g.lastBack, g.backlogMax)
	}
	var all genStats
	all.merge(&g)
	all.merge(&g)
	if len(all.lat) != 20 || all.backlogMax != 4 {
		t.Fatal("merge lost samples")
	}
}
