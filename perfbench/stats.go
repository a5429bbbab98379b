package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (0 for no samples).
func median(xs []float64) float64 {
	q := quartiles(xs)
	return q[1]
}

// quartiles returns Q1, Q2 and Q3 of xs with the "exclusive" method of
// Python's statistics.quantiles(xs, n=4), so spreads computed here match the
// ones computed over a set of runs. One sample gives that sample three
// times; no samples give zeros.
func quartiles(xs []float64) [3]float64 {
	var out [3]float64
	d := sortedCopy(xs)
	ld := len(d)
	switch ld {
	case 0:
		return out
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out
}

// iqm is the interquartile mean of xs: the mean of the samples left after
// the lowest and the highest quarter are dropped (all of them below four
// samples; 0 for none). Like a median it ignores the stalls a shared host
// adds to a few samples, but where the host's speed flips between two levels
// during a run it averages the two instead of landing on one of them, so it
// moves less from run to run than a median does.
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := sortedCopy(xs)
	k := len(d) / 4
	sum := 0.0
	for _, x := range d[k : len(d)-k] {
		sum += x
	}
	return sum / float64(len(d)-2*k)
}

// pctl is a percentile together with the evidence behind it: how many samples
// it was taken over and how many lie beyond it. A p99 over 1000 samples has
// 10 beyond it; below that it is a maximum in disguise.
type pctl struct {
	Value  float64
	N      int
	Beyond int
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs.
func percentile(xs []float64, p float64) pctl {
	if len(xs) == 0 {
		return pctl{}
	}
	d := sortedCopy(xs)
	rank := int(math.Ceil(p * float64(len(d))))
	rank = min(max(rank, 1), len(d))
	return pctl{Value: d[rank-1], N: len(d), Beyond: len(d) - rank}
}

// windowedPercentile splits xs, samples in arrival order, into at most
// maxParts consecutive parts of at least minPart samples each, takes the
// p-quantile of every part, and returns their interquartile mean. A burst of
// host stalls then moves one part's percentile instead of the whole window's. N counts
// all samples and Beyond those beyond the percentile in the smallest part.
func windowedPercentile(xs []float64, p float64, minPart, maxParts int) pctl {
	parts := min(maxParts, len(xs)/max(1, minPart))
	if parts <= 1 {
		return percentile(xs, p)
	}
	var vals []float64
	beyond := len(xs)
	for k := 0; k < parts; k++ {
		q := percentile(xs[k*len(xs)/parts:(k+1)*len(xs)/parts], p)
		vals = append(vals, q.Value)
		beyond = min(beyond, q.Beyond)
	}
	return pctl{Value: iqm(vals), N: len(xs), Beyond: beyond}
}

// durMs / durUs convert durations to float milliseconds / microseconds.
func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func durUs(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// schedule is an open-loop arrival schedule: request i is due at
// start + i*interval whatever happened to the requests before it, so a stall
// makes every request queued behind it late — and that lateness is charged to
// them, because latency is measured from the due time, not from the send.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func newSchedule(start time.Time, ratePerSec float64) schedule {
	return schedule{start: start, interval: time.Duration(float64(time.Second) / ratePerSec)}
}

// due is when request i should leave.
func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// dueBy is how many requests are due at t (requests 0..dueBy-1).
func (s schedule) dueBy(t time.Time) int {
	if t.Before(s.start) {
		return 0
	}
	return int(t.Sub(s.start)/s.interval) + 1
}

// genStats accumulates one open-loop generator's samples: latency from the
// due time, how late each send left (lag), and the backlog — requests already
// due but still waiting behind the one being sent.
type genStats struct {
	lat        []float64 // µs, due → response
	rtt        []float64 // µs, send → response (closed-loop view, for contrast)
	lag        []float64 // µs, due → send
	backlogMax int
	lastBack   int
}

// record accounts request i of schedule s, sent at sent and answered at done.
func (g *genStats) record(s schedule, i int, sent, done time.Time) {
	due := s.due(i)
	g.lat = append(g.lat, durUs(done.Sub(due)))
	g.rtt = append(g.rtt, durUs(done.Sub(sent)))
	g.lag = append(g.lag, durUs(max(0, sent.Sub(due))))
	back := max(0, s.dueBy(sent)-i-1)
	g.backlogMax = max(g.backlogMax, back)
	g.lastBack = back
}

// merge folds o's samples into g.
func (g *genStats) merge(o *genStats) {
	g.lat = append(g.lat, o.lat...)
	g.rtt = append(g.rtt, o.rtt...)
	g.lag = append(g.lag, o.lag...)
	g.backlogMax = max(g.backlogMax, o.backlogMax)
	g.lastBack = max(g.lastBack, o.lastBack)
}
