package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one HTTP request share Req.
// A replay span re-runs, from the benchmark, a call that its parent made
// inside the program (the program has no tracing of its own yet); its
// interval lies after the parent's, so the parent's self time subtracts its
// duration rather than its overlap.
type span struct {
	ID, Parent int
	Name       string
	Req        int64
	Start, End time.Duration // since the tracer's origin
	Replay     bool
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans, counters and labels in memory until the run ends. A nil
// *tracer is the untraced run: every method is a no-op, so the measured
// paths carry one nil check and nothing else.
type tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
	labels map[string]string
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: map[string]float64{}, labels: map[string]string{}}
}

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent int, req int64, start, end time.Time, replay bool) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.origin), End: end.Sub(t.origin), Replay: replay})
	return id
}

// reserve allocates a span id whose span is filled in later by fill; children
// can name it as their parent before it ends (an HTTP request's client span is
// the parent of the handler span recorded on the server side).
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1})
	return len(t.spans)
}

func (t *tracer) fill(id int, name string, parent int, req int64, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)}
}

// timed runs f inside a span named name.
func (t *tracer) timed(name string, parent int, replay bool, f func()) {
	start := time.Now()
	f()
	t.add(name, parent, 0, start, time.Now(), replay)
}

func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) label(name, v string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.labels[name] = v
	t.mu.Unlock()
}

// durations returns the durations (ms) of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, durMs(s.dur()))
		}
	}
	return out
}

// selfTimes maps each span's id to its self time: its duration minus the part
// of its interval its direct children cover, and minus the full duration of
// its replay children.
func (t *tracer) selfTimes() map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		d := s.dur()
		var inner []span
		for _, k := range kids[s.ID] {
			if k.Replay {
				d -= k.dur()
			} else {
				inner = append(inner, k)
			}
		}
		d -= covered(s, inner)
		self[s.ID] = d
	}
	return self
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur, end := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if lo > end {
			if end > cur {
				total += end - cur
			}
			cur, end = lo, hi
		} else if hi > end {
			end = hi
		}
	}
	if end > cur {
		total += end - cur
	}
	return total
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]time.Duration {
	self := t.selfTimes()
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Name != "" {
			out[s.Name] += self[s.ID]
		}
	}
	return out
}

// writeDump writes every span as a tab-separated line:
// id, parent, name, request id, start ns, end ns, replay flag.
func (t *tracer) writeDump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\treq\tstart_ns\tend_ns\treplay")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%t\n", s.ID, s.Parent, s.Name, s.Req,
			s.Start.Nanoseconds(), s.End.Nanoseconds(), s.Replay)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary renders the per-name span counts, total and self time, plus the
// counters and labels.
func (t *tracer) summary() string {
	type row struct {
		name        string
		n           int
		total, self time.Duration
	}
	self := t.selfByName()
	rows := map[string]*row{}
	for _, s := range t.spans {
		if s.Name == "" {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			rows[s.Name] = r
		}
		r.n++
		r.total += s.dur()
	}
	var names []string
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(&b, "%-28s %8d %12.3f %12.3f\n", n, r.n, durMs(r.total), durMs(self[n]))
	}
	var cn []string
	for n := range t.counts {
		cn = append(cn, n)
	}
	sort.Strings(cn)
	for _, n := range cn {
		fmt.Fprintf(&b, "count %-28s %g\n", n, t.counts[n])
	}
	var ln []string
	for n := range t.labels {
		ln = append(ln, n)
	}
	sort.Strings(ln)
	for _, n := range ln {
		fmt.Fprintf(&b, "label %-28s %s\n", n, t.labels[n])
	}
	return b.String()
}
