package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"aquila"
	"aquila/internal/bfs"
	"aquila/internal/bicc"
	"aquila/internal/cli"
	"aquila/internal/httpd"
)

// Headers carrying the benchmark's request id and client span id to the
// handler middleware, so a traced request's spans can be joined.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

// stack is one aquilad-equivalent: an Engine, an aquila.Server and the
// httpd front-end with default configs, on an in-process loopback listener.
type stack struct {
	eng    *aquila.Engine
	srv    *aquila.Server
	hs     *httpd.Server
	hsrv   *http.Server
	served chan error
	url    string
}

func startStack(eng *aquila.Engine, tr *tracer) (*stack, error) {
	srv := aquila.NewServer(eng, aquila.ServerConfig{})
	hs := httpd.New(srv, httpd.Config{})
	var h http.Handler = hs.Handler()
	if tr != nil {
		h = traceHandler(tr, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &stack{eng: eng, srv: srv, hs: hs, served: make(chan error, 1),
		hsrv: &http.Server{Handler: h, BaseContext: hs.BaseContext},
		url:  "http://" + ln.Addr().String()}
	go func() { st.served <- st.hsrv.Serve(ln) }()
	return st, nil
}

// close drains the HTTP server, cancels leftover kernels and waits for the
// serving goroutine to return.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hsrv.Shutdown(ctx)
	s.hs.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// traceHandler is the benchmark's own middleware around httpd's handler: one
// span per request, joined to the client span through the request headers.
func traceHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.Atoi(r.Header.Get(hdrSpan))
		tr.add("httpd."+strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, "/v1/"), "/"), parent, req, start, end, false)
	})
}

// client is one load-generator connection.
type client struct {
	hc  *http.Client
	tp  *http.Transport
	url string
}

func newClient(url string) *client {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tp, Timeout: 30 * time.Second}, tp: tp, url: url}
}

func (c *client) close() { c.tp.CloseIdleConnections() }

// do sends one request and decodes a 200 reply into out; any other status is
// an error (shed 429s and timed-out 504s included).
func (c *client) do(method, path string, body []byte, hdr map[string]string, out any) error {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

func traceHeaders(tr *tracer, req int64, span int) map[string]string {
	if tr == nil {
		return nil
	}
	return map[string]string{hdrReq: strconv.FormatInt(req, 10), hdrSpan: strconv.Itoa(span)}
}

// connected sends one point read and logs its answer for the oracle.
func (c *client) connected(p [2]aquila.V, hdr map[string]string, log *[]pointObs) error {
	var resp httpd.ConnectedResponse
	path := "/v1/connected?u=" + strconv.FormatUint(uint64(p[0]), 10) + "&v=" + strconv.FormatUint(uint64(p[1]), 10)
	if err := c.do(http.MethodGet, path, nil, hdr, &resp); err != nil {
		return err
	}
	if resp.U != p[0] || resp.V != p[1] {
		return fmt.Errorf("connected(%d,%d) answered for (%d,%d)", p[0], p[1], resp.U, resp.V)
	}
	*log = append(*log, pointObs{U: p[0], V: p[1], Epoch: resp.Epoch, Connected: resp.Connected})
	return nil
}

// apply posts batch i of the stream; the reply must publish epoch want.
func (c *client) apply(bs []batch, i int, want uint64, hdr map[string]string, log *[]applyObs) (*httpd.ApplyResponse, error) {
	body, err := json.Marshal(httpd.ApplyRequest{Edges: bs[i].Ins, Deletes: bs[i].Del})
	if err != nil {
		return nil, err
	}
	var resp httpd.ApplyResponse
	if err := c.do(http.MethodPost, "/v1/apply", body, hdr, &resp); err != nil {
		return nil, err
	}
	*log = append(*log, applyObs{Batch: i, Epoch: resp.Epoch, NewEdges: resp.NewEdges,
		DeletedEdges: resp.DeletedEdges, Components: resp.Components})
	if resp.Epoch != want {
		return &resp, fmt.Errorf("batch %d published epoch %d, want %d", i, resp.Epoch, want)
	}
	return &resp, nil
}

// bicc asks for the BiCC summary of one pinned epoch.
func (c *client) bicc(epoch uint64, hdr map[string]string, log *[]biccObs) error {
	h := map[string]string{httpd.EpochHeader: strconv.FormatUint(epoch, 10)}
	for k, v := range hdr {
		h[k] = v
	}
	var resp httpd.BiCCResponse
	if err := c.do(http.MethodGet, "/v1/bicc", nil, h, &resp); err != nil {
		return err
	}
	if resp.Epoch != epoch {
		return fmt.Errorf("bicc pinned to epoch %d answered epoch %d", epoch, resp.Epoch)
	}
	*log = append(*log, biccObs{Epoch: epoch, NumBlocks: resp.NumBlocks, NumAP: resp.NumArticulationPoints})
	return nil
}

// servePlan says what one serving phase does.
type servePlan struct {
	setups     int           // set-ups measured; the last one serves
	window     time.Duration // open-loop reads and paced writes
	readRate   float64
	applyEvery time.Duration
	coldBiCC   bool // GET /v1/bicc on each new epoch inside the window
	satBursts  int  // point_max_qps bursts of satParts/2 parts: one after the window, a second before it
	biccAfter  int  // apply + cold /v1/bicc pairs after the window
}

// serveResult holds one serving phase's samples.
type serveResult struct {
	setup     []float64 // s
	reads     genStats  // window reads
	applyMs   []float64
	biccMs    []float64
	satRates  []float64         // completed point reads per second in each saturation part
	rssMB     float64           // peak RSS at the end of the window
	cells     map[string]string // chooser cells the served engine resolves after the window
	gate      gate
	sfHits    float64
	sfMisses  float64
	rejects   float64
	mismatch  float64
	applies   int
	publishMs []float64 // traced: twin serve.apply minus twin engine apply, per batch
}

// setupBatches is how many stream batches set-up applies: one, which on a
// churn stream is the delete batch that promotes the engine to the dynamic
// forest.
const setupBatches = 1

// runServing measures one serving phase over the graph load() returns.
func runServing(load func() (*cli.LoadedGraph, error), in *inputs, plan servePlan, tr *tracer, rt *rtProbe) *serveResult {
	res := &serveResult{}
	var log servedLog
	var st *stack
	var lg *cli.LoadedGraph
	var rc, wc *client
	for k := 0; k < plan.setups; k++ {
		if st != nil {
			rc.close()
			wc.close()
			res.gate.check("shutdown", st.close())
			res.gate.check("release", lg.Release())
		}
		log = servedLog{}
		runtime.GC()
		t0 := time.Now()
		var err error
		if lg, err = load(); err != nil {
			res.gate.check("load", err)
			return res
		}
		tLoad := time.Now()
		eng := aquila.NewDirectedEngine(lg.Graph, aquila.Options{})
		tEng := time.Now()
		if st, err = startStack(eng, tr); err != nil {
			res.gate.check("listen", err)
			return res
		}
		tBoot := time.Now()
		rc, wc = newClient(st.url), newClient(st.url)
		// Warm-up: reads on epoch 0 (the first computes its labels), then the
		// set-up batches, then reads on the new epoch.
		for i := 0; i < 8; i++ {
			res.gate.check("connected", rc.connected(in.Points[i], nil, &log.Points))
		}
		for i := 0; i < setupBatches; i++ {
			_, err := wc.apply(in.Batches, i, uint64(i+1), nil, &log.Applies)
			res.gate.check("apply", err)
		}
		for i := 8; i < 16; i++ {
			res.gate.check("connected", rc.connected(in.Points[i], nil, &log.Points))
		}
		tEnd := time.Now()
		res.setup = append(res.setup, tEnd.Sub(t0).Seconds())
		if tr != nil {
			tr.add("setup", 0, 0, t0, tEnd, false)
			traceLoad(tr, lg, t0, tLoad, tEng)
			tr.add("serve.boot", 0, 0, tEng, tBoot, false)
			tr.add("setup.warmup", 0, 0, tBoot, tEnd, false)
		}
	}
	// With two saturation bursts, one sits on each side of the window, so
	// that they sample the host at two times of the run.
	saturate := func() {
		rc.close()
		wc.close()
		rates, g, obs := maxQPS(st.url, in.Points, satParts/2)
		res.satRates = append(res.satRates, rates...)
		res.gate.merge(&g)
		log.Points = append(log.Points, obs...)
	}
	if plan.satBursts > 1 {
		saturate()
	}
	var tw *twins
	if tr != nil {
		tw = newTwins(lg.Graph)
		for i := 0; i < setupBatches; i++ {
			res.gate.check("twin", tw.apply(in.Batches[i], tr, false))
		}
	}

	// The measured window: one open-loop reader and one paced writer, each
	// on its own connection.
	runtime.GC() // set-up garbage is not the window's to collect
	h0, m0 := st.srv.SingleflightStats()
	start := time.Now().Add(5 * time.Millisecond)
	stop := start.Add(plan.window)
	var wg sync.WaitGroup
	var reads readResult
	var writes writeResult
	writes.next, writes.epoch = setupBatches, setupBatches
	wg.Add(2)
	go func() {
		defer wg.Done()
		var direct *aquila.Server
		if tw != nil {
			direct = tw.srv
		}
		reads.run(rc, newSchedule(start, plan.readRate), stop, in.Points, 16, direct, tr, rt)
	}()
	go func() {
		defer wg.Done()
		writes.run(wc, newSchedule(start, float64(time.Second)/float64(plan.applyEvery)), stop, in.Batches, plan.coldBiCC, tw, tr, rt)
	}()
	wg.Wait()
	h1, m1 := st.srv.SingleflightStats()
	res.sfHits, res.sfMisses = float64(h1-h0), float64(m1-m0)
	res.rssMB = peakRSSMB()
	res.reads = reads.gen
	res.applyMs, res.biccMs = writes.applyMs, writes.biccMs
	res.applies = len(writes.applyMs)
	res.gate.merge(&reads.gate)
	res.gate.merge(&writes.gate)
	log.Points = append(log.Points, reads.obs...)
	log.Applies = append(log.Applies, writes.applies...)
	log.BiCCs = append(log.BiCCs, writes.biccs...)
	if tw != nil {
		res.publishMs = tw.publishMs
	}

	// Cross-check the front-end's own counters against the client's.
	var met httpd.MetricsSnapshot
	if err := rc.do(http.MethodGet, "/metrics", nil, nil, &met); err != nil {
		res.gate.check("metrics", err)
	} else {
		res.rejects = float64(met.AdmissionRejects)
		for kind, want := range map[string]int{"connected": len(log.Points), "apply": len(log.Applies), "bicc": len(log.BiCCs)} {
			if got := int(met.Kinds[kind].Count); got != want {
				res.mismatch++
				res.gate.check("metrics", fmt.Errorf("/metrics counts %d %s requests, client sent %d", got, kind, want))
			}
		}
	}

	if plan.satBursts > 0 {
		saturate()
	}
	for k := 0; k < plan.biccAfter && writes.next < len(in.Batches); k++ {
		writes.epoch++
		ar, err := wc.apply(in.Batches, writes.next, writes.epoch, nil, &log.Applies)
		writes.next++
		res.gate.check("apply", err)
		if err != nil {
			break
		}
		t := time.Now()
		err = wc.bicc(ar.Epoch, nil, &log.BiCCs)
		res.biccMs = append(res.biccMs, durMs(time.Since(t)))
		res.gate.check("bicc", err)
	}
	res.cells = map[string]string{"cc": st.eng.CCPolicy(), "bicc": st.eng.BiCCPolicy()}
	res.cells["scc"], _ = st.eng.SCCPolicy()
	rc.close()
	wc.close()
	res.gate.check("shutdown", st.close())

	wrong, details := checkServed(lg.Graph, in.Batches, &log)
	res.gate.failed += wrong
	for _, d := range details {
		if len(res.gate.details) < 10 {
			res.gate.details = append(res.gate.details, "oracle: "+d)
		}
	}
	res.gate.check("release", lg.Release())
	return res
}

// readResult is the open-loop reader's share of a window.
type readResult struct {
	gen  genStats
	obs  []pointObs
	gate gate
}

// run sends GET /v1/connected on schedule s until stop. Requests are sent in
// order on one connection; one that is late leaves as soon as it can and its
// lateness is charged to its latency.
func (r *readResult) run(c *client, s schedule, stop time.Time, pts [][2]aquila.V, off int, srv *aquila.Server, tr *tracer, rt *rtProbe) {
	for i := 0; ; i++ {
		due := s.due(i)
		if !due.Before(stop) {
			return
		}
		waitUntil(due)
		p := pts[(off+i)%len(pts)]
		req := int64(off + i)
		span := tr.reserve()
		sent := time.Now()
		err := c.connected(p, traceHeaders(tr, req, span), &r.obs)
		done := time.Now()
		r.gen.record(s, i, sent, done)
		r.gate.check("connected", err)
		if tr != nil {
			tr.fill(span, "client.connected", 0, req, sent, done)
			// The point query itself, straight on a snapshot of the twin
			// server, which follows the served epochs at most one batch
			// behind (see twins).
			t := time.Now()
			_, _ = srv.Acquire().Connected(context.Background(), p[0], p[1])
			tr.add("serve.connected", 0, req, t, time.Now(), false)
		}
		if i%1024 == 0 {
			rt.sample()
		}
	}
}

// writeResult is the paced writer's share of a window.
type writeResult struct {
	next    int    // next batch of the stream
	epoch   uint64 // epoch the last apply published
	applyMs []float64
	biccMs  []float64
	applies []applyObs
	biccs   []biccObs
	gate    gate
}

// run posts one batch per tick of s until stop, waiting for each reply
// (and, with coldBiCC, for a GET /v1/bicc on the epoch it published) before
// the next; a tick missed while waiting is sent at once, but nothing is sent
// after stop.
func (w *writeResult) run(c *client, s schedule, stop time.Time, bs []batch, coldBiCC bool, tw *twins, tr *tracer, rt *rtProbe) {
	for j := 0; w.next < len(bs); j++ {
		due := s.due(j)
		if !due.Before(stop) || !time.Now().Before(stop) {
			return
		}
		waitUntil(due)
		req := int64(1<<40 + j)
		span := tr.reserve()
		sent := time.Now()
		w.epoch++
		ar, err := c.apply(bs, w.next, w.epoch, traceHeaders(tr, req, span), &w.applies)
		done := time.Now()
		tr.fill(span, "client.apply", 0, req, sent, done)
		w.gate.check("apply", err)
		if err != nil {
			return // the epoch count is lost; the oracle cannot follow
		}
		w.applyMs = append(w.applyMs, durMs(done.Sub(sent)))
		b := w.next
		w.next++
		if coldBiCC {
			span := tr.reserve()
			t := time.Now()
			err := c.bicc(ar.Epoch, traceHeaders(tr, req, span), &w.biccs)
			d := time.Now()
			tr.fill(span, "client.bicc", 0, req, t, d)
			w.biccMs = append(w.biccMs, durMs(d.Sub(t)))
			w.gate.check("bicc", err)
		}
		if tw != nil {
			w.gate.check("twin", tw.apply(bs[b], tr, coldBiCC))
		}
		rt.sample()
	}
}

// waitUntil blocks until t. time.Sleep wakes on a ~1 ms grid on this kind of
// host, so it only covers the wait down to the last 2 ms. A nanosleep covers
// the rest down to the kernel's default 50 µs timer slack; the scheduler
// hands the goroutine's P to other goroutines while it sleeps. A short busy
// loop ends the wait. The generator never stays runnable while it waits: a
// goroutine that yields in a loop is always in the run queue, which keeps an
// idle P from stealing the server's parallel workers.
func waitUntil(t time.Time) {
	const coarse, slack = 2 * time.Millisecond, 60 * time.Microsecond
	if d := time.Until(t); d > coarse {
		time.Sleep(d - coarse)
	}
	if d := time.Until(t); d > slack {
		ts := syscall.NsecToTimespec(int64(d - slack))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only lengthens the spin
	}
	for time.Now().Before(t) {
	}
}

// saturation is how point_max_qps is measured: satConns closed-loop
// connections send GET /v1/connected back to back for satParts parts of
// satPart each, in two bursts; the rate the stack sustains is the
// interquartile mean over the parts of the requests completed per second, so
// a burst of host stalls moves one part and not the result.
const (
	satConns = 2
	satParts = 12
	satPart  = 250 * time.Millisecond
)

// maxQPS drives the stack at saturation. Each connection has its own
// goroutine, blocked on the network between requests, so no generator spins.
// It returns the rate of each of its parts.
func maxQPS(url string, pts [][2]aquila.V, parts int) ([]float64, gate, []pointObs) {
	var conns [satConns]struct {
		obs  []pointObs
		gate gate
		done []int
	}
	for k := range conns {
		conns[k].done = make([]int, parts)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for k := range conns {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := newClient(url)
			defer c.close()
			p := &conns[k]
			for i := (k + 1) << 20; ; i++ {
				err := c.connected(pts[i%len(pts)], nil, &p.obs)
				p.gate.check("connected", err)
				part := int(time.Since(start) / satPart)
				if part >= parts {
					return
				}
				if err == nil {
					p.done[part]++
				}
			}
		}(k)
	}
	wg.Wait()
	var g gate
	var obs []pointObs
	rates := make([]float64, parts)
	for k := range conns {
		g.merge(&conns[k].gate)
		obs = append(obs, conns[k].obs...)
		for part, n := range conns[k].done {
			rates[part] += float64(n) / satPart.Seconds()
		}
	}
	return rates, g, obs
}

// twins are an unserved Engine and a second Server over the same graph. In a
// traced run each receives every batch after the HTTP apply has returned, so
// the engine's own apply time (inc or dyn) and the server's apply time can be
// told apart — their difference is the snapshot publish — without touching
// the measured stack.
type twins struct {
	eng       *aquila.Engine
	srv       *aquila.Server
	publishMs []float64
}

func newTwins(g *aquila.Directed) *twins {
	return &twins{eng: aquila.NewDirectedEngine(g, aquila.Options{}),
		srv: aquila.NewServer(aquila.NewDirectedEngine(g, aquila.Options{}), aquila.ServerConfig{})}
}

func (t *twins) apply(b batch, tr *tracer, coldBiCC bool) error {
	ups := make([]aquila.Update, 0, b.ops())
	for _, a := range b.Ins {
		ups = append(ups, aquila.Insert(a[0], a[1]))
	}
	for _, a := range b.Del {
		ups = append(ups, aquila.Delete(a[0], a[1]))
	}
	wasDyn := t.eng.Dynamic()
	s := time.Now()
	r, err := t.eng.ApplyUpdates(ups)
	e := time.Now()
	if err != nil {
		return err
	}
	name := "inc.apply"
	switch {
	case r.Dynamic && !wasDyn:
		name = "dyn.promote"
	case r.Dynamic:
		name = "dyn.apply"
	}
	tr.add(name, 0, 0, s, e, false)
	if r.Dynamic {
		tr.count("dyn.batches", 1)
		tr.count("dyn.deleted_edges", float64(r.DeletedEdges))
		tr.count("dyn.splits", float64(r.Split))
	} else {
		tr.count("inc.batches", 1)
		tr.count("inc.merged", float64(r.Merged))
	}
	if r.Rebuilt {
		tr.count("inc.rebuilds", 1)
	}
	s2 := time.Now()
	if _, err := t.srv.ApplyUpdates(ups); err != nil {
		return err
	}
	e2 := time.Now()
	tr.add("serve.apply", 0, 0, s2, e2, false)
	t.publishMs = append(t.publishMs, durMs(e2.Sub(s2)-e.Sub(s)))
	if !coldBiCC {
		return nil
	}
	s3 := time.Now()
	_, err = t.srv.Acquire().BiCC(context.Background())
	id := tr.add("serve.cold_bicc", 0, 0, s3, time.Now(), false)
	if err != nil {
		return err
	}
	// The kernel the cold BiCC ran, replayed on the twin engine's copy of
	// the same epoch's graph.
	und := t.eng.Undirected()
	pol := replayBiCCProbe(tr, id, und)
	var br *bicc.Result
	tr.timed("bicc.solve", id, true, func() { br = bicc.Solve(und, pol, bicc.Options{Mode: bfs.ModeEnhanced}) })
	countBiCC(tr, br)
	return nil
}
