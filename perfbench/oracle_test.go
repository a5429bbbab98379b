package main

import (
	"context"
	"testing"

	"aquila"
	"aquila/internal/gen"
)

type graphV = aquila.V

// TestGateCatchesPlantedWrongAnswer shows that every real answer passes the
// analyst gate and that a single planted wrong answer fails it.
func TestGateCatchesPlantedWrongAnswer(t *testing.T) {
	g := socialGraph(2, 5)
	or := computeAnalystOracle(g)
	for _, q := range analystQueries {
		e := aquila.NewDirectedEngine(g, aquila.Options{})
		if q == "connected" {
			var gt gate
			askConnectedBatch(e, or, &gt, nil)
			if gt.failed != 0 || gt.attempted != connectedCalls {
				t.Fatalf("connected: real answers rejected: %+v", gt)
			}
			continue
		}
		if err := ask(e, q)(or); err != nil {
			t.Fatalf("%s: real answer rejected: %v", q, err)
		}
	}
	if or.checkConnected(true) == nil {
		t.Fatal("a wrong IsConnected answer passed")
	}
	e := aquila.NewDirectedEngine(g, aquila.Options{})
	good := e.CC()
	bad := *good
	bad.Label = append([]uint32(nil), good.Label...)
	bad.Label[len(bad.Label)-1] = bad.Label[0] ^ 1 // a vertex moved to another component
	var gt gate
	gt.check("cc", or.checkCC(good))
	gt.check("cc", or.checkCC(&bad))
	if gt.attempted != 2 || gt.failed != 1 || len(gt.details) != 1 {
		t.Fatalf("gate = %+v, want exactly the planted answer failed", gt)
	}
	aps := e.ArticulationPoints()
	if err := or.checkAPs(aps[1:]); err == nil {
		t.Fatal("an AP list missing a vertex passed")
	}
}

// TestServedGateCatchesPlantedWrongAnswer replays a churn stream on a real
// Server, logs its true answers, and plants one wrong point answer, one wrong
// apply counter and one wrong BiCC answer: each must be reported.
func TestServedGateCatchesPlantedWrongAnswer(t *testing.T) {
	w := testWorkloads[1]
	g := gen.Random(w.ServeVertices, w.ServeArcs, 21)
	bs := updateBatches(g, w, 22)
	srv := aquila.NewServer(aquila.NewDirectedEngine(g, aquila.Options{}), aquila.ServerConfig{})
	pts := pointPairs(g.NumVertices(), 50, 23)
	var log servedLog
	ctx := context.Background()
	observe := func() {
		sn := srv.Acquire()
		for _, p := range pts {
			ok, err := sn.Connected(ctx, p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			log.Points = append(log.Points, pointObs{U: p[0], V: p[1], Epoch: sn.Epoch(), Connected: ok})
		}
		b, err := sn.BiCC(ctx)
		if err != nil {
			t.Fatal(err)
		}
		aps := 0
		for _, ap := range b.IsAP {
			if ap {
				aps++
			}
		}
		log.BiCCs = append(log.BiCCs, biccObs{Epoch: sn.Epoch(), NumBlocks: b.NumBlocks, NumAP: aps})
	}
	observe()
	for i, b := range bs {
		var ups []aquila.Update
		for _, a := range b.Ins {
			ups = append(ups, aquila.Insert(a[0], a[1]))
		}
		for _, a := range b.Del {
			ups = append(ups, aquila.Delete(a[0], a[1]))
		}
		r, err := srv.ApplyUpdates(ups)
		if err != nil {
			t.Fatal(err)
		}
		log.Applies = append(log.Applies, applyObs{Batch: i, Epoch: srv.Epoch(), NewEdges: r.NewEdges,
			DeletedEdges: r.DeletedEdges, Components: r.Components})
		observe()
	}
	if wrong, d := checkServed(g, bs, &log); wrong != 0 {
		t.Fatalf("true answers rejected: %d %v", wrong, d)
	}
	plant := func(name string, mutate func(l *servedLog)) {
		l := servedLog{Points: append([]pointObs(nil), log.Points...),
			Applies: append([]applyObs(nil), log.Applies...), BiCCs: append([]biccObs(nil), log.BiCCs...)}
		mutate(&l)
		if wrong, _ := checkServed(g, bs, &l); wrong != 1 {
			t.Errorf("%s: planted one wrong answer, gate reported %d", name, wrong)
		}
	}
	plant("point", func(l *servedLog) { l.Points[len(l.Points)/2].Connected = !l.Points[len(l.Points)/2].Connected })
	plant("apply", func(l *servedLog) { l.Applies[2].DeletedEdges++ })
	plant("bicc", func(l *servedLog) { l.BiCCs[3].NumAP++ })
}
