package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildrenAndReplays(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	parent := tr.add("engine.cc", 0, 0, at(0), at(100), false)
	// Two overlapping children cover 10..40 and 35..50: 40 ms of the parent.
	tr.add("a", parent, 0, at(10), at(40), false)
	tr.add("b", parent, 0, at(35), at(50), false)
	// A replay child re-runs 20 ms of the parent's work after it ended.
	tr.add("cc.solve", parent, 0, at(100), at(120), true)
	self := tr.selfByName()
	if self["engine.cc"] != 40*time.Millisecond {
		t.Fatalf("parent self = %v, want 40ms", self["engine.cc"])
	}
	if self["a"] != 30*time.Millisecond || self["cc.solve"] != 20*time.Millisecond {
		t.Fatalf("child self times %v", self)
	}
	var nilTracer *tracer
	if id := nilTracer.add("x", 0, 0, at(0), at(1), false); id != 0 {
		t.Fatal("nil tracer recorded a span")
	}
	nilTracer.count("x", 1)
	nilTracer.label("x", "y")
}
