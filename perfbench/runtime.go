package main

import (
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"
)

// rtProbe measures the Go runtime and the process over one phase: GC cycles
// and pause time, the peak of live heap objects (sampled by the phase's own
// loops, so no extra goroutine), and CPU time from getrusage.
type rtProbe struct {
	heapPeak atomic.Uint64
	gc0      uint64
	pause0   time.Duration
	cpu0     time.Duration
}

func newRTProbe() *rtProbe {
	p := &rtProbe{gc0: gcCycles(), pause0: gcPause(), cpu0: cpuTime()}
	p.sample()
	return p
}

func (p *rtProbe) sample() {
	if p == nil {
		return
	}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := p.heapPeak.Load()
		if v <= old || p.heapPeak.CompareAndSwap(old, v) {
			return
		}
	}
}

type rtReport struct {
	GCCycles   float64
	GCPauseMs  float64
	HeapPeakMB float64
	CPUSeconds float64
}

func (p *rtProbe) report() rtReport {
	p.sample()
	return rtReport{
		GCCycles:   float64(gcCycles() - p.gc0),
		GCPauseMs:  durMs(gcPause() - p.pause0),
		HeapPeakMB: float64(p.heapPeak.Load()) / (1 << 20),
		CPUSeconds: (cpuTime() - p.cpu0).Seconds(),
	}
}

func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func gcPause() time.Duration {
	var st debug.GCStats
	debug.ReadGCStats(&st)
	return st.PauseTotal
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

func fileMB(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size()) / (1 << 20)
}
