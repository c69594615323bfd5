package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"kmgraph/internal/procstat"
)

// procSnap is the process-level accounting read at both ends of a timed
// window: allocation, CPU and collector work are reported as deltas per op.
type procSnap struct {
	allocBytes uint64
	userS      float64
	sysS       float64
	gcCycles   uint64
	gcPauseS   float64
}

// cpuSeconds is the process's user and system CPU time so far.
func cpuSeconds() (user, sys float64) {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero
	// reading would show as a zero CPU metric.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}

func userCPU() float64 {
	user, _ := cpuSeconds()
	return user
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	user, sys := cpuSeconds()
	return procSnap{
		allocBytes: ms.TotalAlloc,
		userS:      user,
		sysS:       sys,
		gcCycles:   uint64(ms.NumGC),
		gcPauseS:   float64(ms.PauseTotalNs) / 1e9,
	}
}

// peakRSSMB is the process's peak resident set (VmHWM, which is what
// getrusage reports as ru_maxrss) in MB. Each workload runs in a process of
// its own, so this is the workload's peak.
func peakRSSMB() float64 { return float64(procstat.MaxRSSBytes()) / 1e6 }

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// heapPoller samples /gc/heap/live:bytes every 2 ms and keeps the maximum:
// the live heap the collector last marked, which is what RSS follows.
type heapPoller struct {
	stop chan struct{}
	wg   sync.WaitGroup
	max  uint64
}

func startHeapPoller() *heapPoller {
	p := &heapPoller{stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				metrics.Read(sample)
				if sample[0].Value.Kind() == metrics.KindUint64 {
					if v := sample[0].Value.Uint64(); v > p.max {
						p.max = v
					}
				}
			}
		}
	}()
	return p
}

// stopMB ends the poller and returns the peak in MB.
func (p *heapPoller) stopMB() float64 {
	close(p.stop)
	p.wg.Wait()
	return float64(p.max) / 1e6
}
