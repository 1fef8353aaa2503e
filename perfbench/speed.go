package main

import (
	"sort"
	"sync"
	"time"
)

// The benchmark runs on a few cores of a shared host, whose speed changes
// by up to 1.5× as other tenants come and go, for seconds to minutes at a
// time; a 30 s run can fall wholly in a slow or a fast spell. CPU time
// slows with wall time, so neither steadies a run. A speed probe measures
// the machine's speed while the benchmark runs: every probeEvery it times
// probeSteps steps of a fixed kernel, the benchmark's own code shaped like
// the program's hot loops. The timed phases are then reported at the
// reference speed: each time is divided by its interval's speed factor,
// the median kernel time in that interval over the manifest's
// speed_ref_ms. A change to the program moves the program's times and
// leaves the factor where the machine put it.
//
// The kernel streams a branch trace from memory through predictor tables,
// as trace replay does, so it mixes memory traffic with data-dependent
// branches the way the VM and the predictors do. A kernel that stays in
// the L1 cache follows spells of core contention well but reads the
// machine's fastest spells as up to 1.5× faster than the program runs in
// them, and so over-corrects.
const (
	probeEvery = 20 * time.Millisecond
	probeSteps = 100_000 // about 1.2 ms at the reference speed
)

// replayKernel returns a kernel that streams a 4 MiB seeded branch trace
// through a history-indexed table of 2-bit counters and a direct-mapped
// target buffer, 64 KiB each, n events per call, and counts correct
// predictions. It keeps its place in the trace and its tables from call to
// call, and must be called from one goroutine.
func replayKernel() func(n int) uint64 {
	events := make([]uint32, 1<<20)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range events {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		site := uint32(x>>20) % 3000
		var taken uint32
		if (x>>8)%8 < uint64(site%8) {
			taken = 1
		}
		events[i] = site<<4 | taken
	}
	table := make([]uint8, 1<<16)
	btb := make([]uint32, 1<<14)
	var cur int
	var hist uint32
	return func(n int) uint64 {
		var correct uint64
		for i := 0; i < n; i++ {
			e := events[cur]
			cur = (cur + 1) & (len(events) - 1)
			pc, taken := e>>4, e&1
			idx := (pc ^ hist<<3) & (1<<16 - 1)
			c := table[idx]
			if (c >= 2) == (taken == 1) {
				correct++
			}
			switch {
			case taken == 1:
				if c < 3 {
					table[idx] = c + 1
				}
				if b := pc & (1<<14 - 1); btb[b] != pc {
					btb[b] = pc
				}
			case c > 0:
				table[idx] = c - 1
			}
			hist = hist<<1 | taken
		}
		return correct
	}
}

// speedProbe times the kernel every probeEvery until stopped. A nil probe
// reads factor 1, which is how the traced run, which scales nothing, goes
// without one.
type speedProbe struct {
	refMS float64
	stopc chan struct{}
	done  chan struct{}

	mu  sync.Mutex
	at  []time.Time // when each sample started
	ms  []float64   // how long each sample took
	sum uint64      // kernel results, kept so the kernel is not optimized away
}

// startSpeedProbe starts timing the kernel; refMS is its time at the
// reference speed.
func startSpeedProbe(refMS float64) *speedProbe {
	p := &speedProbe{refMS: refMS, stopc: make(chan struct{}), done: make(chan struct{})}
	run := replayKernel()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stopc:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			r := run(probeSteps)
			p.record(t0, float64(time.Since(t0).Nanoseconds())/1e6, r)
		}
	}()
	return p
}

func (p *speedProbe) record(at time.Time, ms float64, r uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.at = append(p.at, at)
	p.ms = append(p.ms, ms)
	p.sum += r
}

// stop ends sampling and waits for the sampler to exit.
func (p *speedProbe) stop() {
	if p == nil {
		return
	}
	close(p.stopc)
	<-p.done
}

// factor returns how many times slower than the reference speed the machine
// ran from a to b: the median kernel time of the samples started in that
// interval over the reference time. It is 1 for a nil probe or an interval
// without samples.
func (p *speedProbe) factor(a, b time.Time) float64 {
	if p == nil {
		return 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	lo := sort.Search(len(p.at), func(i int) bool { return !p.at[i].Before(a) })
	hi := sort.Search(len(p.at), func(i int) bool { return !p.at[i].Before(b) })
	if lo >= hi {
		return 1
	}
	return median(p.ms[lo:hi]) / p.refMS
}
