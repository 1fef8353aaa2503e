package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"
)

// heapAllocs returns the bytes allocated on the Go heap since the process
// started.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime returns the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processStats is a snapshot of the Go runtime's cumulative counters.
type processStats struct {
	alloc    uint64
	gcCycles uint32
	gcPause  time.Duration
	cpu      time.Duration
}

func readProcessStats() processStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return processStats{alloc: ms.TotalAlloc, gcCycles: ms.NumGC,
		gcPause: time.Duration(ms.PauseTotalNs), cpu: cpuTime()}
}

// setProcess reports the runtime counters accumulated between a and b.
func (o *outcome) setProcess(a, b processStats) {
	o.set("process.alloc_mb", float64(b.alloc-a.alloc)/(1<<20), "MB")
	o.set("process.gc_cycles", float64(b.gcCycles-a.gcCycles), "count")
	o.set("process.gc_pause_ms", float64(b.gcPause-a.gcPause)/1e6, "ms")
	o.set("process.cpu_s", (b.cpu - a.cpu).Seconds(), "s")
}

// sampler polls the live heap, and optionally one gauge, every two
// milliseconds and keeps their high-water marks.
type sampler struct {
	stopc chan struct{}
	done  chan struct{}

	mu       sync.Mutex
	heapPeak uint64 // since the last takeHeapPeak
	gaugePk  int64
}

func startSampler(gauge func() int64) *sampler {
	s := &sampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		ms := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(ms)
			var g int64
			if gauge != nil {
				g = gauge()
			}
			s.mu.Lock()
			s.heapPeak = max(s.heapPeak, ms[0].Value.Uint64())
			s.gaugePk = max(s.gaugePk, g)
			s.mu.Unlock()
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// takeHeapPeak returns the heap high-water in MB since the previous call
// and starts a new interval.
func (s *sampler) takeHeapPeak() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.heapPeak
	s.heapPeak = 0
	return float64(p) / (1 << 20)
}

// stop ends sampling and returns the gauge's high-water.
func (s *sampler) stop() int64 {
	close(s.stopc)
	<-s.done
	return s.gaugePk
}

// provenance describes the machine, toolchain and sources a result was
// measured on, with the run's exact counts.
func provenance(e *env, traced bool, counts map[string]int64) map[string]any {
	load := ""
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.TrimSpace(string(b))
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   e.workload,
		"seed":       e.seed,
		"seconds":    e.seconds.Seconds(),
		"traced":     traced,
		"nproc":      e.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
		"source_sha": sourceHash(),
		"loadavg":    load,
		"counts":     counts,
	}
}

// sourceHash fingerprints the program's sources in the working directory
// (the repository root): every .go file and go.mod outside the benchmark's
// own directory and the build directory. It identifies the measured code
// where no version-control metadata is available.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "perfbench" || path == ".bench_build" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || path == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
