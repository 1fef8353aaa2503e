package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"branchcost/internal/core"
	"branchcost/internal/corpus"
	"branchcost/internal/experiments"
	"branchcost/internal/telemetry"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// suiteSchemes are the paper's three schemes, which the suite workloads score.
var suiteSchemes = []string{"sbtb", "cbtb", "fs"}

// setupReps is how many times a run repeats its set-up at least, and
// setupMin how long it keeps repeating it; setup_s is the median, so one
// slow repetition does not move it. suite-cold's set-up takes about 60 ms,
// so setupMin gives it about 30 repetitions. suite-warm's set-up includes a
// whole cold pass to fill the corpus, so it repeats fillReps times instead.
const (
	setupReps = 7
	setupMin  = 2 * time.Second
	fillReps  = 3
)

// moreSetups reports whether a run that started its set-ups at start and
// has made done of them should make another.
func moreSetups(done int, start time.Time) bool {
	return done < setupReps || time.Since(start) < setupMin
}

// freshCopy returns an uncompiled copy of a registered benchmark, so that
// repeated set-ups compile it again instead of hitting its cached program.
func freshCopy(b *workloads.Benchmark) *workloads.Benchmark {
	return &workloads.Benchmark{Name: b.Name, Sources: b.Sources, Runs: b.Runs, Input: b.Input}
}

// prepare compiles the benchmarks and generates their inputs. The first
// repetition compiles the registry's own benchmarks, which the program then
// uses; later repetitions compile fresh copies and so do the same work.
func prepare(names []string, first bool) error {
	for _, n := range names {
		b, err := workloads.ByName(n)
		if err != nil {
			return err
		}
		if !first {
			b = freshCopy(b)
		}
		if _, err := b.Program(); err != nil {
			return err
		}
		_ = b.Inputs()
	}
	return nil
}

func allNames() []string {
	var out []string
	for _, b := range workloads.Everything() {
		out = append(out, b.Name)
	}
	return out
}

// largeFirst is how many of the largest benchmarks (by recorded events)
// every pass submits ahead of the rest.
const largeFirst = 4

// submissionOrder returns the order of one pass: the largeFirst largest
// benchmarks first, then the rest, each group permuted by rng. With nproc
// workers a pass ends when its last benchmark does, so a large benchmark
// drawn late would leave the other workers idle and swing the pass time by
// a third from one order to the next; submitting the large ones first keeps
// the seed's permutation from deciding the pass time.
func submissionOrder(names []string, ref *reference, rng *rand.Rand) []string {
	bySize := append([]string(nil), names...)
	sort.SliceStable(bySize, func(i, j int) bool {
		return ref.Benchmarks[bySize[i]].Events > ref.Benchmarks[bySize[j]].Events
	})
	k := min(largeFirst, len(bySize))
	var out []string
	for _, group := range [][]string{bySize[:k], bySize[k:]} {
		for _, j := range rng.Perm(len(group)) {
			out = append(out, group[j])
		}
	}
	return out
}

// suitePass is what one pass of a fresh experiments.Suite over all
// benchmarks measured.
type suitePass struct {
	wall   time.Duration
	alloc  uint64
	evals  []*core.Eval // nil where the benchmark failed
	vmRuns int64        // VM runs the pass executed, process-wide
	scored int64        // scheme-scored branch events
	failed int
}

// runPass evaluates names through a fresh suite sized to the machine,
// against st, and checks every evaluation against the reference.
func runPass(ctx context.Context, e *env, st *corpus.Store, set *telemetry.Set, names []string, warm bool, o *outcome, where string) suitePass {
	s := experiments.NewSuite(core.Config{Schemes: suiteSchemes, Corpus: st, Telemetry: set})
	s.Workers = e.nproc
	a0, r0 := heapAllocs(), vm.RunCount.Load()
	t0 := time.Now()
	p := s.EvalNamesPartial(ctx, names)
	res := suitePass{wall: time.Since(t0), alloc: heapAllocs() - a0, evals: p.Evals, failed: len(p.Errors),
		vmRuns: vm.RunCount.Load() - r0}
	for _, be := range p.Errors {
		o.note("%s: %v", where, be)
	}
	var evalRuns int64
	for _, ev := range p.Evals {
		if ev == nil {
			continue
		}
		e.ref.checkEval(o, ev, warm, where)
		evalRuns += ev.VMRuns
		for _, sn := range suiteSchemes {
			res.scored += ev.Scheme(sn).Stats.Branches
		}
	}
	if evalRuns != res.vmRuns {
		o.mismatch("%s: evaluations report %d VM runs, the VM counted %d", where, evalRuns, res.vmRuns)
	}
	o.attempted += int64(len(names))
	o.failed += int64(res.failed)
	return res
}

// openCorpus opens an empty corpus in a new directory under the scratch
// directory.
func openCorpus(e *env, name string) (*corpus.Store, error) {
	dir := filepath.Join(e.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return corpus.Open(dir)
}

// runSuite runs suite-cold or suite-warm. Set-up compiles every benchmark
// and generates its inputs; suite-warm also fills a corpus with one cold
// pass. The timed phase then runs passes of a new Suite each until the run
// time is used; suite-cold gives every pass a new, empty corpus. Every
// pass submits the benchmarks in a new order drawn from the seed. Times
// are scaled to the reference speed: set-up by the factor of the whole
// set-up, each pass and its evaluations by the factor of that pass.
func runSuite(ctx context.Context, e *env, warm bool, traced bool) (*outcome, error) {
	o := newOutcome()
	rng := rand.New(rand.NewSource(e.seed))
	names := allNames()
	var probe *speedProbe
	if !traced {
		probe = startSpeedProbe(e.man.SpeedRefMS)
		defer probe.stop()
	}
	var setups []float64
	var store *corpus.Store
	setupStart := time.Now()
	for r, start := 0, time.Now(); (warm && r < fillReps) || (!warm && moreSetups(r, start)); r++ {
		t0 := time.Now()
		if err := prepare(names, r == 0); err != nil {
			return nil, err
		}
		if warm {
			st, err := openCorpus(e, fmt.Sprintf("fill-%d", r))
			if err != nil {
				return nil, err
			}
			if p := runPass(ctx, e, st, nil, submissionOrder(names, e.ref, rng), false, o, "corpus fill"); p.failed > 0 {
				return nil, fmt.Errorf("corpus fill: %d benchmarks failed", p.failed)
			}
			if store != nil {
				os.RemoveAll(store.Dir())
			}
			store = st
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupFactor := probe.factor(setupStart, time.Now())
	// The fills are set-up; only the timed phase counts as attempted work.
	o.attempted, o.failed = 0, 0
	if traced {
		return suiteLedger(ctx, e, warm, submissionOrder(names, e.ref, rng), store, o)
	}

	smp := startSampler(nil)
	defer smp.stop()
	var passes []suitePass
	var peaks, factors []float64
	lat := latencies{}
	start := time.Now()
	for i := 0; len(passes) == 0 || time.Since(start) < e.seconds; i++ {
		st := store
		if !warm {
			var err error
			if st, err = openCorpus(e, fmt.Sprintf("cold-%d", i)); err != nil {
				return nil, err
			}
		}
		runtime.GC() // start each pass without the previous pass's garbage
		smp.takeHeapPeak()
		t0 := time.Now()
		p := runPass(ctx, e, st, nil, submissionOrder(names, e.ref, rng), warm, o, fmt.Sprintf("pass %d", i))
		f := probe.factor(t0, time.Now())
		peaks = append(peaks, smp.takeHeapPeak())
		factors = append(factors, f)
		for _, ev := range p.evals {
			if ev != nil {
				lat.add(ev.Name, float64(ev.WallNS)/1e6/f)
			}
		}
		p.evals = nil // the evaluations hold their traces; keeping them would grow the next pass's heap
		passes = append(passes, p)
		if !warm {
			os.RemoveAll(st.Dir())
		}
	}

	var walls, scaled []float64
	var total float64
	evals := 0
	for i, p := range passes {
		walls = append(walls, p.wall.Seconds())
		scaled = append(scaled, p.wall.Seconds()/factors[i])
		total += scaled[i]
		evals += len(names) - p.failed
	}
	pv, beyond, samples := lat.percentiles(50, 90)
	o.set("setup_s", median(setups)/setupFactor, "s")
	o.set("suite_s", median(scaled), "s")
	o.set("capacity_rps", float64(evals)/total, "req/s")
	o.set("latency_p50_ms", pv[0], "ms")
	o.set("latency_p90_ms", pv[1], "ms")
	o.set("peak_heap_mb", median(peaks), "MB")
	o.note("%s: %d passes over %d benchmarks, %.3f s as measured; setup repetitions %.3f s as measured", e.workload, len(passes), len(names), walls, setups)
	o.note("speed factor (probe kernel time over %.2f ms): set-up %.3f, passes %.3f; the metrics are the measured times divided by these",
		probe.refMS, setupFactor, factors)
	o.note("latency: per-benchmark evaluation time, %d samples of %d benchmarks; p50 and p90 of the benchmarks' medians, %d and %d samples beyond",
		samples, len(lat), beyond[0], beyond[1])
	first := passes[0]
	o.counts["passes"] = int64(len(passes))
	o.counts["alloc_bytes_per_pass"] = int64(first.alloc)
	o.counts["vm_runs_per_pass"] = first.vmRuns
	o.counts["scored_events_per_pass"] = first.scored
	for i, p := range passes {
		if p.scored != first.scored {
			o.mismatch("pass %d: %d scored events, pass 0 had %d", i, p.scored, first.scored)
		}
	}
	return o, nil
}
