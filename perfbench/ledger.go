package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"branchcost/internal/core"
	"branchcost/internal/corpus"
	"branchcost/internal/fs"
	"branchcost/internal/isa"
	"branchcost/internal/predict"
	"branchcost/internal/profile"
	"branchcost/internal/telemetry"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// tracer records a span around each of the benchmark's calls into a layer.
// Spans stay in memory and are written out when the run ends. A tracer that
// is off records nothing, which is how the same walk runs untraced.
type tracer struct {
	on    bool
	t0    time.Time
	spans []spanRec
	open  []int
}

// spanRec is one recorded span. Child spans carry their root's ID, so every
// span of one benchmark walk or one request shares an identifier.
type spanRec struct {
	ID     string `json:"id"`
	Bench  string `json:"bench,omitempty"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
	Count  int64  `json:"count"` // work the call did: events, steps or bytes
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// root opens a span with no parent.
func (t *tracer) root(id, bench, name string) int {
	if !t.on {
		return -1
	}
	return t.push(spanRec{ID: id, Bench: bench, Name: name, Parent: -1})
}

// begin opens a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	p := t.open[len(t.open)-1]
	return t.push(spanRec{ID: t.spans[p].ID, Bench: t.spans[p].Bench, Name: name, Parent: p})
}

func (t *tracer) push(s spanRec) int {
	s.Alloc = heapAllocs()
	s.Start = time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, s)
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i, which must be the innermost open span, recording the
// work count it did.
func (t *tracer) end(i int, count int64) {
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.End = time.Since(t.t0).Nanoseconds()
	s.Alloc = heapAllocs() - s.Alloc
	s.Count = count
	t.open = t.open[:len(t.open)-1]
}

// layerTotal sums the spans of one name.
type layerTotal struct {
	self  time.Duration // span durations minus their children's
	alloc int64         // bytes allocated minus the children's
	count int64
}

// totals sums self time, self allocation and counts by span name, and by
// "name@bench" for each benchmark.
func (t *tracer) totals() map[string]*layerTotal {
	childNS := make([]int64, len(t.spans))
	childAlloc := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.End - s.Start
			childAlloc[s.Parent] += int64(s.Alloc)
		}
	}
	out := map[string]*layerTotal{}
	add := func(key string, i int) {
		lt := out[key]
		if lt == nil {
			lt = &layerTotal{}
			out[key] = lt
		}
		s := t.spans[i]
		lt.self += time.Duration(s.End - s.Start - childNS[i])
		lt.alloc += int64(s.Alloc) - childAlloc[i]
		lt.count += s.Count
	}
	for i, s := range t.spans {
		add(s.Name, i)
		add(s.Name+"@"+s.Bench, i)
	}
	return out
}

// get returns the named total, zero when no span had that name.
func get(tt map[string]*layerTotal, name string) layerTotal {
	if lt := tt[name]; lt != nil {
		return *lt
	}
	return layerTotal{}
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// walkItem is one benchmark's program, inputs and trace, as the walk used
// them.
type walkItem struct {
	name   string
	prog   *isa.Program
	inputs [][]byte
	trace  *tracefile.Trace
}

// walkCounts are the counts of the work on the workload's own path, which
// must equal the program's counters for the same work.
type walkCounts struct {
	vmRuns, vmSteps, hits, misses, replayEvents, scored int64

	inserts, evictions int64 // BTB capacity counters of the replayed schemes
}

// mirrorSuite walks each benchmark through the calls core.EvaluateContext
// makes for it, one layer call at a time: a corpus load, on a miss the
// recording pass with the profile collector and a corpus store, the FS
// transform, one replay per BTB scheme and the FS measurement pass. Every
// score is checked against the reference. The walk repeats core's current
// sequence of calls, so a change to that sequence, such as caching the FS
// stream so that a warm evaluation runs no VM, has to change the walk too,
// or the vm.runs and vm.steps cross-checks fail.
func mirrorSuite(ctx context.Context, e *env, tr *tracer, names []string, st *corpus.Store, o *outcome) ([]walkItem, walkCounts, error) {
	var c walkCounts
	var items []walkItem
	configs := core.Config{}.Configs()
	for _, name := range names {
		b, err := workloads.ByName(name)
		if err != nil {
			return nil, c, err
		}
		br, err := e.ref.bench(name)
		if err != nil {
			return nil, c, err
		}
		root := tr.root(e.workload+"/"+name+"/0", name, "bench")
		prog, err := b.Program()
		if err != nil {
			return nil, c, err
		}
		inputs := b.Inputs()
		key := corpus.KeyFor(name, prog, inputs)

		sp := tr.begin("corpus.Store.LoadContext")
		trace, prof, err := st.LoadContext(ctx, key)
		tr.end(sp, 0)
		switch {
		case err == nil:
			c.hits++
		case corpus.IsMiss(err):
			c.misses++
			prof = profile.New()
			col := &profile.Collector{P: prof}
			sp = tr.begin("tracefile.Record+profile")
			trace, err = tracefile.Record(prog, inputs, col.Hook())
			if err != nil {
				return nil, c, err
			}
			tr.end(sp, int64(trace.Len()))
			prof.Steps, prof.Runs = trace.Steps, trace.Runs
			c.vmRuns += int64(trace.Runs)
			c.vmSteps += trace.Steps
			sp = tr.begin("corpus.Store.PutContext")
			err = st.PutContext(ctx, key, trace, prof)
			tr.end(sp, 0)
			if err != nil {
				return nil, c, err
			}
		default:
			return nil, c, err
		}

		sp = tr.begin("fs.Transform")
		fsRes, err := fs.Transform(prog, prof, *core.Paper.EvalSlots)
		tr.end(sp, 0)
		if err != nil {
			return nil, c, err
		}
		for _, sn := range []string{"sbtb", "cbtb"} {
			pe := &predict.Evaluator{P: predict.MustLookup(sn).New(predict.SchemeContext{Prog: prog, Profile: prof, Configs: configs})}
			sp = tr.begin("Trace.ScoreParallelContext:" + sn)
			err := trace.ScoreParallelContext(ctx, pe.Hook())
			tr.end(sp, int64(trace.Len()))
			if err != nil {
				return nil, c, err
			}
			e.ref.checkStats(o, "ledger walk", name, sn, br.Suite, pe.S)
			c.replayEvents += int64(trace.Len())
			c.scored += pe.S.Branches
			ins, evs := btbCounts(pe.P)
			c.inserts += ins
			c.evictions += evs
		}
		fe := &predict.Evaluator{P: predict.MustLookup("fs").New(predict.SchemeContext{Prog: fsRes.Prog, Profile: prof, Configs: configs})}
		hook := func(ev vm.BranchEvent) {
			if !fsRes.SyntheticID(ev.ID) {
				fe.Observe(ev)
			}
		}
		for _, in := range inputs {
			sp = tr.begin("vm.Run:fs.eval")
			res, err := vm.Run(fsRes.Prog, in, hook, vm.Config{Ctx: ctx})
			tr.end(sp, res.Steps)
			if err != nil {
				return nil, c, err
			}
			c.vmRuns++
			c.vmSteps += res.Steps
		}
		e.ref.checkStats(o, "ledger walk", name, "fs", br.Suite, fe.S)
		c.scored += fe.S.Branches
		tr.end(root, 0)
		items = append(items, walkItem{name: name, prog: prog, inputs: inputs, trace: trace})
	}
	return items, c, nil
}

// probeLayers measures each layer alone on the workload's benchmarks: a
// fresh compile, the bare VM, the VM with the profile collector, trace
// recording, BCT2 encode and decode, and one replay for every replayable
// scheme not in skip. Replays are checked against the reference. It returns
// the BTB inserts and evictions of the replayed predictors.
func probeLayers(ctx context.Context, e *env, tr *tracer, items []walkItem, skip map[string]bool, o *outcome) (inserts, evictions int64, err error) {
	for _, it := range items {
		br, err := e.ref.bench(it.name)
		if err != nil {
			return 0, 0, err
		}
		root := tr.root(e.workload+"/"+it.name+"/probe", it.name, "probe")
		b, err := workloads.ByName(it.name)
		if err != nil {
			return 0, 0, err
		}
		sp := tr.begin("workloads.Benchmark.Program")
		_, err = freshCopy(b).Program()
		tr.end(sp, 0)
		if err != nil {
			return 0, 0, err
		}
		col := (&profile.Collector{P: profile.New()}).Hook()
		for _, probe := range []struct {
			name string
			hook vm.BranchFunc
		}{{"vm.Run:bare", nil}, {"vm.Run:collector", col}} {
			for _, in := range it.inputs {
				sp := tr.begin(probe.name)
				res, err := vm.Run(it.prog, in, probe.hook, vm.Config{Ctx: ctx})
				tr.end(sp, res.Steps)
				if err != nil {
					return 0, 0, err
				}
			}
		}
		sp = tr.begin("tracefile.Record")
		rec, err := tracefile.Record(it.prog, it.inputs)
		if err != nil {
			return 0, 0, err
		}
		tr.end(sp, int64(rec.Len()))
		var buf bytes.Buffer
		sp = tr.begin("Trace.WriteTo")
		n, err := rec.WriteTo(&buf)
		tr.end(sp, n)
		if err != nil {
			return 0, 0, err
		}
		sp = tr.begin("tracefile.ReadTrace")
		dec, err := tracefile.ReadTrace(bytes.NewReader(buf.Bytes()))
		tr.end(sp, int64(buf.Len()))
		if err != nil {
			return 0, 0, err
		}
		if rec.Len() != br.Events || dec.Len() != br.Events || dec.Steps != br.Steps {
			o.mismatch("probe: %s: recorded %d, decoded %d events (%d steps), want %d (%d)",
				it.name, rec.Len(), dec.Len(), dec.Steps, br.Events, br.Steps)
		}
		ins, ev, err := replaySchemes(ctx, e, tr, it, skip, o)
		if err != nil {
			return 0, 0, err
		}
		inserts += ins
		evictions += ev
		tr.end(root, 0)
	}
	return inserts, evictions, nil
}

// replaySchemes replays the item's trace once per replayable scheme not in
// skip, under the registry defaults, and checks each score.
func replaySchemes(ctx context.Context, e *env, tr *tracer, it walkItem, skip map[string]bool, o *outcome) (inserts, evictions int64, err error) {
	br, err := e.ref.bench(it.name)
	if err != nil {
		return 0, 0, err
	}
	for _, sn := range e.ref.ReplaySchemes {
		if skip[sn] {
			continue
		}
		pe := &predict.Evaluator{P: predict.MustLookup(sn).New(predict.SchemeContext{})}
		sp := tr.begin("Trace.ScoreParallelContext:" + sn)
		err := it.trace.ScoreParallelContext(ctx, pe.Hook())
		tr.end(sp, int64(it.trace.Len()))
		if err != nil {
			return 0, 0, err
		}
		e.ref.checkStats(o, "probe replay", it.name, sn, br.Replay, pe.S)
		ins, evs := btbCounts(pe.P)
		inserts += ins
		evictions += evs
	}
	return inserts, evictions, nil
}

// btbCounts sums the buffer inserts and evictions a predictor reports
// (both levels of a two-level buffer); 0 for predictors without a buffer.
func btbCounts(p predict.Predictor) (inserts, evictions int64) {
	ms, ok := p.(predict.MetricSource)
	if !ok {
		return 0, 0
	}
	for k, v := range ms.Metrics() {
		switch {
		case strings.HasSuffix(k, "inserts"):
			inserts += v
		case strings.HasSuffix(k, "evictions"):
			evictions += v
		}
	}
	return inserts, evictions
}

// perSecond and perUnit divide, reading 0 where nothing was measured.
func perSecond(n float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return n / d.Seconds()
}

func perUnit(d time.Duration, n int64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// setLayers reports the per-layer metrics that come from the spans: the
// workload's path counts c, and the probes over its trace set.
func (o *outcome) setLayers(e *env, tt map[string]*layerTotal, c walkCounts, ins, evs int64) {
	const mb = 1 << 20
	bare, coll := get(tt, "vm.Run:bare"), get(tt, "vm.Run:collector")
	rec, enc, dec := get(tt, "tracefile.Record"), get(tt, "Trace.WriteTo"), get(tt, "tracefile.ReadTrace")
	events := rec.count
	o.set("workloads.compile_s", get(tt, "workloads.Benchmark.Program").self.Seconds(), "s")
	o.set("vm.runs", float64(c.vmRuns), "count")
	o.set("vm.steps", float64(c.vmSteps), "count")
	o.set("vm.steps_per_s", perSecond(float64(bare.count), bare.self), "1/s")
	o.set("vm.alloc_mb", float64(bare.alloc)/mb, "MB")
	o.set("profile.collect_ns_per_event", perUnit(coll.self-bare.self, events), "ns")
	o.set("tracefile.build_ns_per_event", perUnit(rec.self-bare.self, events), "ns")
	o.set("tracefile.encode_mb_per_s", perSecond(float64(enc.count)/mb, enc.self), "MB/s")
	o.set("tracefile.decode_events_per_s", perSecond(float64(events), dec.self), "1/s")
	o.set("tracefile.decode_mb_per_s", perSecond(float64(dec.count)/mb, dec.self), "MB/s")
	o.set("tracefile.decode_alloc_mb", float64(dec.alloc)/mb, "MB")
	o.set("tracefile.replay_events", float64(c.replayEvents), "count")
	o.set("corpus.load_s", get(tt, "corpus.Store.LoadContext").self.Seconds(), "s")
	o.set("corpus.store_s", get(tt, "corpus.Store.PutContext").self.Seconds(), "s")
	o.set("corpus.hits", float64(c.hits), "count")
	o.set("corpus.misses", float64(c.misses), "count")
	o.set("fs.transform_s", get(tt, "fs.Transform").self.Seconds(), "s")
	o.set("fs.eval_s", get(tt, "vm.Run:fs.eval").self.Seconds(), "s")
	for _, sn := range e.ref.ReplaySchemes {
		all := get(tt, "Trace.ScoreParallelContext:"+sn)
		stress := get(tt, "Trace.ScoreParallelContext:"+sn+"@btb-stress")
		o.set("replay."+sn+".ns_per_event", perUnit(all.self, all.count), "ns")
		o.set("replay."+sn+".btb-stress.ns_per_event", perUnit(stress.self, stress.count), "ns")
	}
	o.set("btb.inserts", float64(ins), "count")
	o.set("btb.evictions", float64(evs), "count")
	o.set("scored_events", float64(c.scored), "count")
}

// crossCheck fails the run unless a count the walk made equals the
// program's own counter for the same work.
func (o *outcome) crossCheck(what string, program, walk int64) {
	verdict := "equal"
	if program != walk {
		verdict = "DIFFERENT"
		o.mismatch("ledger: %s: program counted %d, traced walk %d", what, program, walk)
	}
	o.note("ledger: %-24s program %14d  walk %14d  %s", what, program, walk, verdict)
}

// suiteLedger is the traced run of a suite workload. One instrumented suite
// pass gives the program's own counters and core's phase timings; the
// same path is then walked layer by layer, untraced and traced, and each
// layer is probed alone over the trace set.
func suiteLedger(ctx context.Context, e *env, warm bool, names []string, store *corpus.Store, o *outcome) (*outcome, error) {
	corpusFor := func(label string) (*corpus.Store, error) {
		if warm {
			return store, nil
		}
		return openCorpus(e, label)
	}
	set := telemetry.New()
	st, err := corpusFor("instrumented")
	if err != nil {
		return nil, err
	}
	ps0 := readProcessStats()
	pass := runPass(ctx, e, st, set, names, warm, o, "instrumented pass")
	ps1 := readProcessStats()
	o.setProcess(ps0, ps1)

	phases := map[string]time.Duration{}
	var sumWall, maxWall time.Duration
	var coreRuns, coreScored int64
	for _, ev := range pass.evals {
		if ev == nil {
			continue
		}
		for _, ph := range ev.Phases {
			phases[ph.Name] += time.Duration(ph.DurationNS)
		}
		w := time.Duration(ev.WallNS)
		sumWall += w
		maxWall = max(maxWall, w)
		coreRuns += ev.VMRuns
		for _, sn := range suiteSchemes {
			coreScored += ev.Scheme(sn).Stats.Branches
		}
	}
	for _, ph := range []string{"corpus.load", "profile", "corpus.store", "replay", "fs.transform", "fs.eval"} {
		o.set("core."+ph+"_s", phases[ph].Seconds(), "s")
	}
	o.set("core.vm_runs", float64(coreRuns), "count")
	o.set("suite.bench_max_s", maxWall.Seconds(), "s")
	o.set("suite.straggler_s", (pass.wall - sumWall/time.Duration(e.nproc)).Seconds(), "s")
	o.set("suite.cpu_per_wall", (ps1.cpu-ps0.cpu).Seconds()/pass.wall.Seconds(), "ratio")
	o.set("suite.active_workers_peak", float64(set.Gauge("suite.active_workers_peak").Value()), "count")
	pass.evals = nil // the walks below hold their own traces

	var walls [2]time.Duration
	var tr *tracer
	var items []walkItem
	var c walkCounts
	for i, on := range []bool{false, true} {
		st, err := corpusFor(fmt.Sprintf("walk-%d", i))
		if err != nil {
			return nil, err
		}
		tr = newTracer(on)
		t0 := time.Now()
		items, c, err = mirrorSuite(ctx, e, tr, names, st, o)
		if err != nil {
			return nil, err
		}
		walls[i] = time.Since(t0)
	}
	o.set("trace.overhead_frac", walls[1].Seconds()/walls[0].Seconds()-1, "ratio")
	ins, evs, err := probeLayers(ctx, e, tr, items, map[string]bool{"sbtb": true, "cbtb": true}, o)
	if err != nil {
		return nil, err
	}
	ins += c.inserts
	evs += c.evictions
	tt := tr.totals()
	o.setLayers(e, tt, c, ins, evs)
	o.set("core.scored_events", float64(coreScored), "count")
	setServeZero(o)

	o.crossCheck("vm.runs", set.Counter("vm.runs").Value(), c.vmRuns)
	o.crossCheck("vm.steps", set.Counter("vm.steps").Value(), c.vmSteps)
	o.crossCheck("corpus.hits", set.Counter("corpus.hits").Value(), c.hits)
	o.crossCheck("tracefile.replay.events", set.Counter("tracefile.replay.events").Value(), c.replayEvents)
	var progScored, refScored int64
	for _, sn := range suiteSchemes {
		progScored += set.Counter("scheme." + sn + ".branches").Value()
	}
	for _, n := range names {
		for _, sn := range suiteSchemes {
			refScored += e.ref.Benchmarks[n].Suite[sn].Branches
		}
	}
	o.crossCheck("scored events", progScored, c.scored)
	o.crossCheck("scored events (reference)", refScored, c.scored)
	o.counts["vm_steps_per_pass"] = c.vmSteps
	o.counts["vm_runs_per_pass"] = c.vmRuns
	o.counts["scored_events_per_pass"] = c.scored
	o.counts["alloc_bytes_per_pass"] = int64(pass.alloc)

	o.note("ledger: walk %.3f s untraced, %.3f s traced; instrumented suite pass %.3f s on %d workers",
		walls[0].Seconds(), walls[1].Seconds(), pass.wall.Seconds(), e.nproc)
	for _, row := range []struct{ phase, span string }{
		{"corpus.load", "corpus.Store.LoadContext"},
		{"profile", "tracefile.Record+profile"},
		{"corpus.store", "corpus.Store.PutContext"},
		{"fs.transform", "fs.Transform"},
		{"fs.eval", "vm.Run:fs.eval"},
	} {
		o.gapNote(row.phase, phases[row.phase], get(tt, row.span).self)
	}
	o.gapNote("replay", phases["replay"],
		get(tt, "Trace.ScoreParallelContext:sbtb").self+get(tt, "Trace.ScoreParallelContext:cbtb").self)
	return o, tr.write(filepath.Join(".bench_build", "spans-"+e.workload+".json"))
}

// gapNote states one core phase beside the walk's time for the same layer
// calls. The phase runs beside another benchmark on the suite's workers and
// replays its schemes in parallel, while the walk runs alone and one
// scheme at a time, so the two are expected to differ.
func (o *outcome) gapNote(phase string, core, walk time.Duration) {
	gap := 0.0
	if walk > 0 {
		gap = core.Seconds()/walk.Seconds() - 1
	}
	o.note("ledger: core phase %-13s %9.3f s   walk %9.3f s   gap %+7.1f%%", phase, core.Seconds(), walk.Seconds(), 100*gap)
}

// setServeZero reports the daemon's metrics as 0 on a workload that sends it
// no requests.
func setServeZero(o *outcome) {
	for _, n := range []string{"serve.work_ms", "serve.overhead_ms", "serve.gen_late_ms_max"} {
		o.set(n, 0, "ms")
	}
	for _, n := range []string{"serve.inflight_peak", "serve.queue_depth_peak", "serve.rejected"} {
		o.set(n, 0, "count")
	}
}
