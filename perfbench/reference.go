package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"branchcost/internal/core"
	"branchcost/internal/oracle"
	"branchcost/internal/predict"
	"branchcost/internal/telemetry"
	"branchcost/internal/workloads"
)

//go:embed reference.json
var referenceJSON []byte

// statsRef is predict.Stats as committed in reference.json.
type statsRef struct {
	Branches     int64 `json:"branches"`
	Correct      int64 `json:"correct"`
	DirRight     int64 `json:"dir_right"`
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	CondBranches int64 `json:"cond_branches"`
	CondCorrect  int64 `json:"cond_correct"`
}

func statsOf(s predict.Stats) statsRef {
	return statsRef{s.Branches, s.Correct, s.DirRight, s.Hits, s.Misses, s.CondBranches, s.CondCorrect}
}

func (r statsRef) stats() predict.Stats {
	return predict.Stats{Branches: r.Branches, Correct: r.Correct, DirRight: r.DirRight,
		Hits: r.Hits, Misses: r.Misses, CondBranches: r.CondBranches, CondCorrect: r.CondCorrect}
}

// benchRef is one benchmark's exact expected outputs.
type benchRef struct {
	Runs       int     `json:"runs"`
	Events     int     `json:"events"`   // recorded branch events over all inputs
	Steps      int64   `json:"steps"`    // VM steps of the profiling pass
	FSSteps    int64   `json:"fs_steps"` // VM steps of the FS measurement pass
	AnalyticFS float64 `json:"analytic_fs"`

	// Suite holds sbtb, cbtb and fs as core scores them under the paper's
	// configuration; Replay holds every replayable scheme as the daemon
	// scores an uploaded trace under the registry defaults.
	Suite  map[string]statsRef `json:"suite"`
	Replay map[string]statsRef `json:"replay"`
}

type reference struct {
	// ReplaySchemes is the daemon's default upload scheme set, in the order
	// it streams them.
	ReplaySchemes []string             `json:"replay_schemes"`
	Benchmarks    map[string]*benchRef `json:"benchmarks"`
}

func loadReference() (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &r, nil
}

func (r *reference) bench(name string) (*benchRef, error) {
	b, ok := r.Benchmarks[name]
	if !ok {
		return nil, fmt.Errorf("reference.json has no benchmark %q", name)
	}
	return b, nil
}

// checkEval compares one suite evaluation's outputs with the reference:
// every scheme's Stats, the trace, whether it came from the corpus, and FS
// accuracy, which must equal the analytic A_FS exactly. How much work the
// evaluation did (its VM runs) is recorded, not checked, so that a change
// that saves work is not taken for a wrong answer.
func (r *reference) checkEval(o *outcome, ev *core.Eval, warm bool, where string) {
	b, err := r.bench(ev.Name)
	if err != nil {
		o.mismatch("%s: %v", where, err)
		return
	}
	if ev.FromCorpus != warm {
		o.mismatch("%s: %s: from_corpus=%v, want %v", where, ev.Name, ev.FromCorpus, warm)
	}
	if ev.Trace.Len() != b.Events || ev.Trace.Steps != b.Steps {
		o.mismatch("%s: %s: trace has %d events/%d steps, want %d/%d",
			where, ev.Name, ev.Trace.Len(), ev.Trace.Steps, b.Events, b.Steps)
	}
	for _, sn := range suiteSchemes {
		r.checkStats(o, where, ev.Name, sn, b.Suite, ev.Scheme(sn).Stats)
	}
	if got := ev.FS().Stats.Accuracy(); got != ev.AnalyticFS || got != b.AnalyticFS {
		o.mismatch("%s: %s: FS accuracy %v, analytic %v, reference %v",
			where, ev.Name, got, ev.AnalyticFS, b.AnalyticFS)
	}
}

// checkStats compares one scheme's Stats with want[scheme].
func (r *reference) checkStats(o *outcome, where, bench, scheme string, want map[string]statsRef, got predict.Stats) {
	w, ok := want[scheme]
	if !ok {
		o.mismatch("%s: %s: reference has no scheme %q", where, bench, scheme)
		return
	}
	if statsOf(got) != w {
		o.mismatch("%s: %s/%s: stats %+v, want %+v", where, bench, scheme, statsOf(got), w)
	}
}

// replayableSchemes is the daemon's default upload scheme set: every
// registered scheme that can score a bare trace, in registry-name order.
func replayableSchemes() []string {
	var out []string
	for _, n := range predict.SortedNames() {
		if sc, _ := predict.Lookup(n); !sc.Transformed && !sc.NeedsContext {
			out = append(out, n)
		}
	}
	return out
}

// writeReference evaluates every registered benchmark directly through core
// and the trace replay, validates the result, and writes it to path. The
// validation is: FS accuracy equals the analytic A_FS; every trace replays
// through every scheme that has an oracle twin with zero divergences; and
// the headline cells of the committed bench-json baseline (the newest
// BENCH_*.json in the working directory) agree count for count.
func writeReference(path string) error {
	ref := &reference{ReplaySchemes: replayableSchemes(), Benchmarks: map[string]*benchRef{}}
	verified := 0
	for _, b := range workloads.Everything() {
		set := telemetry.New()
		ev, err := core.EvaluateBenchmark(b, core.Config{Schemes: suiteSchemes, Telemetry: set})
		if err != nil {
			return err
		}
		if ev.FS().Stats.Accuracy() != ev.AnalyticFS {
			return fmt.Errorf("%s: FS accuracy %v differs from analytic %v", b.Name, ev.FS().Stats.Accuracy(), ev.AnalyticFS)
		}
		for _, v := range oracle.VerifyTrace(ev.Trace, nil) {
			switch {
			case v.Skipped != "":
			case !v.OK():
				return fmt.Errorf("%s: oracle: scheme %s: divergence %v, error %v", b.Name, v.Scheme, v.Div, v.Err)
			default:
				verified++
			}
		}
		br := &benchRef{
			Runs: b.Runs, Events: ev.Trace.Len(), Steps: ev.Trace.Steps,
			FSSteps:    set.Counter("vm.steps").Value() - ev.Trace.Steps,
			AnalyticFS: ev.AnalyticFS,
			Suite:      map[string]statsRef{}, Replay: map[string]statsRef{},
		}
		for _, sn := range suiteSchemes {
			br.Suite[sn] = statsOf(ev.Scheme(sn).Stats)
		}
		for _, sn := range ref.ReplaySchemes {
			pe := &predict.Evaluator{P: predict.MustLookup(sn).New(predict.SchemeContext{})}
			ev.Trace.Replay(pe.Observe)
			br.Replay[sn] = statsOf(pe.S)
		}
		ref.Benchmarks[b.Name] = br
	}
	cells, err := crossCheckBaseline(ref)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d benchmarks, %d oracle-verified scheme traces, %d baseline cells equal\n",
		path, len(ref.Benchmarks), verified, cells)
	return nil
}

// crossCheckBaseline compares the reference with the exact counts of the
// committed headline baseline and returns how many cells it compared.
func crossCheckBaseline(ref *reference) (int, error) {
	const baseline = "BENCH_20260808.json"
	data, err := os.ReadFile(baseline)
	if err != nil {
		return 0, fmt.Errorf("baseline: %w (run --write-reference from the repository root)", err)
	}
	var doc struct {
		Manifests []struct {
			Benchmark string `json:"benchmark"`
			Schemes   map[string]struct {
				Branches int64 `json:"branches"`
				Correct  int64 `json:"correct"`
				Hits     int64 `json:"hits"`
				Misses   int64 `json:"misses"`
			} `json:"schemes"`
		} `json:"manifests"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("%s: %w", baseline, err)
	}
	cells := 0
	var diffs []string
	for _, m := range doc.Manifests {
		b, err := ref.bench(m.Benchmark)
		if err != nil {
			return 0, err
		}
		for sn, want := range m.Schemes {
			got := b.Suite[sn]
			if got.Branches != want.Branches || got.Correct != want.Correct || got.Hits != want.Hits || got.Misses != want.Misses {
				diffs = append(diffs, fmt.Sprintf("%s/%s", m.Benchmark, sn))
			}
			cells++
		}
	}
	if len(diffs) > 0 {
		return cells, fmt.Errorf("%s disagrees on %s", baseline, strings.Join(diffs, ", "))
	}
	return cells, nil
}
