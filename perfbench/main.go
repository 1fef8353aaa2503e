// Command perfbench is the repository's benchmark. It drives the branch-cost
// simulator from outside on one of three workloads and prints, as the last
// line of standard output, one JSON object with the keys correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end metrics,
// measured untraced; with --trace 1 a separate traced run walks the layers
// and reports the per-layer ledger. Every output is checked exactly against
// reference.json; any mismatch makes the run incorrect.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload suite-cold --seed 1 --seconds 30 --trace 0
//
// The workloads and their metrics are listed in BENCHMARK.json at the
// repository root; manifest.json adds the benchmark's frozen settings and,
// for every metric, its definition and the layer, end-to-end metric and
// workloads it belongs to. --write-reference regenerates reference.json
// from the program and validates it.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"
)

//go:embed manifest.json
var manifestJSON []byte

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload runner needs: the parsed arguments, the
// machine's size and a scratch directory inside the checkout.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	nproc    int
	work     string // scratch directory, removed on exit
	ref      *reference
	man      *manifest
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int64
	mismatches        []string
	metrics           map[string]metric
	counts            map[string]int64 // exact counts, recorded as provenance
	notes             []string         // human-readable lines printed before the result
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, counts: map[string]int64{}}
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func main() { os.Exit(run()) }

func run() int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload to run: suite-cold, suite-warm or serve-upload")
	seed := fl.Int64("seed", 1, "seed for the submission order and the request sequence")
	seconds := fl.Int("seconds", 30, "length of the timed phase in seconds")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end run")
	writeRef := fl.String("write-reference", "", "regenerate the reference into this file, validate it and exit")
	if err := fl.Parse(os.Args[1:]); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *writeRef != "" {
		if err := writeReference(*writeRef); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	man, err := loadManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if _, ok := man.Workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *workload, strings.Join(man.workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	work := filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	e := &env{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		nproc: runtime.NumCPU(), work: work, ref: ref, man: man,
	}
	ctx := context.Background()
	var out *outcome
	switch {
	case *workload == "serve-upload":
		out, err = runUpload(ctx, e, *trace == 1)
	default:
		out, err = runSuite(ctx, e, *workload == "suite-warm", *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	want := man.EndToEnd
	if *trace == 1 {
		want = man.PerLayer
	}
	if err := checkMetrics(out.metrics, want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	for _, n := range out.notes {
		fmt.Println(n)
	}
	printMetrics(out)
	prov, _ := json.Marshal(map[string]any{"provenance": provenance(e, *trace == 1, out.counts)})
	fmt.Println(string(prov))
	for _, m := range out.mismatches {
		fmt.Fprintln(os.Stderr, "MISMATCH:", m)
	}
	res := report{
		Correct:   len(out.mismatches) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printMetrics prints every metric by name with its unit, one per line, and
// the error fraction, which the result line carries as failed/attempted.
func printMetrics(o *outcome) {
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-48s %16.6f %s\n", n, o.metrics[n].Value, o.metrics[n].Unit)
	}
	frac := 0.0
	if o.attempted > 0 {
		frac = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("%-48s %16.6f %s (%d failed of %d attempted)\n", "error_frac", frac, "ratio", o.failed, o.attempted)
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetrics verifies that got holds exactly the metrics of want, each
// with its declared unit, a valid name and a finite value.
func checkMetrics(got map[string]metric, want []metricSpec) error {
	if len(got) != len(want) {
		return fmt.Errorf("measured %d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", w.Name)
		case m.Unit != w.Unit:
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		case !nameRE.MatchString(w.Name) || !unitRE.MatchString(w.Unit):
			return fmt.Errorf("metric %s (%s): invalid name or unit", w.Name, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is not finite", w.Name)
		}
	}
	return nil
}
