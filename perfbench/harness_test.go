package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"branchcost/internal/workloads"
)

func TestPercentileSampleCounts(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 down to 0: interpolate must sort
	}
	for _, c := range []struct{ p, want float64 }{{0, 0}, {50, 50}, {90, 90}, {100, 100}, {12.5, 12.5}} {
		if v := interpolate(xs, c.p); v != c.want {
			t.Errorf("p%v of 0..100 = %v, want %v", c.p, v, c.want)
		}
	}
	if v := interpolate([]float64{10, 20}, 90); math.Abs(v-19) > 1e-9 {
		t.Errorf("p90 of {10, 20} = %v, want 19", v)
	}

	// Ten items of 100·k ms, each sampled twice with ±1 ms of noise, as an
	// open-loop phase of two pool rounds gives: the percentiles are read
	// from the items' medians, so they sit between two items instead of on
	// one item's slowest sample.
	l := latencies{}
	for k := 1; k <= 10; k++ {
		item := strconv.Itoa(k)
		l.add(item, float64(100*k)-1)
		l.add(item, float64(100*k)+1)
	}
	v, beyond, samples := l.percentiles(50, 90)
	if samples != 20 {
		t.Errorf("%d samples, want 20", samples)
	}
	if v[0] != 550 || beyond[0] != 10 {
		t.Errorf("p50 = %v with %d beyond, want 550 with 10", v[0], beyond[0])
	}
	if math.Abs(v[1]-910) > 1e-9 || beyond[1] != 2 {
		t.Errorf("p90 = %v with %d beyond, want 910 with 2 (item 10)", v[1], beyond[1])
	}
}

func TestOpenLoopDueTimesAndLateness(t *testing.T) {
	// A server that serves one request at a time, 40 ms each, offered one
	// every 10 ms. An open loop keeps dispatching on schedule while the
	// queue grows, so the generator is never late by a service time, and
	// each request's latency counts the queue it was due behind.
	const n, rate = 8, 100.0
	var mu sync.Mutex
	dues := make([]time.Time, n)
	send := func(k int, due time.Time) reqResult {
		dues[k] = due
		mu.Lock()
		time.Sleep(40 * time.Millisecond)
		mu.Unlock()
		return reqResult{ok: true, latency: time.Since(due)}
	}
	lat, late, results := openLoop(n, rate, send)
	for k := 1; k < n; k++ {
		if d := dues[k].Sub(dues[0]); d != time.Duration(k)*10*time.Millisecond {
			t.Errorf("request %d due %v after the first, want %v", k, d, time.Duration(k)*10*time.Millisecond)
		}
	}
	for k, l := range late {
		if l > 30*time.Millisecond {
			t.Errorf("generator dispatched request %d %v late: it waited for a completion", k, l)
		}
	}
	slowest := 0.0
	for k, l := range lat {
		if l != float64(results[k].latency.Nanoseconds())/1e6 {
			t.Errorf("request %d: latency %v ms, result says %v", k, l, results[k].latency)
		}
		slowest = math.Max(slowest, l)
	}
	// The last of eight 40 ms services ends ≥ 320 ms after the first due
	// time, and the last request was due at 70 ms.
	if slowest < 250 {
		t.Errorf("slowest latency %.1f ms: queueing behind earlier requests was not counted", slowest)
	}
}

func TestFailuresRankBeyondSuccesses(t *testing.T) {
	// Requests 1 and 3 are refused at once; every success takes longer.
	lat, _, _ := openLoop(5, 1000, func(k int, due time.Time) reqResult {
		if k == 1 || k == 3 {
			return reqResult{ok: false, latency: time.Microsecond}
		}
		time.Sleep(20 * time.Millisecond)
		return reqResult{ok: true, latency: time.Since(due)}
	})
	for _, k := range []int{1, 3} {
		if !math.IsInf(lat[k], 1) {
			t.Errorf("refused request %d has latency %v, want +Inf", k, lat[k])
		}
	}
	// Each request is its own item here, so the percentiles rank requests.
	l := latencies{}
	for k, ms := range lat {
		l.add(strconv.Itoa(k), ms)
	}
	v, beyond, _ := l.percentiles(50, 75)
	if math.IsInf(v[0], 1) || v[0] < 20 {
		t.Errorf("p50 = %v, want the slowest success", v[0])
	}
	if !math.IsInf(v[1], 1) || beyond[1] != 0 {
		t.Errorf("p75 = %v with %d beyond, want +Inf (a failure) with 0 beyond", v[1], beyond[1])
	}
	// One failure among an item's two samples makes the item miss too.
	if m := median([]float64{5, math.Inf(1)}); !math.IsInf(m, 1) {
		t.Errorf("median of a success and a failure = %v, want +Inf", m)
	}
	if got := finiteOr(math.Inf(1), 1234); got != 1234 {
		t.Errorf("finiteOr(+Inf) = %v", got)
	}
}

// fakeDaemon answers POST /eval with the reference stream for body name,
// altered by mutate, or with status when it is not 200.
func fakeDaemon(t *testing.T, ref *reference, name string, status int, mutate func(*ndLine)) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if status != http.StatusOK {
			w.WriteHeader(status)
			return
		}
		enc := json.NewEncoder(w)
		for _, sn := range ref.ReplaySchemes {
			st := ref.Benchmarks[name].Replay[sn].stats()
			l := ndLine{Kind: "scheme", Scheme: sn, Accuracy: st.Accuracy(), CondAccuracy: st.CondAccuracy(),
				MissRatio: st.MissRatio(), Branches: st.Branches, Correct: st.Correct, Hits: st.Hits, Misses: st.Misses}
			if mutate != nil {
				mutate(&l)
			}
			enc.Encode(l)
		}
		enc.Encode(map[string]any{"kind": "done", "name": "upload", "schemes": len(ref.ReplaySchemes)})
	}))
}

func TestPostChecksStreamAndTimesFromDue(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		status   int
		mutate   func(*ndLine)
		ok       bool
		problems bool
	}{
		{"exact", http.StatusOK, nil, true, false},
		{"wrong hits", http.StatusOK, func(l *ndLine) {
			if l.Scheme == "tage" {
				l.Hits++
			}
		}, true, true},
		{"refused", http.StatusServiceUnavailable, nil, false, false},
	} {
		srv := fakeDaemon(t, ref, "wc", c.status, c.mutate)
		u := &uploadRun{e: &env{ref: ref}, bodies: []uploadBody{{item: walkItem{name: "wc"}, data: []byte("BCT2")}},
			d: &daemon{url: srv.URL}, client: srv.Client()}
		due := time.Now().Add(-time.Second)
		r := u.post(context.Background(), 0, due)
		srv.Close()
		if r.ok != c.ok || (len(r.problems) > 0) != c.problems {
			t.Errorf("%s: ok=%v problems=%q, want ok=%v problems=%v", c.name, r.ok, r.problems, c.ok, c.problems)
		}
		if c.ok && r.latency < time.Second {
			t.Errorf("%s: latency %v is not measured from the due time a second ago", c.name, r.latency)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{on: true, spans: []spanRec{
		{ID: "w/a/0", Bench: "a", Name: "bench", Parent: -1, Start: 0, End: 100, Alloc: 1000},
		{ID: "w/a/0", Bench: "a", Name: "vm.Run:bare", Parent: 0, Start: 10, End: 40, Alloc: 300, Count: 7},
		{ID: "w/a/0", Bench: "a", Name: "vm.Run:bare", Parent: 0, Start: 50, End: 70, Alloc: 200, Count: 5},
		{ID: "w/b/0", Bench: "b", Name: "vm.Run:bare", Parent: -1, Start: 200, End: 210, Alloc: 10, Count: 1},
	}}
	tt := tr.totals()
	if got := get(tt, "bench"); got.self != 50 || got.alloc != 500 {
		t.Errorf("bench self %v alloc %d, want 50ns and 500", got.self, got.alloc)
	}
	if got := get(tt, "vm.Run:bare"); got.self != 60 || got.count != 13 {
		t.Errorf("vm.Run:bare total %+v, want 60ns and 13 counted", got)
	}
	if got := get(tt, "vm.Run:bare@a"); got.self != 50 || got.count != 12 {
		t.Errorf("vm.Run:bare@a total %+v, want 50ns and 12", got)
	}
	off := newTracer(false)
	off.end(off.root("x", "a", "bench"), 1)
	if len(off.spans) != 0 {
		t.Errorf("a tracer that is off recorded %d spans", len(off.spans))
	}
}

func TestMetricNameCharacterSet(t *testing.T) {
	for _, n := range []string{"setup_s", "replay.always-not-taken.btb-stress.ns_per_event", "9lives", strings.Repeat("a", 64)} {
		if !nameRE.MatchString(n) {
			t.Errorf("valid name %q rejected", n)
		}
	}
	for _, n := range []string{"", "_x", ".x", "a b", "a/b", "error%", strings.Repeat("a", 65)} {
		if nameRE.MatchString(n) {
			t.Errorf("invalid name %q accepted", n)
		}
	}
	for _, u := range []string{"ms", "s", "req/s", "1/s", "MB/s", "%", "count", "ratio"} {
		if !unitRE.MatchString(u) {
			t.Errorf("valid unit %q rejected", u)
		}
	}
	for _, u := range []string{"", "m s", "ms;", strings.Repeat("u", 17)} {
		if unitRE.MatchString(u) {
			t.Errorf("invalid unit %q accepted", u)
		}
	}
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), man.EndToEnd...), man.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q (%q): invalid name or unit", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestCheckMetrics(t *testing.T) {
	want := []metricSpec{{Name: "a_s", Unit: "s"}, {Name: "b_ms", Unit: "ms"}}
	good := map[string]metric{"a_s": {1, "s"}, "b_ms": {2, "ms"}}
	if err := checkMetrics(good, want); err != nil {
		t.Errorf("complete metrics rejected: %v", err)
	}
	for name, bad := range map[string]map[string]metric{
		"missing":    {"a_s": {1, "s"}},
		"extra":      {"a_s": {1, "s"}, "b_ms": {2, "ms"}, "c": {3, "s"}},
		"wrong unit": {"a_s": {1, "ms"}, "b_ms": {2, "ms"}},
		"not finite": {"a_s": {math.NaN(), "s"}, "b_ms": {2, "ms"}},
	} {
		if checkMetrics(bad, want) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestManifestMapsLayers checks that every per-layer metric names its
// layer, the end-to-end metric it should move and the workloads it is
// measured on, and that the bounds follow the benchmark's rules.
func TestManifestMapsLayers(t *testing.T) {
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bounds struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &bounds); err != nil {
		t.Fatal(err)
	}
	maxBound, setupBound := 0.0, 0.0
	for _, m := range bounds.EndToEnd {
		maxBound = math.Max(maxBound, m.Bound)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s has bound %v, not the largest (%v)", setupBound, maxBound)
	}

	e2e := map[string]bool{}
	for _, m := range man.EndToEnd {
		e2e[m.Name] = true
	}
	for _, d := range man.Dropped {
		e2e[d.Name] = true
	}
	for _, m := range man.PerLayer {
		info := man.Metrics[m.Name]
		if info.Layer == "" || len(info.On) == 0 || info.Definition == "" {
			t.Errorf("%s: no layer, workloads or definition", m.Name)
		}
		if len(info.Moves) == 0 && info.Layer != "tracing" {
			t.Errorf("%s names no end-to-end metric it should move", m.Name)
		}
		for _, mv := range info.Moves {
			if !e2e[mv] {
				t.Errorf("%s moves %q, which is no end-to-end metric", m.Name, mv)
			}
		}
		for _, w := range info.On {
			if _, ok := man.Workloads[w]; !ok {
				t.Errorf("%s is measured on unknown workload %q", m.Name, w)
			}
		}
	}
}

func TestSubmissionOrder(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	names := allNames()
	rng := rand.New(rand.NewSource(1))
	a, b := submissionOrder(names, ref, rng), submissionOrder(names, ref, rng)
	if strings.Join(a, ",") == strings.Join(b, ",") {
		t.Errorf("two passes drew the same order %v", a)
	}
	for _, order := range [][]string{a, b} {
		if len(order) != len(names) {
			t.Fatalf("order %v is not a permutation of %v", order, names)
		}
		seen := map[string]bool{}
		for i, n := range order {
			seen[n] = true
			if i >= largeFirst {
				continue
			}
			for _, m := range order[largeFirst:] {
				if ref.Benchmarks[m].Events > ref.Benchmarks[n].Events {
					t.Errorf("%s (%d events) submitted after the smaller %s", m, ref.Benchmarks[m].Events, n)
				}
			}
		}
		if len(seen) != len(names) {
			t.Errorf("order %v repeats a benchmark", order)
		}
	}
}

func TestReferenceCoversRegistry(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(ref.ReplaySchemes, ","), strings.Join(replayableSchemes(), ","); got != want {
		t.Errorf("reference replay schemes %s, registry %s", got, want)
	}
	for _, b := range workloads.Everything() {
		br, ok := ref.Benchmarks[b.Name]
		if !ok {
			t.Errorf("reference has no %s", b.Name)
			continue
		}
		if len(br.Suite) != len(suiteSchemes) || len(br.Replay) != len(ref.ReplaySchemes) || br.Runs != b.Runs {
			t.Errorf("%s: reference has %d suite and %d replay schemes over %d runs", b.Name, len(br.Suite), len(br.Replay), br.Runs)
		}
	}
	for _, n := range uploadPool {
		if _, ok := ref.Benchmarks[n]; !ok {
			t.Errorf("upload pool member %s has no reference", n)
		}
	}
}

func TestSpeedFactorIsIntervalMedian(t *testing.T) {
	t0 := time.Now()
	p := &speedProbe{refMS: 0.5}
	for i, ms := range []float64{0.5, 0.6, 9, 0.7, 1.0, 1.0, 1.2} {
		p.record(t0.Add(time.Duration(i)*time.Second), ms, 0)
	}
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	// Samples 0..3 (0.5, 0.6, 9, 0.7): the median ignores the stalled one.
	if f := p.factor(at(0), at(4)); math.Abs(f-1.3) > 1e-9 {
		t.Errorf("factor over samples 0..3 = %v, want 1.3", f)
	}
	if f := p.factor(at(4), at(7)); math.Abs(f-2) > 1e-9 {
		t.Errorf("factor over samples 4..6 = %v, want 2", f)
	}
	if f := p.factor(at(10), at(11)); f != 1 {
		t.Errorf("factor of an interval without samples = %v, want 1", f)
	}
	var none *speedProbe
	if f := none.factor(at(0), at(7)); f != 1 {
		t.Errorf("factor of a nil probe = %v, want 1", f)
	}
	none.stop()

	live := startSpeedProbe(1.2)
	time.Sleep(5 * probeEvery)
	live.stop()
	if f := live.factor(t0, time.Now()); len(live.ms) == 0 || f <= 0 {
		t.Errorf("a running probe took %d samples, factor %v", len(live.ms), f)
	}
}
