package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"branchcost/internal/predict"
	"branchcost/internal/serve"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// uploadPool is the serve-upload request pool: the six modern class
// benchmarks and the four smallest paper traces. grep and lex are left out:
// their 10 MB bodies take over a second each and would set the latency
// tail alone.
var uploadPool = []string{"interp", "scan-sorted", "scan-unsorted", "vcall", "btb-stress", "ctx-storm", "tar", "yacc", "wc", "cmp"}

// daemon is a serve.Server on a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error
}

// startDaemon starts a server with nproc in-flight slots and no warm set,
// and returns once /readyz answers 200.
func startDaemon(ctx context.Context, nproc int, client *http.Client) (*daemon, error) {
	srv := serve.New(serve.Config{Workers: nproc, MaxInFlight: nproc, WarmBenchmarks: []string{}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	if err := srv.WarmCheck(ctx); err != nil {
		d.stop()
		return nil, err
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := client.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon not ready after 10s (last error %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop shuts the server down and waits for it to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.served
	return err
}

// openMetrics reads the daemon's /metrics into a name → value map.
func (d *daemon) openMetrics(client *http.Client) (map[string]int64, error) {
	resp, err := client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// uploadBody is one pool member, recorded and BCT2-encoded during set-up.
type uploadBody struct {
	item walkItem
	data []byte
}

// uploadRun holds a serve-upload run's pool, daemon and client.
type uploadRun struct {
	e      *env
	bodies []uploadBody
	d      *daemon
	client *http.Client
	rng    *rand.Rand
}

// setupUpload compiles the pool's benchmarks, generates their inputs,
// records and encodes their traces and starts the daemon, as often as
// moreSetups asks. The last repetition's pool and daemon are kept.
func setupUpload(ctx context.Context, e *env, client *http.Client) (*uploadRun, []float64, error) {
	u := &uploadRun{e: e, client: client, rng: rand.New(rand.NewSource(e.seed))}
	var setups []float64
	for r, start := 0, time.Now(); moreSetups(r, start); r++ {
		if u.d != nil {
			if err := u.d.stop(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		u.bodies = u.bodies[:0]
		for _, name := range uploadPool {
			b, err := workloads.ByName(name)
			if err != nil {
				return nil, nil, err
			}
			if r > 0 {
				b = freshCopy(b)
			}
			prog, err := b.Program()
			if err != nil {
				return nil, nil, err
			}
			inputs := b.Inputs()
			tr, err := tracefile.Record(prog, inputs)
			if err != nil {
				return nil, nil, err
			}
			var buf bytes.Buffer
			if _, err := tr.WriteTo(&buf); err != nil {
				return nil, nil, err
			}
			u.bodies = append(u.bodies, uploadBody{
				item: walkItem{name: name, prog: prog, inputs: inputs, trace: tr}, data: buf.Bytes()})
		}
		d, err := startDaemon(ctx, e.nproc, client)
		if err != nil {
			return nil, nil, err
		}
		u.d = d
		setups = append(setups, time.Since(t0).Seconds())
	}
	return u, setups, nil
}

// reqResult is one request's outcome.
type reqResult struct {
	ok       bool          // 200 with a complete stream
	problems []string      // scores that differ from the reference
	latency  time.Duration // from when it was due (or sent) to the last byte
}

// ndLine is one line of the daemon's NDJSON stream.
type ndLine struct {
	Kind         string  `json:"kind"`
	Scheme       string  `json:"scheme"`
	Accuracy     float64 `json:"accuracy"`
	CondAccuracy float64 `json:"cond_accuracy"`
	MissRatio    float64 `json:"miss_ratio"`
	Branches     int64   `json:"branches"`
	Correct      int64   `json:"correct"`
	Hits         int64   `json:"hits"`
	Misses       int64   `json:"misses"`
	Schemes      int     `json:"schemes"`
}

// post uploads body i, reads the whole stream and checks every scheme line
// against the reference for that body. A refused or failed request is not
// ok; a wrong or missing score is a problem.
func (u *uploadRun) post(ctx context.Context, i int, from time.Time) reqResult {
	b := u.bodies[i]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u.d.url+"/eval", bytes.NewReader(b.data))
	if err != nil {
		return reqResult{problems: []string{err.Error()}}
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := u.client.Do(req)
	if err != nil {
		return reqResult{}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	res := reqResult{latency: time.Since(from)}
	if err != nil || resp.StatusCode != http.StatusOK {
		return res
	}
	res.ok = true
	res.problems = u.checkStream(b.item.name, data)
	return res
}

// checkStream compares a response stream with the reference: one line per
// default scheme, in order, with exact scores, then a done line.
func (u *uploadRun) checkStream(name string, data []byte) []string {
	br, err := u.e.ref.bench(name)
	if err != nil {
		return []string{err.Error()}
	}
	var lines []ndLine
	for _, raw := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var l ndLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return []string{fmt.Sprintf("%s: bad stream line %q: %v", name, raw, err)}
		}
		lines = append(lines, l)
	}
	want := u.e.ref.ReplaySchemes
	if len(lines) != len(want)+1 || lines[len(lines)-1].Kind != "done" || lines[len(lines)-1].Schemes != len(want) {
		return []string{fmt.Sprintf("%s: stream has %d lines, want %d scheme lines and done", name, len(lines), len(want))}
	}
	var problems []string
	for i, sn := range want {
		l, ref := lines[i], br.Replay[sn].stats()
		exp := ndLine{Kind: "scheme", Scheme: sn, Accuracy: ref.Accuracy(), CondAccuracy: ref.CondAccuracy(),
			MissRatio: ref.MissRatio(), Branches: ref.Branches, Correct: ref.Correct, Hits: ref.Hits, Misses: ref.Misses}
		if l != exp {
			problems = append(problems, fmt.Sprintf("%s: line %d: %+v, want %+v", name, i, l, exp))
		}
	}
	return problems
}

// record folds request results into the outcome.
func (o *outcome) record(results []reqResult) {
	for _, r := range results {
		o.attempted++
		if !r.ok {
			o.failed++
		}
		o.mismatches = append(o.mismatches, r.problems...)
	}
}

// closedLoop runs one round in which each of nproc clients posts every pool
// body once, in its own seeded order, sending its next request only when
// its previous one has completed. Every client carries the same work, so
// the round's wall time depends little on the order. It returns the
// round's wall time and the time each client took.
func (u *uploadRun) closedLoop(ctx context.Context) (wall time.Duration, clients []float64, results []reqResult) {
	orders := make([][]int, u.e.nproc)
	for c := range orders {
		orders[c] = u.rng.Perm(len(u.bodies))
	}
	clients = make([]float64, len(orders))
	res := make([][]reqResult, len(orders))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, order := range orders {
		wg.Add(1)
		go func(c int, order []int) {
			defer wg.Done()
			for _, i := range order {
				res[c] = append(res[c], u.post(ctx, i, time.Now()))
			}
			clients[c] = time.Since(t0).Seconds()
		}(c, order)
	}
	wg.Wait()
	wall = time.Since(t0)
	for _, r := range res {
		results = append(results, r...)
	}
	return wall, clients, results
}

// sequence returns n body indices: whole seeded permutations of the pool,
// so every body is sent equally often.
func (u *uploadRun) sequence(n int) []int {
	var seq []int
	for len(seq) < n {
		seq = append(seq, u.rng.Perm(len(u.bodies))...)
	}
	return seq[:n]
}

// openLoop starts send(k, due) for k = 0..n-1 at a fixed rate, due at k/rate
// after the start, whether or not earlier requests have completed. Each
// latency runs from the moment its request was due, so a stall also counts
// against every request due behind it, and a request that fails or is
// refused reads +Inf, beyond every success. late holds how far behind
// schedule the generator itself dispatched each request.
func openLoop(n int, rate float64, send func(k int, due time.Time) reqResult) (lat []float64, late []time.Duration, results []reqResult) {
	lat = make([]float64, n)
	late = make([]time.Duration, n)
	results = make([]reqResult, n)
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		late[k] = time.Since(due)
		wg.Add(1)
		go func(k int, due time.Time) {
			defer wg.Done()
			r := send(k, due)
			results[k] = r
			lat[k] = math.Inf(1)
			if r.ok {
				lat[k] = float64(r.latency.Nanoseconds()) / 1e6
			}
		}(k, due)
	}
	wg.Wait()
	return lat, late, results
}

// closedShare is the part of the run time after which no new closed-loop
// round starts; openShare is the part the open-loop phase is sized to.
const (
	closedShare = 0.5
	openShare   = 0.55
)

// openLoopRequests is how many open-loop requests fit the open phase at
// rate, in whole rounds of the pool so that every run sends each body
// equally often, and at least two rounds so that p90 has more than one
// sample beyond it.
func openLoopRequests(seconds time.Duration, rate float64, pool int) int {
	rounds := int(math.Round(openShare * seconds.Seconds() * rate / float64(pool)))
	return max(rounds, 2) * pool
}

// runUpload runs serve-upload: set-up, closed-loop rounds with nproc
// clients, then an open-loop phase at the manifest's fixed rate. Times are
// scaled to the reference speed: set-up by the factor of the whole set-up,
// each round by the factor of that round, and the open-loop latencies by
// the factor of the open-loop phase.
func runUpload(ctx context.Context, e *env, traced bool) (*outcome, error) {
	o := newOutcome()
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: e.nproc, MaxIdleConnsPerHost: e.nproc, DisableCompression: true}}
	defer client.CloseIdleConnections()
	var probe *speedProbe
	if !traced {
		probe = startSpeedProbe(e.man.SpeedRefMS)
		defer probe.stop()
	}
	setupStart := time.Now()
	u, setups, err := setupUpload(ctx, e, client)
	if err != nil {
		return nil, err
	}
	defer u.d.stop()
	setupFactor := probe.factor(setupStart, time.Now())
	for _, b := range u.bodies {
		br, err := e.ref.bench(b.item.name)
		if err != nil {
			return nil, err
		}
		if b.item.trace.Len() != br.Events {
			o.mismatch("set-up: %s: recorded %d events, want %d", b.item.name, b.item.trace.Len(), br.Events)
		}
	}
	if traced {
		return uploadLedger(ctx, u, o)
	}

	smp := startSampler(nil)
	defer smp.stop()
	var peaks, clients, roundWalls, factors []float64
	var wall float64 // scaled seconds
	rounds := 0
	for start := time.Now(); rounds == 0 || time.Since(start) < time.Duration(closedShare*float64(e.seconds)); rounds++ {
		runtime.GC() // start each round without the previous round's garbage
		smp.takeHeapPeak()
		t0 := time.Now()
		w, c, res := u.closedLoop(ctx)
		f := probe.factor(t0, time.Now())
		peaks = append(peaks, smp.takeHeapPeak())
		factors = append(factors, f)
		wall += w.Seconds() / f
		roundWalls = append(roundWalls, w.Seconds())
		for _, ct := range c {
			clients = append(clients, ct/f)
		}
		o.record(res)
	}
	closed := o.attempted
	runtime.GC()
	smp.takeHeapPeak()
	n := openLoopRequests(e.seconds, e.man.OpenLoopRPS, len(u.bodies))
	seq := u.sequence(n)
	t0 := time.Now()
	lat, late, open := openLoop(n, e.man.OpenLoopRPS, func(k int, due time.Time) reqResult {
		return u.post(ctx, seq[k], due)
	})
	openFactor := probe.factor(t0, time.Now())
	peaks = append(peaks, smp.takeHeapPeak())
	o.record(open)

	byBody := latencies{}
	for k, l := range lat {
		byBody.add(u.bodies[seq[k]].item.name, l/openFactor)
	}
	pv, beyond, samples := byBody.percentiles(50, 90)
	openMS := float64(n) / e.man.OpenLoopRPS * 1e3
	o.set("setup_s", median(setups)/setupFactor, "s")
	o.set("suite_s", median(clients), "s")
	o.set("capacity_rps", float64(closed)/wall, "req/s")
	o.set("latency_p50_ms", finiteOr(pv[0], openMS), "ms")
	o.set("latency_p90_ms", finiteOr(pv[1], openMS), "ms")
	o.set("peak_heap_mb", median(peaks), "MB")
	var maxLate time.Duration
	for _, l := range late {
		maxLate = max(maxLate, l)
	}
	o.note("serve-upload: setup repetitions %.3f s as measured; closed loop: %d rounds of %d clients each posting the %d bodies once, round times %.3f s as measured, client times %.3f s scaled",
		setups, rounds, e.nproc, len(u.bodies), roundWalls, clients)
	o.note("speed factor (probe kernel time over %.2f ms): set-up %.3f, rounds %.3f, open loop %.3f; the metrics are the measured times divided by these",
		probe.refMS, setupFactor, factors, openFactor)
	o.note("open loop: %d requests at %.2f/s, %d samples of %d bodies; p50 and p90 of the bodies' medians, %d and %d samples beyond; generator late by at most %.3f ms",
		n, e.man.OpenLoopRPS, samples, len(byBody), beyond[0], beyond[1], float64(maxLate.Microseconds())/1e3)
	var bodyBytes int64
	for _, b := range u.bodies {
		bodyBytes += int64(len(b.data))
	}
	o.counts["pool_bytes"] = bodyBytes
	o.counts["closed_requests"] = closed
	o.counts["open_requests"] = int64(n)
	return o, nil
}

// finiteOr returns v, or stand when v is +Inf: a percentile that reaches
// into failed requests reads as the whole open-loop phase.
func finiteOr(v, stand float64) float64 {
	if math.IsInf(v, 1) {
		return stand
	}
	return v
}

// uploadLedger is the traced run of serve-upload. Each pool body is decoded
// and replayed by direct calls, which is the request's work; every layer
// is probed alone over the pool; one client round goes to the daemon
// untraced and then traced, one request at a time, against the program's
// counters; and the open-loop phase runs with a client span per request.
func uploadLedger(ctx context.Context, u *uploadRun, o *outcome) (*outcome, error) {
	e := u.e
	tr := newTracer(true)
	var c walkCounts
	work := map[string]time.Duration{}
	for _, b := range u.bodies {
		br, err := e.ref.bench(b.item.name)
		if err != nil {
			return nil, err
		}
		root := tr.root(e.workload+"/"+b.item.name+"/work", b.item.name, "work")
		t0 := time.Now()
		sp := tr.begin("tracefile.ReadTrace:body")
		t, err := tracefile.ReadTrace(bytes.NewReader(b.data))
		tr.end(sp, int64(len(b.data)))
		if err != nil {
			return nil, err
		}
		evals := make([]*predict.Evaluator, len(e.ref.ReplaySchemes))
		hooks := make([]vm.BranchFunc, len(evals))
		for i, sn := range e.ref.ReplaySchemes {
			evals[i] = &predict.Evaluator{P: predict.MustLookup(sn).New(predict.SchemeContext{})}
			hooks[i] = evals[i].Hook()
		}
		sp = tr.begin("Trace.ScoreParallelContext:all")
		err = t.ScoreParallelContext(ctx, hooks...)
		tr.end(sp, int64(t.Len()*len(hooks)))
		if err != nil {
			return nil, err
		}
		work[b.item.name] = time.Since(t0)
		tr.end(root, 0)
		for i, sn := range e.ref.ReplaySchemes {
			e.ref.checkStats(o, "direct work", b.item.name, sn, br.Replay, evals[i].S)
			c.scored += evals[i].S.Branches
		}
		c.replayEvents += int64(t.Len() * len(hooks))
	}
	var items []walkItem
	for _, b := range u.bodies {
		items = append(items, b.item)
	}
	ins, evs, err := probeLayers(ctx, e, tr, items, nil, o)
	if err != nil {
		return nil, err
	}

	// One request at a time, so each request's time is its work plus the
	// daemon's overhead: first untraced, then traced with program counters
	// read from /metrics around it.
	single := func(spans bool) (time.Duration, []reqResult) {
		t0 := time.Now()
		var res []reqResult
		for i, b := range u.bodies {
			root := -1
			if spans {
				root = tr.root(strconv.Itoa(i), b.item.name, "client.request")
			}
			res = append(res, u.post(ctx, i, time.Now()))
			tr.end(root, int64(len(b.data)))
		}
		return time.Since(t0), res
	}
	untracedWall, res0 := single(false)
	before, err := u.d.openMetrics(u.client)
	if err != nil {
		return nil, err
	}
	tracedWall, res1 := single(true)
	after, err := u.d.openMetrics(u.client)
	if err != nil {
		return nil, err
	}
	o.record(res0)
	o.record(res1)
	var overhead, workSum time.Duration
	for i, b := range u.bodies {
		overhead += res1[i].latency - work[b.item.name]
		workSum += work[b.item.name]
	}
	nb := time.Duration(len(u.bodies))
	o.set("serve.work_ms", float64((workSum/nb).Microseconds())/1e3, "ms")
	o.set("serve.overhead_ms", float64((overhead/nb).Microseconds())/1e3, "ms")
	o.set("trace.overhead_frac", tracedWall.Seconds()/untracedWall.Seconds()-1, "ratio")
	delta := func(name string) int64 { return after[name] - before[name] }
	var served int64
	for _, r := range res1 {
		if r.ok {
			served++
		}
	}
	o.crossCheck("vm.runs", delta("vm_runs"), c.vmRuns)
	o.crossCheck("vm.steps", delta("vm_steps"), c.vmSteps)
	o.crossCheck("corpus.hits", delta("corpus_hits"), c.hits)
	o.crossCheck("tracefile.replay.events", delta("tracefile_replay_events"), c.replayEvents)
	o.crossCheck("uploads served", delta("serve_evals_ok"), served)

	// The open-loop phase, with a client span per request.
	gauge := u.d.srv.Telemetry().Gauge("serve.queue_depth")
	smp := startSampler(gauge.Value)
	ps0 := readProcessStats()
	n := openLoopRequests(e.seconds, e.man.OpenLoopRPS, len(u.bodies))
	seq := u.sequence(n)
	var mu sync.Mutex // guards tr.spans against concurrent requests
	_, late, open := openLoop(n, e.man.OpenLoopRPS, func(k int, due time.Time) reqResult {
		r := u.post(ctx, seq[k], due)
		mu.Lock()
		tr.spans = append(tr.spans, spanRec{ID: strconv.Itoa(len(u.bodies) + k), Bench: u.bodies[seq[k]].item.name,
			Name: "client.request", Parent: -1, Start: due.Sub(tr.t0).Nanoseconds(),
			End: due.Add(r.latency).Sub(tr.t0).Nanoseconds()})
		mu.Unlock()
		return r
	})
	ps1 := readProcessStats()
	queuePeak := smp.stop()
	o.record(open)
	final, err := u.d.openMetrics(u.client)
	if err != nil {
		return nil, err
	}
	var maxLate time.Duration
	for _, l := range late {
		maxLate = max(maxLate, l)
	}
	var rejected int64
	for k, v := range final {
		if strings.HasPrefix(k, "serve_rejected_") {
			rejected += v
		}
	}
	o.setProcess(ps0, ps1)
	o.set("serve.inflight_peak", float64(final["serve_inflight_peak"]), "count")
	o.set("serve.queue_depth_peak", float64(queuePeak), "count")
	o.set("serve.rejected", float64(rejected), "count")
	o.set("serve.gen_late_ms_max", float64(maxLate.Microseconds())/1e3, "ms")

	o.setLayers(e, tr.totals(), c, ins, evs)
	setSuiteZero(o)
	o.counts["replay_events_per_round"] = c.replayEvents
	o.counts["scored_events_per_round"] = c.scored
	o.note("ledger: direct work %.3f s for one round; single-client round %.3f s untraced, %.3f s traced",
		workSum.Seconds(), untracedWall.Seconds(), tracedWall.Seconds())
	return o, tr.write(filepath.Join(".bench_build", "spans-"+e.workload+".json"))
}

// setSuiteZero reports the suite's and core's metrics as 0 on a workload
// whose requests never reach the suite: uploads are replayed directly.
func setSuiteZero(o *outcome) {
	for _, ph := range []string{"corpus.load", "profile", "corpus.store", "replay", "fs.transform", "fs.eval"} {
		o.set("core."+ph+"_s", 0, "s")
	}
	o.set("core.vm_runs", 0, "count")
	o.set("core.scored_events", 0, "count")
	o.set("suite.bench_max_s", 0, "s")
	o.set("suite.straggler_s", 0, "s")
	o.set("suite.cpu_per_wall", 0, "ratio")
	o.set("suite.active_workers_peak", 0, "count")
}
