package tracefile

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"branchcost/internal/isa"
	"branchcost/internal/telemetry"
	"branchcost/internal/vm"
)

// syntheticTrace builds an in-memory trace of n events over a handful of
// sites, for replay benchmarks that must not depend on the compiler.
func syntheticTrace(n int) *Trace {
	t := &Trace{}
	for i := 0; i < n; i++ {
		pc := int32(10 + i%8)
		taken := i%3 != 0
		target := pc + 1
		if taken {
			target = pc + 40
		}
		t.Record(vm.BranchEvent{PC: pc, ID: pc, Op: isa.BEQ, Taken: taken, Target: target})
	}
	return t
}

// mixedTrace builds an n-event trace in which every fifth event is an
// indirect jump, so the stream holds more words than events.
func mixedTrace(n int) *Trace {
	t := &Trace{}
	for i := 0; i < n; i++ {
		pc := int32(10 + i%8)
		ev := vm.BranchEvent{PC: pc, ID: pc, Op: isa.BEQ, Taken: i%3 != 0, Target: pc + 1}
		switch {
		case i%5 == 0:
			ev = vm.BranchEvent{PC: 100, ID: 100, Op: isa.JMPI, Taken: true, Target: int32(200 + i%13)}
		case ev.Taken:
			ev.Target = pc + 40
		}
		t.Record(ev)
	}
	return t
}

// TestReplayEventCounter checks the replay inner loop's telemetry contract:
// a single-hook replay decodes each event exactly once and counts it.
func TestReplayEventCounter(t *testing.T) {
	tr := syntheticTrace(10_000)
	set := telemetry.New()
	ctx := telemetry.NewContext(context.Background(), set)
	var seen int
	if err := tr.ScoreParallelContext(ctx, func(vm.BranchEvent) { seen++ }); err != nil {
		t.Fatal(err)
	}
	if seen != tr.Len() {
		t.Fatalf("hook saw %d events, trace has %d", seen, tr.Len())
	}
	if got := set.Counter("tracefile.replay.events").Value(); got != int64(tr.Len()) {
		t.Fatalf("replay.events = %d, want %d", got, tr.Len())
	}
}

// TestReplayCounterParallel: parallel workers each flush a local count into
// the shared counter, once per chunk and once on return, so after a
// multi-hook replay it reads exactly hooks × Len(). The trace spans several
// chunks, its length is not a multiple of ctxCheckEvery, and its JMPI
// events make chunk boundaries (counted in stream words) fall off event
// multiples of ctxCheckEvery.
func TestReplayCounterParallel(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	tr := mixedTrace(3*ctxCheckEvery + 777)
	if words := len(tr.stream); words == tr.Len() || words%ctxCheckEvery == 0 {
		t.Fatalf("trace of %d events in %d words does not straddle chunk boundaries", tr.Len(), words)
	}
	set := telemetry.New()
	ctx := telemetry.NewContext(context.Background(), set)
	var seen [3]int
	hooks := make([]vm.BranchFunc, len(seen))
	for i := range hooks {
		hooks[i] = func(vm.BranchEvent) { seen[i]++ }
	}
	if err := tr.ScoreParallelContext(ctx, hooks...); err != nil {
		t.Fatal(err)
	}
	for i, n := range seen {
		if n != tr.Len() {
			t.Errorf("hook %d saw %d events, trace has %d", i, n, tr.Len())
		}
	}
	if got, want := set.Counter("tracefile.replay.events").Value(), int64(len(hooks)*tr.Len()); got != want {
		t.Fatalf("replay.events = %d, want %d", got, want)
	}
}

// TestReplayCounterCancel: a replay cancelled mid-stream returns the
// context's error, and the counter then equals the hook calls actually
// made — the count of the chunk cut short is flushed on the way out.
func TestReplayCounterCancel(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	tr := mixedTrace(4*ctxCheckEvery + 321)
	for _, hooks := range []int{1, 3} {
		set := telemetry.New()
		ctx, cancel := context.WithCancel(telemetry.NewContext(context.Background(), set))
		var calls atomic.Int64
		hs := make([]vm.BranchFunc, hooks)
		for i := range hs {
			hs[i] = func(vm.BranchEvent) {
				if calls.Add(1) == ctxCheckEvery+1000 {
					cancel()
				}
			}
		}
		err := tr.ScoreParallelContext(ctx, hs...)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%d hooks: err = %v, want context.Canceled", hooks, err)
		}
		if n := calls.Load(); n >= int64(hooks*tr.Len()) {
			t.Fatalf("%d hooks: cancellation did not stop replay (%d calls)", hooks, n)
		}
		if got, want := set.Counter("tracefile.replay.events").Value(), calls.Load(); got != want {
			t.Fatalf("%d hooks: replay.events = %d, hook calls = %d", hooks, got, want)
		}
	}
}

// The pair below measures the cost the telemetry layer adds to the replay
// hot loop. Events are counted in a local variable and flushed to the
// counter once per ctxCheckEvery-word chunk, so the per-event path is the
// same with and without a Set in the context; the delta between these two
// benchmarks is the per-chunk flush plus the chunk latency histogram.

func benchmarkReplay(b *testing.B, ctx context.Context) {
	tr := syntheticTrace(1 << 16)
	hook := func(vm.BranchEvent) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.ScoreParallelContext(ctx, hook); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tr.Len()), "ns/event")
}

func BenchmarkReplayTelemetryDisabled(b *testing.B) {
	benchmarkReplay(b, context.Background())
}

func BenchmarkReplayTelemetryEnabled(b *testing.B) {
	benchmarkReplay(b, telemetry.NewContext(context.Background(), telemetry.New()))
}
