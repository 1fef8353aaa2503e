package tracefile

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"branchcost/internal/isa"
	"branchcost/internal/telemetry"
	"branchcost/internal/vm"
)

// Trace is an in-memory branch trace: record a program's counted-branch
// stream once, replay it through any number of predictors without
// re-executing the program. This is the paper-era methodology made explicit
// — every scheme scores the identical recorded stream.
//
// The representation is compact so whole-suite traces stay cheap to cache:
// per static branch site, the fields the VM emits identically every time
// (PC, ID, opcode, likely bit, and the two possible next positions) live in
// a side table; the dynamic stream is one uint32 per event — site index plus
// taken bit — with indirect jumps (the only branches whose target varies at
// run time) spending a second word on the target. A replayed event is
// bit-identical to the recorded vm.BranchEvent at ~4 bytes per event.
//
// A Trace records the stream of exactly one program; mixing programs would
// alias PCs across different instructions.
type Trace struct {
	sites  []traceSite
	bySite map[int32]uint32 // PC -> index into sites
	stream []uint32
	events int

	Steps int64 // dynamic instructions across the recorded runs
	Runs  int   // recorded runs
}

// traceSite holds the static fields of one branch site. takenTarget and
// fallTarget are the resolved next positions for the two outcomes (filled
// lazily from the first event of each direction; a direction never recorded
// is never replayed, so its slot stays unused).
type traceSite struct {
	pc, id      int32
	takenTarget int32
	fallTarget  int32
	op          isa.Op
	likely      bool
}

// Len returns the number of recorded branch events.
func (t *Trace) Len() int { return t.events }

// Sites returns the number of distinct static branch sites recorded.
func (t *Trace) Sites() int { return len(t.sites) }

// Record appends one counted-branch event.
func (t *Trace) Record(ev vm.BranchEvent) {
	if t.bySite == nil {
		t.bySite = map[int32]uint32{}
	}
	idx, ok := t.bySite[ev.PC]
	if !ok {
		idx = uint32(len(t.sites))
		t.sites = append(t.sites, traceSite{
			pc: ev.PC, id: ev.ID, op: ev.Op, likely: ev.Likely,
			takenTarget: -1, fallTarget: -1,
		})
		t.bySite[ev.PC] = idx
	}
	w := idx << 1
	if ev.Taken {
		w |= 1
	}
	t.stream = append(t.stream, w)
	switch {
	case ev.Op == isa.JMPI:
		// Indirect-jump targets are dynamic (jump table): store per event.
		t.stream = append(t.stream, uint32(ev.Target))
	case ev.Taken:
		t.sites[idx].takenTarget = ev.Target
	default:
		t.sites[idx].fallTarget = ev.Target
	}
	t.events++
}

// Hook returns a vm.BranchFunc recording every counted branch (CALL events
// pass through unrecorded, matching the evaluator's view).
func (t *Trace) Hook() vm.BranchFunc {
	return func(ev vm.BranchEvent) {
		if !ev.Op.IsBranch() {
			return
		}
		t.Record(ev)
	}
}

// Replay feeds every recorded event to hook, in recording order,
// reconstructing each vm.BranchEvent exactly as the VM emitted it.
func (t *Trace) Replay(hook vm.BranchFunc) {
	// A background context never cancels and carries no telemetry, so the
	// error is structurally nil and no replay counter moves.
	_ = t.replayCtx(context.Background(), hook)
}

// ctxCheckEvery is how many stream words pass between cancellation checks
// and replay-counter flushes; coarse enough to keep the replay loop tight,
// fine enough that cancellation lands within microseconds. A JMPI event
// spends two words, so a chunk holds at most ctxCheckEvery events.
const ctxCheckEvery = 1 << 16

// replayCtx is the one replay loop, with periodic cancellation checks.
// Events are counted in a local variable and added to the
// "tracefile.replay.events" counter once per ctxCheckEvery-word chunk and
// on every return, cancellation included, so the per-event path carries
// neither an atomic nor a nil check, and the counter equals the hook calls
// made once replay returns. Parallel workers each flush their own count
// into the shared counter. With telemetry enabled, the latency of each
// chunk also lands in the "tracefile.replay.latency_ns" histogram — chunk
// granularity keeps the clock reads off the per-event path entirely.
func (t *Trace) replayCtx(ctx context.Context, hook vm.BranchFunc) error {
	set := telemetry.FromContext(ctx)
	events := set.Counter("tracefile.replay.events")
	latency := set.Histogram("tracefile.replay.latency_ns")
	var chunkStart time.Time
	if latency != nil {
		chunkStart = time.Now()
	}
	sites, stream := t.sites, t.stream
	next := ctxCheckEvery
	var n int64 // events replayed since the last flush
	for i := 0; i < len(stream); i++ {
		if i >= next {
			events.Add(n)
			n = 0
			if err := ctx.Err(); err != nil {
				return err
			}
			next += ctxCheckEvery
			if latency != nil {
				now := time.Now()
				latency.Observe(now.Sub(chunkStart).Nanoseconds())
				chunkStart = now
			}
		}
		n++
		w := stream[i]
		s := &sites[w>>1]
		taken := w&1 != 0
		target := s.fallTarget
		if taken {
			target = s.takenTarget
		}
		if s.op == isa.JMPI {
			i++
			target = int32(stream[i])
		}
		hook(vm.BranchEvent{PC: s.pc, ID: s.id, Op: s.op,
			Taken: taken, Target: target, Likely: s.likely})
	}
	events.Add(n)
	if latency != nil && len(stream) > 0 {
		latency.Observe(time.Since(chunkStart).Nanoseconds())
	}
	return nil
}

// ScoreParallelContext replays the trace once per hook, fanning the replays
// out over a worker pool bounded by GOMAXPROCS. The trace is read-only
// during replay, so hooks only need their own state to be private (each
// predictor evaluator is). When ctx is cancelled mid-replay the workers stop
// within ctxCheckEvery stream words and the context's error is returned; the
// hooks' partial state is then meaningless.
func (t *Trace) ScoreParallelContext(ctx context.Context, hooks ...vm.BranchFunc) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(hooks) {
		workers = len(hooks)
	}
	if workers <= 1 {
		// Single worker: decode the stream once and fan each event out to
		// every hook, instead of paying the decode once per hook. Each hook
		// still sees the identical full event sequence.
		return t.replayCtx(ctx, func(ev vm.BranchEvent) {
			for _, h := range hooks {
				h(ev)
			}
		})
	}
	ch := make(chan vm.BranchFunc)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for h := range ch {
				if err := t.replayCtx(ctx, h); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Workers only abandon the channel when ctx is cancelled, so guarding
	// the dispatch on ctx.Done() cannot deadlock against dead workers.
	var cancelled bool
dispatch:
	for _, h := range hooks {
		select {
		case ch <- h:
		case <-ctx.Done():
			cancelled = true
			break dispatch
		}
	}
	close(ch)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	if cancelled {
		return ctx.Err()
	}
	return nil
}

// Record executes the program over the input suite and returns its recorded
// trace. Additional hooks observe the same passes' raw event stream (CALL
// events included), letting a profiler share the recording pass.
func Record(p *isa.Program, inputs [][]byte, extra ...vm.BranchFunc) (*Trace, error) {
	return RecordConfig(context.Background(), p, inputs, vm.Config{}, extra...)
}

// RecordConfig is Record under a context and explicit VM limits: ctx is
// polled inside each run (so a deadline kills a hung recording mid-pass) and
// cfg carries the step budget a watchdogged recording runs under.
func RecordConfig(ctx context.Context, p *isa.Program, inputs [][]byte, cfg vm.Config, extra ...vm.BranchFunc) (*Trace, error) {
	t := &Trace{}
	rec := t.Hook()
	hook := rec
	if len(extra) > 0 {
		hook = func(ev vm.BranchEvent) {
			rec(ev)
			for _, h := range extra {
				h(ev)
			}
		}
	}
	cfg.Ctx = ctx
	for i, in := range inputs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := vm.Run(p, in, hook, cfg)
		if err != nil {
			return nil, fmt.Errorf("tracefile: recording run %d: %w", i, err)
		}
		t.Steps += res.Steps
		t.Runs++
	}
	return t, nil
}

// countingWriter tracks bytes written, for the io.WriterTo contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// WriteTo serializes the trace in the BCT2 format, the only encoding
// written. It implements io.WriterTo.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	tw, err := NewBCT2Writer(cw)
	if err != nil {
		return cw.n, err
	}
	tw.Steps, tw.Runs = t.Steps, t.Runs
	t.Replay(tw.Record)
	return cw.n, tw.Close()
}

// ReadTrace loads a serialized trace stream — either format, dispatched on
// the magic — into an in-memory trace.
func ReadTrace(r io.Reader) (*Trace, error) {
	return ReadTraceContext(context.Background(), r)
}

// ReadTraceContext is ReadTrace with telemetry: when ctx carries a Set, the
// format dispatch ("tracefile.read.bct1"/"tracefile.read.bct2") and — for
// BCT2 streams — per-block decode counters are recorded.
func ReadTraceContext(ctx context.Context, r io.Reader) (*Trace, error) {
	set := telemetry.FromContext(ctx)
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, fmt.Errorf("tracefile: short header: %w", err)
	}
	t := &Trace{}
	switch m {
	case magic:
		set.Counter("tracefile.read.bct1").Inc()
		tr, err := newReaderAfterMagic(r)
		if err != nil {
			return nil, err
		}
		if err := tr.Replay(t.Hook()); err != nil {
			return nil, err
		}
	case magic2:
		set.Counter("tracefile.read.bct2").Inc()
		d, err := newBCT2ReaderAfterMagic(r)
		if err != nil {
			return nil, err
		}
		d.Instrument(set)
		var evs []vm.BranchEvent
		for {
			var err error
			evs, err = d.NextBlock(evs[:0])
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, err
			}
			for _, ev := range evs {
				t.Record(ev)
			}
		}
		t.Steps, t.Runs = d.Steps(), d.Runs()
	default:
		return nil, ErrBadMagic
	}
	return t, nil
}
