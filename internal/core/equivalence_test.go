package core_test

import (
	"context"
	"testing"

	"branchcost/internal/fs"
	"branchcost/internal/predict"
	"branchcost/internal/profile"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// TestReplayEquivalence guards the engine's core invariant: for every
// benchmark and every registered scheme, replaying the recorded trace
// yields bit-identical predict.Stats to scoring the live vm.Run stream.
// Non-transformed schemes replay the original binary's trace; transformed
// schemes replay a trace of the transformed binary (synthetic fixups
// excluded, exactly as the live measurement excludes them).
func TestReplayEquivalence(t *testing.T) {
	benches := workloads.All()
	if testing.Short() {
		short := map[string]bool{"wc": true, "compress": true, "tee": true}
		var subset []*workloads.Benchmark
		for _, b := range benches {
			if short[b.Name] {
				subset = append(subset, b)
			}
		}
		benches = subset
	}
	for _, b := range benches {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := b.Program()
			if err != nil {
				t.Fatal(err)
			}
			inputs := b.Inputs()

			// Pass 1: record the trace and the profile in one pass.
			prof := profile.New()
			col := &profile.Collector{P: prof}
			tr, err := tracefile.Record(prog, inputs, col.Hook())
			if err != nil {
				t.Fatal(err)
			}

			ctx := predict.SchemeContext{Prog: prog, Profile: prof}
			type pair struct {
				name         string
				live, replay *predict.Evaluator
			}
			var plain, transformed []*pair
			for _, n := range predict.Names() {
				sc := predict.MustLookup(n)
				p := &pair{name: n}
				if sc.Transformed {
					transformed = append(transformed, p)
					continue
				}
				p.live = &predict.Evaluator{P: sc.New(ctx)}
				p.replay = &predict.Evaluator{P: sc.New(ctx)}
				plain = append(plain, p)
			}

			// Pass 2: live scoring of every non-transformed scheme.
			liveHook := func(ev vm.BranchEvent) {
				for _, p := range plain {
					p.live.Observe(ev)
				}
			}
			for _, in := range inputs {
				if _, err := vm.Run(prog, in, liveHook, vm.Config{}); err != nil {
					t.Fatal(err)
				}
			}
			hooks := make([]vm.BranchFunc, len(plain))
			for i, p := range plain {
				hooks[i] = p.replay.Hook()
			}
			if err := tr.ScoreParallelContext(context.Background(), hooks...); err != nil {
				t.Fatal(err)
			}
			for _, p := range plain {
				if p.live.S != p.replay.S {
					t.Errorf("%s: replay != live:\nlive   %+v\nreplay %+v", p.name, p.live.S, p.replay.S)
				}
			}

			// Pass 3: transformed schemes — record and score the transformed
			// binary's stream simultaneously, then replay.
			if len(transformed) == 0 {
				return
			}
			res, err := fs.Transform(prog, prof, 2)
			if err != nil {
				t.Fatal(err)
			}
			tctx := predict.SchemeContext{Prog: res.Prog, Profile: prof}
			for _, p := range transformed {
				sc := predict.MustLookup(p.name)
				p.live = &predict.Evaluator{P: sc.New(tctx)}
				p.replay = &predict.Evaluator{P: sc.New(tctx)}
			}
			ftr := &tracefile.Trace{}
			frec := ftr.Hook()
			fhook := func(ev vm.BranchEvent) {
				if res.SyntheticID(ev.ID) {
					return
				}
				frec(ev)
				for _, p := range transformed {
					p.live.Observe(ev)
				}
			}
			for _, in := range inputs {
				if _, err := vm.Run(res.Prog, in, fhook, vm.Config{}); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range transformed {
				ftr.Replay(p.replay.Hook())
				if p.live.S != p.replay.S {
					t.Errorf("%s: replay != live:\nlive   %+v\nreplay %+v", p.name, p.live.S, p.replay.S)
				}
			}
		})
	}
}
