package pipesim_test

import (
	"math"
	"testing"

	"branchcost/internal/btb"
	"branchcost/internal/pipeline"
	"branchcost/internal/pipesim"
	"branchcost/internal/predict"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// runSim executes benchmark run 0 through the stage simulator.
func runSim(t *testing.T, bench string, width, k, l, m int, pred predict.Predictor) *pipesim.Sim {
	t.Helper()
	b, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	sim := pipesim.New(width, k, l, m, pred)
	cfg := vm.Config{Trace: sim.Step}
	if _, err := vm.Run(prog, b.Input(0), sim.Hook(), cfg); err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestWidthOneMatchesAnalytic: at W = 1 the stage simulation must agree
// with the paper's cost model evaluated at the simulation's effective m̄.
func TestWidthOneMatchesAnalytic(t *testing.T) {
	for _, bench := range []string{"wc", "grep"} {
		sim := runSim(t, bench, 1, 1, 2, 2, btb.NewCBTB(256, 256, 2, 2))
		a := 1 - float64(sim.Mispredicts)/float64(sim.Branches)
		// Effective m̄: M scaled by the conditional share of mispredicts —
		// recompute from a second identical run with a CycleSim for the
		// split. Simpler: bound the simulated cost between the two extremes.
		lo := pipeline.Config{K: 1, LBar: 2, MBar: 0}.Cost(a)
		hi := pipeline.Config{K: 1, LBar: 2, MBar: 2}.Cost(a)
		got := sim.CostPerBranch()
		if got < lo-1e-9 || got > hi+1e-9 {
			t.Errorf("%s: simulated cost %.4f outside [%.4f, %.4f]", bench, got, lo, hi)
		}
	}
}

// TestWidthOneExactEquivalence drives both the stage simulator and the
// event-based CycleSim from the same run; their branch costs must be equal.
func TestWidthOneExactEquivalence(t *testing.T) {
	b, err := workloads.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	const k, l, m = 1, 2, 2
	sim := pipesim.New(1, k, l, m, btb.NewSBTB(256, 256))
	cs := pipeline.NewCycleSim(k, l, m)
	ev := &predict.Evaluator{P: btb.NewSBTB(256, 256), Obs: cs}
	hook := func(e vm.BranchEvent) {
		sim.Hook()(e)
		ev.Observe(e)
	}
	if _, err := vm.Run(prog, b.Input(0), hook, vm.Config{Trace: sim.Step}); err != nil {
		t.Fatal(err)
	}
	if sim.Branches != cs.Branches || sim.Mispredicts != cs.Mispredicts {
		t.Fatalf("counters differ: %d/%d vs %d/%d",
			sim.Branches, sim.Mispredicts, cs.Branches, cs.Mispredicts)
	}
	if d := sim.CostPerBranch() - cs.CostPerBranch(); math.Abs(d) > 1e-9 {
		t.Fatalf("stage sim cost %.6f != event sim cost %.6f",
			sim.CostPerBranch(), cs.CostPerBranch())
	}
}

// TestWidthScaling: IPC grows with width but sub-linearly (branches cap
// it), and fetch utilization falls.
func TestWidthScaling(t *testing.T) {
	var prevIPC, prevUtil float64
	for i, w := range []int{1, 2, 4, 8} {
		sim := runSim(t, "wc", w, 1, 2, 2, btb.NewCBTB(256, 256, 2, 2))
		ipc := sim.IPC()
		util := sim.FetchUtilization()
		if i > 0 {
			if ipc <= prevIPC {
				t.Errorf("IPC did not grow at width %d: %.3f <= %.3f", w, ipc, prevIPC)
			}
			if ipc > prevIPC*2 {
				t.Errorf("IPC superlinear at width %d", w)
			}
			if util > prevUtil+1e-9 {
				t.Errorf("fetch utilization rose with width: %.3f > %.3f", util, prevUtil)
			}
		}
		prevIPC, prevUtil = ipc, util
	}
}

// TestPerfectPredictorCostsOne: with an oracle predictor every branch costs
// one cycle at W = 1 (group breaks are free at width one).
func TestPerfectPredictorCostsOne(t *testing.T) {
	sim := runSim(t, "tee", 1, 2, 2, 2, oracle{})
	if sim.Mispredicts != 0 {
		t.Fatalf("oracle mispredicted %d times", sim.Mispredicts)
	}
	if got := sim.CostPerBranch(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("oracle branch cost %.6f, want 1", got)
	}
	if sim.Squashed != 0 {
		t.Fatalf("oracle squashed %d", sim.Squashed)
	}
}

// oracle predicts perfectly (it peeks at the outcome).
type oracle struct{}

func (oracle) Name() string { return "oracle" }
func (oracle) Predict(ev vm.BranchEvent) predict.Prediction {
	return predict.Prediction{Taken: ev.Taken, Target: ev.Target, Hit: true}
}
func (oracle) Update(vm.BranchEvent) {}
func (oracle) Reset()                {}

func TestBadWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pipesim.New(0, 1, 1, 1, oracle{})
}

// TestGroupBreaksCounted: taken branches end fetch groups.
func TestGroupBreaksCounted(t *testing.T) {
	sim := runSim(t, "wc", 4, 1, 2, 2, oracle{})
	if sim.GroupBreaks == 0 {
		t.Fatal("no group breaks recorded despite taken branches")
	}
	// With a perfect predictor, wide fetch still pays for taken branches:
	// utilization strictly below 1.
	if sim.FetchUtilization() >= 1 {
		t.Fatalf("utilization %.3f, expected < 1 at width 4", sim.FetchUtilization())
	}
}
