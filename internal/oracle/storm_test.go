package oracle_test

import (
	"fmt"
	"math/rand"
	"testing"

	"branchcost/internal/isa"
	"branchcost/internal/oracle"
	"branchcost/internal/predict"
	"branchcost/internal/vm"
)

// stormGeometry is one buffer shape the eviction-storm test drives every
// buffer-backed scheme through: the SBTB/CBTB buffer, btb2l's L2 and the
// history schemes' target caches all take it.
type stormGeometry struct{ entries, assoc int }

// stormConfigs applies g to every buffer-backed scheme, leaving the
// direction-side parameters at their defaults. btb2l gets a 16-entry fully
// associative L1, so promotion churn runs through a wide set as well.
func stormConfigs(g stormGeometry) predict.ConfigSet {
	geo := predict.BTBGeometry{Entries: g.entries, Assoc: g.assoc}
	return predict.ConfigSet{
		"sbtb":       predict.SBTBConfig{BTBGeometry: geo},
		"cbtb":       predict.CBTBConfig{BTBGeometry: geo},
		"btb2l":      predict.TwoLevelConfig{L1Entries: 16, L1Assoc: 16, L2Entries: g.entries, L2Assoc: g.assoc},
		"gshare":     predict.HistoryConfig{TargetEntries: g.entries, TargetAssoc: g.assoc},
		"local":      predict.HistoryConfig{TargetEntries: g.entries, TargetAssoc: g.assoc},
		"perceptron": predict.PerceptronConfig{TargetEntries: g.entries, TargetAssoc: g.assoc},
		"tage":       predict.TAGEConfig{TargetEntries: g.entries, TargetAssoc: g.assoc},
	}
}

// storm builds a seeded eviction-storm trace for a buffer of the given
// capacity. Sites are consecutive PCs, so any window of `entries`
// consecutive sites fills every set exactly. The trace has three phases:
//
//   - round-robin sweeps over entries+1 … 4×entries sites, so every
//     allocation past the first lap evicts;
//   - bursts: the resident window is re-touched in a random order between
//     two evictions, so every victim snapshot goes stale and the buffer
//     must re-sort; about one touch in eight falls through, which deletes
//     a resident SBTB line that is still in the snapshot and leaves its
//     slot for the next allocation to refill;
//   - a random tail over 2×entries sites with mixed directions.
func storm(r *rand.Rand, entries, sweeps, bursts int) []vm.BranchEvent {
	var evs []vm.BranchEvent
	emit := func(site int, taken bool) {
		pc := int32(site)
		ev := vm.BranchEvent{PC: pc, ID: pc, Op: isa.BNE, Taken: taken, Target: pc + 1}
		if taken {
			ev.Target = pc + 5000
		}
		evs = append(evs, ev)
	}
	for _, n := range []int{entries + 1, 2 * entries, 3*entries + 1, 4 * entries} {
		for lap := 0; lap < sweeps; lap++ {
			for s := 0; s < n; s++ {
				emit(s, true)
			}
		}
	}
	base := 4 * entries
	order := make([]int, entries)
	for b := 0; b < bursts; b++ {
		for i := range order {
			order[i] = base + b + i
		}
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, s := range order {
			emit(s, r.Intn(8) != 0)
		}
		emit(base+b+entries, true)
	}
	for i := 0; i < 4*entries; i++ {
		emit(r.Intn(2*entries), r.Intn(3) != 0)
	}
	return evs
}

// TestEvictionStormDifferential drives every buffer-backed scheme and its
// oracle twin through eviction storms, where LRU order under churn decides
// every prediction. The production buffer picks its victims from a
// stamp-sorted snapshot; the oracle's refBuffer scans the set, so any
// mis-ordered eviction diverges.
// Each storm runs once straight through and once with resets every 97 and
// 1000 updates, the context-switch flush landing mid-storm.
func TestEvictionStormDifferential(t *testing.T) {
	schemes := []string{"sbtb", "cbtb", "btb2l", "gshare", "local", "perceptron", "tage"}
	geometries := []stormGeometry{{8, 8}, {16, 4}, {64, 4}, {256, 256}}
	sweeps, bursts := 3, 96
	if testing.Short() {
		sweeps, bursts = 2, 40
	}
	for gi, g := range geometries {
		seed := int64(0x5702 + gi)
		evs := storm(rand.New(rand.NewSource(seed)), g.entries, sweeps, bursts)
		configs := stormConfigs(g)
		for _, name := range schemes {
			for _, every := range []int{0, 97, 1000} {
				t.Run(fmt.Sprintf("%dx%d/%s/flush%d", g.entries, g.assoc, name, every), func(t *testing.T) {
					scheme := predict.MustLookup(name).New(predict.SchemeContext{Configs: configs})
					ref, ok := oracle.For(name, configs.Resolved(name), nil)
					if !ok {
						t.Fatalf("no oracle model for %q", name)
					}
					if every > 0 {
						scheme = &resetEvery{P: scheme, N: every}
						ref = &resetEvery{P: ref, N: every}
					}
					stats, div := oracle.CheckEvents(name, evs, scheme, ref)
					if div != nil {
						t.Fatalf("seed %d: %v", seed, div)
					}
					if err := oracle.CheckStats(stats); err != nil {
						t.Fatalf("seed %d: inconsistent stats: %v", seed, err)
					}
				})
			}
		}
	}
}
