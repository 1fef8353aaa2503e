// Package predict defines the predictor abstraction shared by the three
// schemes of the paper (and the static baselines from its related-work
// discussion), plus the evaluator that measures prediction accuracy over a
// dynamic branch stream.
//
// A prediction is counted correct exactly when the fetch unit would have
// fetched down the right path: the predicted direction must match the
// outcome, and for predicted-taken branches the predicted target must match
// the actual target. Predicting "not taken" needs no target.
package predict

import (
	"branchcost/internal/vm"
)

// Prediction is a predictor's answer for one fetched branch.
type Prediction struct {
	Taken  bool
	Target int32 // meaningful only when Taken
	Hit    bool  // whether the predictor had state for this branch (BTB hit)
}

// Predictor models a branch prediction scheme.
type Predictor interface {
	// Name identifies the scheme in reports.
	Name() string
	// Predict returns the scheme's prediction for the branch about to
	// execute at ev.PC. Implementations must not use ev.Taken or ev.Target.
	Predict(ev vm.BranchEvent) Prediction
	// Update observes the actual outcome after prediction.
	Update(ev vm.BranchEvent)
	// Reset clears all dynamic state (used by the context-switch ablation).
	Reset()
}

// MetricSource is optionally implemented by predictors that expose internal
// capacity metrics (buffer insertions, evictions, occupancy). The evaluator
// layers surface them uniformly in telemetry snapshots and run manifests.
type MetricSource interface {
	Metrics() map[string]int64
}

// StorageSized is optionally implemented by hardware predictors that can
// account for their state in bits, so storage-vs-accuracy tables compare
// schemes honestly. Purely software schemes (the Forward Semantic, the
// statics) carry no hardware state and simply don't implement it.
type StorageSized interface {
	StorageBits() int64
}

// Stats accumulates evaluator results.
type Stats struct {
	Branches int64 // dynamic branches seen
	Correct  int64 // fully correct predictions (direction and target)
	DirRight int64 // direction-correct predictions (target may differ)
	Hits     int64 // predictor had state (BTB hit)
	Misses   int64 // predictor had no state

	CondBranches int64
	CondCorrect  int64
}

// Accuracy is the fraction of fully correct predictions (the paper's A).
func (s Stats) Accuracy() float64 {
	if s.Branches == 0 {
		return 1
	}
	return float64(s.Correct) / float64(s.Branches)
}

// MissRatio is the fraction of branches that missed in the predictor's
// buffer (the paper's rho). For stateless predictors it is 0.
func (s Stats) MissRatio() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Branches)
}

// CondAccuracy is the accuracy restricted to conditional branches.
func (s Stats) CondAccuracy() float64 {
	if s.CondBranches == 0 {
		return 1
	}
	return float64(s.CondCorrect) / float64(s.CondBranches)
}

// Add merges other into s.
func (s *Stats) Add(other Stats) {
	s.Branches += other.Branches
	s.Correct += other.Correct
	s.DirRight += other.DirRight
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.CondBranches += other.CondBranches
	s.CondCorrect += other.CondCorrect
}

// Outcome is the evaluator's full verdict on one scored branch: the
// prediction, how it fared, and the branch's zero-based position in the
// scored stream. It is a value struct so observing allocates nothing.
type Outcome struct {
	Index    int64 // zero-based position among scored branches
	Pred     Prediction
	DirRight bool // predicted direction matched the outcome
	Correct  bool // fully correct (direction and, if taken, target)
}

// Observer receives every scored branch together with its Outcome. It is the
// evaluator's one per-event seam: internal/attr implements it to break
// aggregate Stats down by site and by time window, and pipeline.CycleSim to
// charge each misprediction's stall cycles. A nil Observer in the Evaluator
// is the disabled state and costs one inlined nil check per event.
type Observer interface {
	ObserveEvent(ev vm.BranchEvent, out Outcome)
}

// Tee combines observers into one: nil for none, the observer itself for
// one, and a fan-out calling each in argument order for several. Callers
// pass only non-nil observers: a typed nil pointer is a non-nil interface.
func Tee(obs ...Observer) Observer {
	switch len(obs) {
	case 0:
		return nil
	case 1:
		return obs[0]
	}
	return tee(obs)
}

type tee []Observer

func (t tee) ObserveEvent(ev vm.BranchEvent, out Outcome) {
	for _, o := range t {
		o.ObserveEvent(ev, out)
	}
}

// Evaluator feeds a branch stream through a predictor and scores it.
type Evaluator struct {
	P Predictor
	S Stats

	// FlushEvery, when positive, calls P.Reset every FlushEvery branches,
	// simulating context switches wiping hardware predictor state.
	FlushEvery int64
	sinceFlush int64

	// Obs, when non-nil, receives every scored branch with its full Outcome
	// (the cycle-level pipeline simulator and the attribution recorder;
	// combine several with Tee). Observers must not mutate ev and
	// must not themselves influence scoring: the evaluator's Stats are
	// complete for the event before ObserveEvent runs.
	Obs Observer
}

// Hook returns a vm.BranchFunc that evaluates every executed branch.
func (e *Evaluator) Hook() vm.BranchFunc {
	return e.Observe
}

// Observe scores one branch event. Non-branch control events (CALL) pass
// through unscored.
func (e *Evaluator) Observe(ev vm.BranchEvent) {
	if !ev.Op.IsBranch() {
		return
	}
	if e.FlushEvery > 0 {
		if e.sinceFlush >= e.FlushEvery {
			e.P.Reset()
			e.sinceFlush = 0
		}
		e.sinceFlush++
	}
	p := e.P.Predict(ev)
	e.S.Branches++
	cond := ev.Op.IsCondBranch()
	if cond {
		e.S.CondBranches++
	}
	if p.Hit {
		e.S.Hits++
	} else {
		e.S.Misses++
	}
	dirRight := p.Taken == ev.Taken
	correct := dirRight && (!p.Taken || p.Target == ev.Target)
	if dirRight {
		e.S.DirRight++
	}
	if correct {
		e.S.Correct++
		if cond {
			e.S.CondCorrect++
		}
	}
	e.P.Update(ev)
	if e.Obs != nil {
		e.Obs.ObserveEvent(ev, Outcome{
			Index:    e.S.Branches - 1,
			Pred:     p,
			DirRight: dirRight,
			Correct:  correct,
		})
	}
}
