package experiments_test

import (
	"testing"

	"branchcost/internal/core"
	"branchcost/internal/experiments"
	"branchcost/internal/predict"
	"branchcost/internal/workloads"
)

// TestModernSuite: the modern-class table covers every registered class
// member, scores every scheme of the panel, its fs column agrees with the
// suite's transformed-binary evaluation (not a bare-trace replay), and its
// sbtb/cbtb columns agree with the evaluation under a non-paper BTB
// geometry, so table and evaluation share one config path.
func TestModernSuite(t *testing.T) {
	s := experiments.NewSuite(core.Config{SchemeConfigs: predict.BTBConfigs(64, 4, 3, nil)})
	rows, table, err := experiments.ModernSuite(s)
	if err != nil {
		t.Fatal(err)
	}
	if table == nil {
		t.Fatal("no table")
	}
	if len(rows) != len(workloads.Modern()) {
		t.Fatalf("%d rows, want %d", len(rows), len(workloads.Modern()))
	}
	for i, b := range workloads.Modern() {
		r := rows[i]
		if r.Benchmark != b.Name || r.Class != b.Class {
			t.Errorf("row %d is %s/%s, want %s/%s", i, r.Benchmark, r.Class, b.Name, b.Class)
		}
		for _, scheme := range experiments.ModernSchemes {
			a, ok := r.Accuracy[scheme]
			if !ok || a <= 0 || a > 1 {
				t.Errorf("%s/%s: accuracy %v out of (0,1]", r.Benchmark, scheme, a)
			}
		}
		e, err := s.Eval(b.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := r.Accuracy["fs"], e.FS().Stats.Accuracy(); got != want {
			t.Errorf("%s: fs column %v != suite fs %v", b.Name, got, want)
		}
		for scheme, res := range map[string]core.SchemeResult{"sbtb": e.SBTB(), "cbtb": e.CBTB()} {
			if got, want := r.Accuracy[scheme], res.Stats.Accuracy(); got != want {
				t.Errorf("%s: %s column %v != suite %s %v", b.Name, scheme, got, scheme, want)
			}
		}
	}
}
