package btb_test

import (
	"testing"

	"branchcost/internal/btb"
	"branchcost/internal/oracle"
	"branchcost/internal/tracefile"
	"branchcost/internal/workloads"
)

// TestBuffersMatchOracleOnBenchmarks drives the production buffers against
// their deliberately naive oracle twins over real benchmark traces — not
// just synthetic fuzz — at the paper geometry and at set-associative shapes
// that exercise the production buffer's set indexing and victim snapshot,
// which the linear-scan oracle does not share. btb-stress and ctx-storm
// overflow the paper's 256-entry buffer, so their traces put LRU order
// under eviction storms; -short leaves them to TestEvictionStormDifferential
// (internal/oracle), which covers the same eviction path in well under a
// second.
func TestBuffersMatchOracleOnBenchmarks(t *testing.T) {
	geometries := []struct {
		name          string
		entries, ways int
	}{
		{"paper-256-full", 256, 256},
		{"64-4way", 64, 4},
		{"32-1way", 32, 1},
		{"16-2way", 16, 2},
	}
	benches := []string{"cmp", "wc", "btb-stress", "ctx-storm"}
	if testing.Short() {
		benches = benches[:2]
	}
	for _, bench := range benches {
		b, err := workloads.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tracefile.Record(p, b.Inputs())
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range geometries {
			stats, div := oracle.CheckTrace("sbtb", tr,
				btb.NewSBTB(g.entries, g.ways),
				oracle.NewRefSBTB(g.entries, g.ways))
			if div != nil {
				t.Errorf("%s/%s: %v", bench, g.name, div)
			}
			if stats.Branches != int64(tr.Len()) {
				t.Errorf("%s/%s: sbtb scored %d of %d events", bench, g.name, stats.Branches, tr.Len())
			}
			stats, div = oracle.CheckTrace("cbtb", tr,
				btb.NewCBTB(g.entries, g.ways, 2, 2),
				oracle.NewRefCBTB(g.entries, g.ways, 2, 2))
			if div != nil {
				t.Errorf("%s/%s: %v", bench, g.name, div)
			}
			if err := oracle.CheckStats(stats); err != nil {
				t.Errorf("%s/%s: cbtb: %v", bench, g.name, err)
			}
			// Two-level: the geometry under test becomes the L2, with a
			// deliberately tiny L1 so promotion and L1 eviction churn.
			stats, div = oracle.CheckTrace("btb2l", tr,
				btb.NewTwoLevel(8, 2, g.entries, g.ways, 2, 2),
				oracle.NewRefTwoLevel(8, 2, g.entries, g.ways, 2, 2))
			if div != nil {
				t.Errorf("%s/%s: btb2l: %v", bench, g.name, div)
			}
			if err := oracle.CheckStats(stats); err != nil {
				t.Errorf("%s/%s: btb2l: %v", bench, g.name, err)
			}
		}
	}
}
