package predict_test

import (
	"strings"
	"testing"

	_ "branchcost/internal/btb"     // registers sbtb/cbtb/btb2l
	_ "branchcost/internal/history" // registers gshare/local/perceptron/tage
	"branchcost/internal/predict"
)

// configurableSchemes are the registry entries with a Defaults constructor.
var configurableSchemes = []string{"sbtb", "cbtb", "btb2l", "gshare", "local", "perceptron", "tage"}

// TestOptionRoundTrip: every tagged field of every scheme config is
// reachable by key — set it through SetOption, read it back through
// DescribeOptions — so the CLI's -scheme-opt surface covers the whole
// config space with no dead keys.
func TestOptionRoundTrip(t *testing.T) {
	for _, name := range configurableSchemes {
		sc := predict.MustLookup(name)
		if sc.Defaults == nil {
			t.Fatalf("%s: no Defaults constructor", name)
		}
		cfg := sc.Defaults()
		orig := predict.DescribeOptions(cfg)
		keys := predict.OptionKeys(cfg)
		if len(keys) == 0 {
			t.Fatalf("%s: no option keys", name)
		}
		for _, key := range keys {
			set, err := predict.SetOption(cfg, key, "3")
			if err != nil {
				t.Fatalf("%s.%s=3: %v", name, key, err)
			}
			if !strings.Contains(predict.DescribeOptions(set), key+"=3") {
				t.Errorf("%s.%s=3 not visible in %q", name, key, predict.DescribeOptions(set))
			}
		}
		// The original must not have been mutated through any of the copies.
		if got := predict.DescribeOptions(cfg); got != orig {
			t.Errorf("%s: SetOption mutated its input: %q -> %q", name, orig, got)
		}
	}
}

// TestSetOptionUnknownKeyListsValid: a typo'd key must fail with an error
// that names every valid key for the scheme, so the CLI's diagnosis is
// self-serve.
func TestSetOptionUnknownKeyListsValid(t *testing.T) {
	cfg := predict.MustLookup("tage").Defaults()
	_, err := predict.SetOption(cfg, "no-such-key", "1")
	if err == nil {
		t.Fatal("unknown key accepted")
	}
	for _, key := range predict.OptionKeys(cfg) {
		if !strings.Contains(err.Error(), key) {
			t.Errorf("error %q does not list valid key %q", err, key)
		}
	}
	if _, err := predict.SetOption(cfg, "tables", "banana"); err == nil {
		t.Fatal("unparsable value accepted")
	}
}

// TestParseOptionsAccumulates: repeated -scheme-opt flags accumulate into
// one set — across schemes and within one scheme — and fields the flags do
// not touch still resolve to the scheme defaults.
func TestParseOptionsAccumulates(t *testing.T) {
	cs, err := predict.ParseOptions([]string{
		"gshare.history=14",
		"gshare.table=13",
		"tage.tables=5",
	})
	if err != nil {
		t.Fatal(err)
	}
	g := cs.Resolved("gshare").(predict.HistoryConfig)
	if g.History != 14 || g.Table != 13 {
		t.Fatalf("gshare overrides lost: %+v", g)
	}
	if g.Bits != 2 || g.TargetEntries != 256 {
		t.Fatalf("gshare untouched fields lost their defaults: %+v", g)
	}
	tg := cs.Resolved("tage").(predict.TAGEConfig)
	if tg.Tables != 5 {
		t.Fatalf("tage override lost: %+v", tg)
	}
	if tg.Base == 0 || tg.MaxHist == 0 {
		t.Fatalf("tage untouched fields lost their defaults: %+v", tg)
	}

	for _, bad := range []string{"no-dot", "nosuchscheme.key=1", "gshare.nope=1", "gshare.history=x"} {
		if _, err := predict.ParseOptions([]string{bad}); err == nil {
			t.Errorf("ParseOptions accepted %q", bad)
		}
	}
}

// TestMergeSetsLayering: MergeSets merges per-field where both sets
// configure a scheme, and neither input is modified.
func TestMergeSetsLayering(t *testing.T) {
	base := predict.ConfigSet{"cbtb": predict.CBTBConfig{
		BTBGeometry: predict.BTBGeometry{Entries: 64, Assoc: 4},
	}}
	over := predict.ConfigSet{"cbtb": predict.CBTBConfig{
		CounterConfig: predict.CounterConfig{Bits: 3},
	}}
	merged := predict.MergeSets(base, over)
	c := merged.Resolved("cbtb").(predict.CBTBConfig)
	if c.Entries != 64 || c.Assoc != 4 || c.Bits != 3 {
		t.Fatalf("merge lost a layer: %+v", c)
	}
	// Midpoint threshold follows the merged width, not the default width.
	if c.ThresholdValue() != 4 {
		t.Fatalf("threshold did not follow the merged width: %d", c.ThresholdValue())
	}
	if b := base["cbtb"].(predict.CBTBConfig); b.Bits != 0 {
		t.Fatal("MergeSets mutated its base input")
	}
}

// TestDescribeOptionsStable: the manifest rendering is key-sorted and
// renders a nil pointer as auto, so two identically configured runs
// compare byte-for-byte.
func TestDescribeOptionsStable(t *testing.T) {
	d1 := predict.DescribeOptions(predict.ConfigSet(nil).Resolved("cbtb"))
	d2 := predict.DescribeOptions(predict.ConfigSet{}.Resolved("cbtb"))
	if d1 != d2 {
		t.Fatalf("unstable rendering: %q vs %q", d1, d2)
	}
	unresolved := predict.DescribeOptions(predict.CBTBConfig{
		CounterConfig: predict.CounterConfig{Bits: 2},
	})
	if !strings.Contains(unresolved, "threshold=auto") {
		t.Errorf("nil threshold rendered as %q, want threshold=auto", unresolved)
	}
}

// TestBTBConfigsThresholdMidpoint: the BTB flags' nil threshold resolves
// to the counter midpoint at any width (4 for 3-bit counters), while an
// explicit zero threshold is a real sweep point and stays 0.
func TestBTBConfigsThresholdMidpoint(t *testing.T) {
	c := predict.BTBConfigs(256, 256, 3, nil).Resolved("cbtb").(predict.CBTBConfig)
	if got := c.ThresholdValue(); got != 4 {
		t.Fatalf("3-bit counter threshold = %d, want the midpoint 4", got)
	}
	c = predict.BTBConfigs(256, 256, 2, predict.Ptr[uint8](0)).Resolved("cbtb").(predict.CBTBConfig)
	if got := c.ThresholdValue(); got != 0 {
		t.Fatalf("explicit zero threshold resolved to %d", got)
	}
	s := predict.BTBConfigs(64, 4, 3, nil).Resolved("sbtb").(predict.SBTBConfig)
	if s.Entries != 64 || s.Assoc != 4 {
		t.Fatalf("sbtb geometry %+v, want 64 entries 4-way", s.BTBGeometry)
	}
}
