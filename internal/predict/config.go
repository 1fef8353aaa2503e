package predict

// Per-scheme configuration. Every configurable scheme declares a typed
// config struct here and a Defaults constructor on its registry entry; the
// evaluation layers carry a ConfigSet (scheme name -> partial override) and
// resolve it per scheme with Resolved: registry defaults first, then the
// caller's per-field overrides, then a normalization pass that fills the
// fields whose default depends on other fields (the counter threshold's
// half-range rule).
//
// Default rule: fields whose zero value is never valid (table sizes, history
// lengths, counter widths) are plain ints where 0 means "use the scheme
// default". Fields whose zero value is meaningful — a counter threshold of 0
// is a real sweep point — are pointers where nil means "derive the
// default"; build them with Ptr.

// SchemeConfig is the marker interface every typed scheme configuration
// implements. Concrete types are plain structs of int and *uint8 fields
// (possibly via embedded structs) tagged with `opt:"key"` names for the
// CLI's -scheme-opt flag.
type SchemeConfig interface{ schemeConfig() }

// Ptr returns a pointer to v, for pointer-valued config fields:
// predict.CounterConfig{Bits: 2, Threshold: predict.Ptr[uint8](0)}.
func Ptr[T any](v T) *T { return &v }

// BTBGeometry is the shared buffer shape: total entries and associativity
// (Assoc == Entries is the paper's fully-associative organization).
type BTBGeometry struct {
	Entries int `opt:"entries"`
	Assoc   int `opt:"assoc"`
}

// CounterConfig is the shared n-bit saturating counter: predicted taken
// when counter >= Threshold. A nil Threshold resolves to half the counter
// range (1 << (Bits-1)) — the paper's T = 2 at its 2-bit width — during
// normalization, so the threshold default follows the width per-field
// instead of only when the whole configuration is untouched.
type CounterConfig struct {
	Bits      int    `opt:"bits"`
	Threshold *uint8 `opt:"threshold"`
}

// fill resolves the nil threshold to half the counter range.
func (c CounterConfig) fill() CounterConfig {
	if c.Threshold == nil && c.Bits > 0 {
		c.Threshold = Ptr(uint8(1) << (c.Bits - 1))
	}
	return c
}

// ThresholdValue returns the resolved threshold (half range when nil).
func (c CounterConfig) ThresholdValue() uint8 {
	return *c.fill().Threshold
}

// SBTBConfig configures the Simple Branch Target Buffer scheme ("sbtb").
type SBTBConfig struct {
	BTBGeometry
}

func (SBTBConfig) schemeConfig() {}

// CBTBConfig configures the Counter-based BTB scheme ("cbtb").
type CBTBConfig struct {
	BTBGeometry
	CounterConfig
}

func (CBTBConfig) schemeConfig() {}

func (c CBTBConfig) normalize() SchemeConfig {
	c.CounterConfig = c.CounterConfig.fill()
	return c
}

// TwoLevelConfig configures the two-level BTB scheme ("btb2l"): per-level
// geometry plus the shared counter configuration of the L2 master copy.
type TwoLevelConfig struct {
	L1Entries int `opt:"l1-entries"`
	L1Assoc   int `opt:"l1-assoc"`
	L2Entries int `opt:"l2-entries"`
	L2Assoc   int `opt:"l2-assoc"`
	CounterConfig
}

func (TwoLevelConfig) schemeConfig() {}

func (c TwoLevelConfig) normalize() SchemeConfig {
	c.CounterConfig = c.CounterConfig.fill()
	return c
}

// HistoryConfig configures the history-indexed counter-table schemes:
// "gshare" (global history XORed into the table index; Sites unused) and
// "local" (per-site history table of 1<<Sites entries indexing the pattern
// table). History is the history length in bits, Table the log2 pattern
// table size, and the counter fields the per-entry saturating counter. The
// target side is a CBTB-style target cache of TargetEntries/TargetAssoc.
type HistoryConfig struct {
	History int `opt:"history"`
	Sites   int `opt:"sites"`
	Table   int `opt:"table"`
	CounterConfig
	TargetEntries int `opt:"target-entries"`
	TargetAssoc   int `opt:"target-assoc"`
}

func (HistoryConfig) schemeConfig() {}

func (c HistoryConfig) normalize() SchemeConfig {
	c.CounterConfig = c.CounterConfig.fill()
	return c
}

// PerceptronConfig configures the perceptron scheme: one weight vector of
// History+1 signed WeightBits-wide weights per table row (bias included),
// dotted with the global history.
type PerceptronConfig struct {
	History       int `opt:"history"`
	Table         int `opt:"table"`
	WeightBits    int `opt:"weight-bits"`
	TargetEntries int `opt:"target-entries"`
	TargetAssoc   int `opt:"target-assoc"`
}

func (PerceptronConfig) schemeConfig() {}

// TAGEConfig configures the TAGE scheme: a 1<<Base bimodal base table and
// Tables tagged tables of 1<<Table entries each, with history lengths
// growing geometrically from MinHist to MaxHist. Bits is the prediction
// counter width (threshold fixed at half range), UBits the usefulness
// counter width, TagBits the partial tag width.
type TAGEConfig struct {
	Tables        int `opt:"tables"`
	Base          int `opt:"base"`
	Table         int `opt:"table"`
	TagBits       int `opt:"tag"`
	MinHist       int `opt:"min-hist"`
	MaxHist       int `opt:"max-hist"`
	Bits          int `opt:"bits"`
	UBits         int `opt:"ubits"`
	TargetEntries int `opt:"target-entries"`
	TargetAssoc   int `opt:"target-assoc"`
}

func (TAGEConfig) schemeConfig() {}

// normalizer lets a config type fill fields whose default depends on other
// fields, after defaults and overrides have merged.
type normalizer interface{ normalize() SchemeConfig }

// ConfigSet maps scheme names to per-scheme configuration overrides. The
// zero value (or nil) resolves every scheme to its registry defaults — the
// paper's configuration for the paper's schemes.
type ConfigSet map[string]SchemeConfig

// Resolved returns the named scheme's effective configuration: the registry
// Defaults, overridden per-field by the set's entry (zero/nil fields keep
// the default), then normalized. Schemes without a Defaults constructor
// (the static baselines) resolve to the set's entry as-is, or nil.
func (cs ConfigSet) Resolved(name string) SchemeConfig {
	var def SchemeConfig
	if sc, ok := Lookup(name); ok && sc.Defaults != nil {
		def = sc.Defaults()
	}
	merged := Merge(def, cs[name])
	if n, ok := merged.(normalizer); ok {
		merged = n.normalize()
	}
	return merged
}

// BTBConfigs expresses the paper's BTB knobs as typed overrides for the two
// BTB schemes: sbtb and cbtb get entries×assoc geometry, cbtb also the
// counter width and threshold. A nil threshold resolves to the counter
// midpoint. The CLIs' -entries/-assoc/-bits/-threshold flags map here.
func BTBConfigs(entries, assoc, bits int, threshold *uint8) ConfigSet {
	geom := BTBGeometry{Entries: entries, Assoc: assoc}
	return ConfigSet{
		"sbtb": SBTBConfig{BTBGeometry: geom},
		"cbtb": CBTBConfig{BTBGeometry: geom, CounterConfig: CounterConfig{Bits: bits, Threshold: threshold}},
	}
}

// MergeSets layers over on top of base, merging per-field where both sets
// configure the same scheme. Neither input is modified.
func MergeSets(base, over ConfigSet) ConfigSet {
	if len(over) == 0 {
		return base
	}
	out := make(ConfigSet, len(base)+len(over))
	for k, v := range base {
		out[k] = v
	}
	for k, v := range over {
		out[k] = Merge(out[k], v)
	}
	return out
}
