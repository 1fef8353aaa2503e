package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads: the
// workloads and, for every metric, its name, unit and direction.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// manifest joins BENCHMARK.json with manifest.json, which holds what
// BENCHMARK.json has no key for: the benchmark's frozen settings and, for
// every metric, what it measures, which end-to-end metric it should move and
// on which workloads.
type manifest struct {
	// BoundsSeeds are the seeds of the runs the bounds in BENCHMARK.json
	// were set on; HeldOutSeed is kept out of them for later claims.
	BoundsSeeds []int64 `json:"bounds_seeds"`
	HeldOutSeed int64   `json:"held_out_seed"`

	// OpenLoopRPS is the fixed arrival rate of the serve-upload open-loop
	// phase, frozen so later changes are measured at the same offered load:
	// about a third of the closed-loop capacity measured when the benchmark
	// was defined (about 3 uploads/s on 2 CPUs). The slowest body takes
	// about 0.8 s alone, so uploads seldom queue behind each other, and the
	// percentiles do not hinge on which bodies the seed puts next to each
	// other; at half capacity they did.
	OpenLoopRPS float64 `json:"open_loop_rps"`

	// SpeedRefMS is the speed probe's kernel time at the reference speed,
	// to which every timed end-to-end metric is scaled (see speed.go):
	// about the kernel's time when the machine runs at its usual speed.
	// Frozen, so that runs of different commits are scaled alike.
	SpeedRefMS float64 `json:"speed_ref_ms"`

	Metrics map[string]metricInfo `json:"metrics"`
	Dropped []droppedSpec         `json:"dropped"`

	Workloads map[string]string `json:"-"` // name → why, from BENCHMARK.json
	EndToEnd  []metricSpec      `json:"-"`
	PerLayer  []metricSpec      `json:"-"`
}

// metricSpec is a metric as BENCHMARK.json lists it.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// metricInfo describes one metric. For a per-layer metric, Moves names the
// end-to-end metrics it should move; On lists the workloads it is measured
// on, and elsewhere it reads 0.
type metricInfo struct {
	Layer      string   `json:"layer,omitempty"`
	Moves      []string `json:"moves,omitempty"`
	On         []string `json:"on"`
	Definition string   `json:"definition"`
}

type droppedSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// loadManifest reads the BENCHMARK.json at path and the embedded
// manifest.json, and checks that both describe the same metrics.
func loadManifest(path string) (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(manifestJSON, &m); err != nil {
		return nil, fmt.Errorf("manifest.json: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m.Workloads = map[string]string{}
	for _, w := range b.Workloads {
		m.Workloads[w.Name] = w.Why
	}
	m.EndToEnd, m.PerLayer = b.EndToEnd, b.PerLayer
	listed := len(b.EndToEnd) + len(b.PerLayer)
	for _, s := range append(append([]metricSpec(nil), b.EndToEnd...), b.PerLayer...) {
		if _, ok := m.Metrics[s.Name]; !ok {
			return nil, fmt.Errorf("manifest.json does not describe metric %s", s.Name)
		}
	}
	if len(m.Metrics) != listed {
		return nil, fmt.Errorf("manifest.json describes %d metrics, %s lists %d", len(m.Metrics), path, listed)
	}
	return &m, nil
}

func (m *manifest) workloadNames() []string {
	var out []string
	for n := range m.Workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
