package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interpolate returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between the two nearest ranks, as numpy's default does.
// A +Inf that carries any weight makes the result +Inf.
func interpolate(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if frac == 0 || math.IsInf(s[lo], 1) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// latencies holds a run's latency samples by item: a benchmark on the suite
// workloads, an upload body on serve-upload. A failed or refused request is
// recorded as +Inf, so it ranks beyond every success.
type latencies map[string][]float64

func (l latencies) add(item string, ms float64) { l[item] = append(l[item], ms) }

// percentiles reduces each item's samples to their median and returns the
// p-th percentile of those medians for each p, with the number of samples
// ranked beyond each and the total sample count.
//
// Items differ in size by up to 30×, so the samples fall into one cluster
// per item, and a percentile of the pooled samples at a multiple of
// 1/items lands on the edge between two clusters: its value is then the
// slowest sample of one item, which swings from run to run. The median of
// each item is steady, and interpolating between items keeps a percentile
// from jumping from one item to the next.
func (l latencies) percentiles(ps ...float64) (vals []float64, beyond []int, samples int) {
	var meds []float64
	for _, xs := range l {
		meds = append(meds, median(xs))
		samples += len(xs)
	}
	for _, p := range ps {
		v := interpolate(meds, p)
		n := 0
		for _, xs := range l {
			for _, x := range xs {
				if x > v {
					n++
				}
			}
		}
		vals = append(vals, v)
		beyond = append(beyond, n)
	}
	return vals, beyond, samples
}
