package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of an ascending slice by
// nearest rank. Empty input yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortFloats(vs ...[]float64) {
	for _, v := range vs {
		sort.Float64s(v)
	}
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of an unsorted slice (mean of the middle pair for even counts).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 exactly as Python's
// statistics.quantiles(values, n=4) does (the default "exclusive"
// method) — the driver computes run-to-run spread with that function, so
// -calibrate must agree with it to the digit. Needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// driver's noise figure for one (workload, metric).
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / med)
}

// quiet is the estimator every timing metric uses over its rounds: the
// quartile on the good side (the lower one of a latency, the upper one of
// a rate), never outside the observed values — the exclusive method
// extrapolates below the smallest of two or three samples. On this class
// of host interference comes in phases of seconds that only ever add
// latency; the median over rounds moved 23 -> 38 us between back-to-back
// runs of the same code, the quiet quartile 3-4%. A regression that shifts
// the whole distribution shifts it too; one that only fattens the slow
// mode does not, which is why the median and the other quartile are
// recorded beside it.
func quiet(v []float64, better string) float64 {
	if len(v) < 2 {
		return median(v)
	}
	s := sortedCopy(v)
	q1, q3 := quartiles(s)
	if better == higher {
		return math.Min(q3, s[len(s)-1])
	}
	return math.Max(q1, s[0])
}

// summary describes the per-round values one estimator collected, recorded
// beside the metric so a reader can judge how settled it was.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := sortedCopy(v)
	q1, q3 := quartiles(s)
	return summary{N: len(s), Min: s[0], Q1: q1, Median: median(s), Q3: q3}
}

// window holds the latency samples of one measured window and turns them
// into the per-window p50/p99 the round estimator keeps.
type window struct {
	ns []float64
}

func (w *window) reset()              { w.ns = w.ns[:0] }
func (w *window) add(d time.Duration) { w.ns = append(w.ns, float64(d.Nanoseconds())) }

// pctlUs sorts the samples in place and returns the percentile in µs.
func (w *window) pctlUs(p float64) float64 {
	sort.Float64s(w.ns)
	return percentile(w.ns, p) / 1e3
}

// rounds accumulates one value per round under a metric name. A timing
// metric is reported as the quiet quartile over its rounds (setQuiet), a
// ratio of two timings taken in the same round as the median over rounds
// (setMedian). Pooled percentiles over a whole run are deliberately not
// used: one bad second moved them 20-40% in sizing runs.
type rounds map[string][]float64

func (r rounds) add(name string, v float64) { r[name] = append(r[name], v) }

func (r rounds) median(name string) float64 { return median(r[name]) }

// splitmix is the harness's seeded generator (SplitMix64): row/column
// choice, payload patterns, op order and arrival times all derive from it,
// so the same -seed yields the same inputs.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	x := uint64(*s)
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// float01 returns a uniform value in (0, 1].
func (s *splitmix) float01() float64 {
	return (float64(s.next()>>11) + 1) / (1 << 53)
}
