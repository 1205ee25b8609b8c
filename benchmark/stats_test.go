package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4), default (exclusive) method.
	cases := []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 9}, 4, 10},
		{[]float64{23.2, 24.6, 24.3, 23.3, 23.9, 24.9, 25.2, 23.1, 24.4, 29.9}, 23.275, 24.975},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g; Python gives %g, %g", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpreadAndQuiet(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(v), 5.5/5.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if got := quiet(v, lower); got != 2.75 {
		t.Errorf("quiet lower = %g, want the lower quartile 2.75", got)
	}
	if got := quiet(v, higher); got != 8.25 {
		t.Errorf("quiet higher = %g, want the upper quartile 8.25", got)
	}
	if got := quiet([]float64{3, 1, 2}, lower); got != 1 {
		t.Errorf("quiet of three values = %g, want the smallest (the exclusive lower quartile of three)", got)
	}
	// The exclusive quartiles of two values lie outside them (4 and 10 for 5
	// and 9): a run must not report a time faster than any it measured.
	if lo, hi := quiet([]float64{9, 5}, lower), quiet([]float64{9, 5}, higher); lo != 5 || hi != 9 {
		t.Errorf("quiet of two values = %g, %g; want them clamped to the observed 5 and 9", lo, hi)
	}
	if got := quiet([]float64{7}, higher); got != 7 {
		t.Errorf("quiet of one value = %g, want it", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	for p, want := range map[float64]float64{0: 10, 25: 10, 50: 20, 75: 30, 99: 40, 100: 40} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(%g) = %g, want %g", p, got, want)
		}
	}
}

func TestSplitmixIsDeterministic(t *testing.T) {
	a, b := splitmix(42), splitmix(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("same seed, different stream")
		}
	}
	c := splitmix(43)
	if a.next() == c.next() {
		t.Error("different seeds gave the same value")
	}
}
