package main

import (
	"math"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5}); s != 1 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{
		0: 0, 19: 0, 20: 50, 39: 50, 40: 75, 100: 90, 199: 90, 200: 95,
		999: 95, 1000: 99, 9999: 99, 10000: 99.9,
	} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if p := percentile(xs, 90); p != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", p)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 20}, {15, 30}, // overlapping: 20 covered
		{50, 60},  // 10
		{90, 120}, // clipped to 10
		{-5, 2},   // clipped to 2
		{40, 40},  // empty
	}
	if got := selfTime(parent, children); got != 58 {
		t.Errorf("selfTime = %v, want 58", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %v, want 100", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h histogram
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for p, want := range map[float64]float64{50: 500, 99: 990} {
		if got := h.quantileUS(p); math.Abs(got/want-1) > 0.012 {
			t.Errorf("p%v = %v us, want %v within 1.2%%", p, got, want)
		}
	}
}
