package main

import (
	"math"
	"sort"
	"time"
)

// quartiles returns the first quartile, the median and the third quartile
// of xs by the method of Python's statistics.quantiles(xs, n=4) (its
// default, "exclusive"), so the spreads printed here are the ones computed
// from the printed values with that function. The middle value equals
// statistics.median. A single value is all three quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the distance between the quartiles of xs as a share of their
// median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// tailCandidates are the percentiles a latency tail may be reported at.
var tailCandidates = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten of n samples beyond it, or 0 when none does (n < 20): a tail
// read from fewer samples than that is one or two outliers, not a tail.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailCandidates {
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// rank is the 1-based nearest-rank position of the p-th percentile among n
// sorted samples. The epsilon keeps p*n/100 from rounding up past an exact
// integer (90*100/100 must be 90, not 91).
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank p-th percentile of xs (non-empty).
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// interval is a span's [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the parent's duration minus the part of it covered by the
// union of the child intervals. Children may overlap one another (hooks of
// federation members advancing in parallel) and are clipped to the parent.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered, reach := int64(0), parent.start
	for _, c := range cs {
		if c.end <= reach {
			continue
		}
		covered += c.end - max(c.start, reach)
		reach = c.end
	}
	return time.Duration(parent.end - parent.start - covered)
}

// histogram counts durations in log-spaced bins, 100 per decade from 10 ns
// to 100 s, so it answers percentiles within 1.2% of the exact order
// statistic in fixed memory however many scheduler hooks a run makes.
type histogram struct {
	counts [histBins]int64
	n      int64
}

const (
	histPerDecade = 100
	histBins      = 10 * histPerDecade
	histMinNS     = 10.0
)

func (h *histogram) add(d time.Duration) {
	i := 0
	if ns := float64(d); ns > histMinNS {
		i = min(int(math.Log10(ns/histMinNS)*histPerDecade), histBins-1)
	}
	h.counts[i]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileUS returns the nearest-rank p-th percentile in microseconds, as
// the geometric middle of the bin that holds it; 0 when empty.
func (h *histogram) quantileUS(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	r := int64(rank(p, int(h.n)))
	var cum int64
	i := 0
	for ; i < histBins-1; i++ {
		if cum += h.counts[i]; cum >= r {
			break
		}
	}
	return histMinNS * math.Pow(10, (float64(i)+0.5)/histPerDecade) / 1e3
}
