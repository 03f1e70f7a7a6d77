// Package stats provides the small set of statistics used by the experiment
// harness: streaming mean/standard deviation/extrema (Welford's algorithm)
// and percentiles. It exists so that experiment code never hand-rolls
// numerically unstable accumulations.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Stream accumulates summary statistics one observation at a time using
// Welford's online algorithm. The zero value is ready to use.
type Stream struct {
	n        int
	mean, m2 float64
	min, max float64
	sum      float64
}

// Add records one observation.
func (s *Stream) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.sum += x
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations recorded so far.
func (s *Stream) N() int { return s.n }

// Sum returns the sum of all observations.
func (s *Stream) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or NaN with no observations.
func (s *Stream) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// variance returns the unbiased sample variance, or NaN with fewer than two
// observations.
func (s *Stream) variance() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the unbiased sample standard deviation. With exactly one
// observation it returns 0 so that single-trace experiment tables remain
// printable; with none it returns NaN.
func (s *Stream) Std() float64 {
	if s.n == 1 {
		return 0
	}
	return math.Sqrt(s.variance())
}

// Min returns the smallest observation, or NaN with none.
func (s *Stream) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation, or NaN with none.
func (s *Stream) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// Summary is a value snapshot of a Stream, convenient for table rows.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	Min  float64
	Max  float64
	Sum  float64
}

// Summary returns a snapshot of the stream's statistics.
func (s *Stream) Summary() Summary {
	return Summary{N: s.n, Mean: s.Mean(), Std: s.Std(), Min: s.Min(), Max: s.Max(), Sum: s.sum}
}

// String formats the summary as "avg=… std=… max=… (n=…)".
func (s Summary) String() string {
	return fmt.Sprintf("avg=%.2f std=%.2f max=%.2f (n=%d)", s.Mean, s.Std, s.Max, s.N)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It copies and sorts its input and
// returns NaN for empty input or p outside [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 || p < 0 || p > 100 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
