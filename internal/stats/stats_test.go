package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func addAll(s *Stream, xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

func TestStreamBasics(t *testing.T) {
	var s Stream
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Error("empty stream should report NaN statistics")
	}
	addAll(&s, []float64{2, 4, 4, 4, 5, 5, 7, 9})
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := s.Min(); got != 2 {
		t.Errorf("Min = %v, want 2", got)
	}
	if got := s.Max(); got != 9 {
		t.Errorf("Max = %v, want 9", got)
	}
	if got := s.Sum(); got != 40 {
		t.Errorf("Sum = %v, want 40", got)
	}
	if got := s.N(); got != 8 {
		t.Errorf("N = %v, want 8", got)
	}
	// Population std of this classic data set is 2; sample variance is
	// 32/7.
	if got := s.variance(); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("variance = %v, want %v", got, 32.0/7)
	}
}

func TestStreamSingleObservation(t *testing.T) {
	var s Stream
	s.Add(3)
	if got := s.Std(); got != 0 {
		t.Errorf("Std with one observation = %v, want 0", got)
	}
	if !math.IsNaN(s.variance()) {
		t.Error("variance with one observation should be NaN")
	}
}

// Property: Welford matches the naive two-pass computation.
func TestStreamMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true
			}
		}
		if len(xs) < 2 {
			return true
		}
		var s Stream
		addAll(&s, xs)
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		var m2 float64
		for _, x := range xs {
			m2 += (x - mean) * (x - mean)
		}
		naiveVar := m2 / float64(len(xs)-1)
		scale := math.Max(1, math.Abs(naiveVar))
		return math.Abs(s.Mean()-mean) < 1e-9*math.Max(1, math.Abs(mean)) &&
			math.Abs(s.variance()-naiveVar) < 1e-6*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: min <= mean <= max for any non-empty input.
func TestStreamOrderingProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			// Limit magnitudes: near +-MaxFloat64 the running mean loses
			// the min<=mean<=max invariant to rounding, which is out of
			// scope for simulation-scale data.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		var s Stream
		addAll(&s, clean)
		return s.Min() <= s.Mean()+1e-9 && s.Mean() <= s.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
		{75, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{7}, 50); got != 7 {
		t.Errorf("single-element percentile = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	if !math.IsNaN(Percentile(xs, -1)) || !math.IsNaN(Percentile(xs, 101)) {
		t.Error("out-of-range p should be NaN")
	}
	// The input must not be reordered.
	if xs[0] != 15 || xs[4] != 50 {
		t.Error("Percentile mutated its input")
	}
}

func TestSummaryString(t *testing.T) {
	var s Stream
	addAll(&s, []float64{1, 2, 3})
	got := s.Summary().String()
	want := "avg=2.00 std=1.00 max=3.00 (n=3)"
	if got != want {
		t.Errorf("Summary.String() = %q, want %q", got, want)
	}
}
