package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical draws", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Errorf("zero seed produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	a := parent.Split("alpha")
	b := parent.Split("beta")
	a2 := New(7).Split("alpha")
	// Same label: identical stream. Different label: different stream.
	if a.Uint64() != a2.Uint64() {
		t.Error("Split is not deterministic by label")
	}
	if a.Uint64() == b.Uint64() {
		t.Error("differently labelled splits coincide")
	}
	// Splitting must not advance the parent.
	p1 := New(7)
	_ = p1.Split("x")
	p2 := New(7)
	if p1.Uint64() != p2.Uint64() {
		t.Error("Split advanced the parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v outside [0,1)", v)
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := New(4)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform(-3,5) = %v", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	counts := make([]int, 7)
	for i := 0; i < 7000; i++ {
		counts[r.Intn(7)]++
	}
	for v, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("Intn(7) value %d drawn %d times of 7000 (expected ~1000)", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

// moments estimates the sample mean and variance of n draws.
func moments(n int, draw func() float64) (mean, variance float64) {
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := draw()
		sum += v
		sumSq += v * v
	}
	mean = sum / float64(n)
	variance = sumSq/float64(n) - mean*mean
	return mean, variance
}

func TestExpMoments(t *testing.T) {
	r := New(11)
	mean, variance := moments(200000, func() float64 { return r.Exp(2) })
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Exp(2) mean = %v, want 0.5", mean)
	}
	if math.Abs(variance-0.25) > 0.02 {
		t.Errorf("Exp(2) variance = %v, want 0.25", variance)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(12)
	mean, variance := moments(200000, r.normal)
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want 1", variance)
	}
}

func TestGammaMoments(t *testing.T) {
	cases := []struct{ shape, scale float64 }{
		{4.2, 0.94},     // Lublin short-runtime component
		{312, 0.03},     // Lublin long-runtime component
		{0.5, 2.0},      // shape < 1 boost path
		{10.23, 0.4871}, // Lublin inter-arrival
	}
	r := New(13)
	for _, c := range cases {
		wantMean := c.shape * c.scale
		wantVar := c.shape * c.scale * c.scale
		mean, variance := moments(200000, func() float64 { return r.Gamma(c.shape, c.scale) })
		if math.Abs(mean-wantMean) > 0.02*wantMean+0.01 {
			t.Errorf("Gamma(%v,%v) mean = %v, want %v", c.shape, c.scale, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.1*wantVar+0.02 {
			t.Errorf("Gamma(%v,%v) variance = %v, want %v", c.shape, c.scale, variance, wantVar)
		}
	}
}

func TestGammaPositive(t *testing.T) {
	r := New(14)
	for i := 0; i < 10000; i++ {
		if v := r.Gamma(0.3, 1); v < 0 {
			t.Fatalf("Gamma(0.3,1) = %v < 0", v)
		}
	}
}

func TestHyperGammaMixture(t *testing.T) {
	r := New(15)
	// With p=1 only the first component is drawn; with p=0 only the second.
	mean1, _ := moments(100000, func() float64 { return r.HyperGamma(2, 1, 100, 1, 1) })
	mean2, _ := moments(100000, func() float64 { return r.HyperGamma(2, 1, 100, 1, 0) })
	if math.Abs(mean1-2) > 0.1 {
		t.Errorf("HyperGamma p=1 mean = %v, want 2", mean1)
	}
	if math.Abs(mean2-100) > 1 {
		t.Errorf("HyperGamma p=0 mean = %v, want 100", mean2)
	}
	// p=0.5: mean of mixture.
	meanMix, _ := moments(200000, func() float64 { return r.HyperGamma(2, 1, 100, 1, 0.5) })
	if math.Abs(meanMix-51) > 1 {
		t.Errorf("HyperGamma p=0.5 mean = %v, want 51", meanMix)
	}
}

func TestLognormalMoments(t *testing.T) {
	r := New(16)
	mu, sigma := 1.0, 0.5
	wantMean := math.Exp(mu + sigma*sigma/2)
	mean, _ := moments(300000, func() float64 { return r.Lognormal(mu, sigma) })
	if math.Abs(mean-wantMean) > 0.03*wantMean {
		t.Errorf("Lognormal(1,0.5) mean = %v, want %v", mean, wantMean)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(17)
	hits := 0
	for i := 0; i < 100000; i++ {
		if r.Bernoulli(0.244) {
			hits++
		}
	}
	freq := float64(hits) / 100000
	if math.Abs(freq-0.244) > 0.01 {
		t.Errorf("Bernoulli(0.244) frequency = %v", freq)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(18)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := map[int]bool{}
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) != 10 {
		t.Errorf("Shuffle lost elements: %v", xs)
	}
}

func TestPanicsOnBadParams(t *testing.T) {
	for name, fn := range map[string]func(){
		"Exp(0)":       func() { New(1).Exp(0) },
		"Gamma(0,1)":   func() { New(1).Gamma(0, 1) },
		"Gamma(1,0)":   func() { New(1).Gamma(1, 0) },
		"Gamma(-1,-1)": func() { New(1).Gamma(-1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
