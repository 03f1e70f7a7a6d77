// Package rng provides a deterministic, splittable pseudo-random number
// generator plus the distribution samplers needed by the workload models:
// uniform, exponential, gamma (Marsaglia–Tsang), hyper-gamma and lognormal.
//
// Everything in this repository that consumes randomness takes an explicit
// *rng.Source so that experiments are reproducible from a single seed. The
// generator is SplitMix64-seeded xoshiro256**, which is fast, has a 256-bit
// state and passes BigCrush; the standard library's math/rand/v2 uses a
// close relative, but we implement our own so that streams can be split
// deterministically by label.
package rng

import (
	"hash/fnv"
	"math"
)

// Source is a deterministic pseudo-random number generator. It is not safe
// for concurrent use; split independent streams with Split instead of
// sharing one Source across goroutines.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64, which guarantees a
// well-mixed non-zero initial state for any seed, including zero.
func New(seed uint64) *Source {
	r := &Source{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent stream labelled by name. Two Sources split
// from the same parent with different labels produce uncorrelated streams;
// splitting is deterministic and does not advance the parent.
func (r *Source) Split(name string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return New(r.s[0] ^ h.Sum64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits (xoshiro256**).
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform value in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bernoulli returns true with probability p.
func (r *Source) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate).
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp requires positive rate")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// normal returns a standard normal deviate using the polar Box–Muller
// transform.
func (r *Source) normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Lognormal returns exp(N(mu, sigma^2)).
func (r *Source) Lognormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.normal())
}

// Gamma returns a gamma-distributed value with shape alpha and scale beta
// (mean alpha*beta), using the Marsaglia–Tsang squeeze method, with the
// standard alpha<1 boost.
func (r *Source) Gamma(alpha, beta float64) float64 {
	if alpha <= 0 || beta <= 0 {
		panic("rng: Gamma requires positive shape and scale")
	}
	if alpha < 1 {
		// Boost: gamma(a) = gamma(a+1) * U^(1/a).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(alpha+1, beta) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return beta * d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return beta * d * v
		}
	}
}

// HyperGamma samples from a two-component gamma mixture: with probability p
// the value comes from Gamma(a1, b1), otherwise from Gamma(a2, b2). This is
// the distribution family used by the Lublin–Feitelson workload model for
// log-runtimes.
func (r *Source) HyperGamma(a1, b1, a2, b2, p float64) float64 {
	if r.Bernoulli(p) {
		return r.Gamma(a1, b1)
	}
	return r.Gamma(a2, b2)
}

// Shuffle randomizes the order of n elements using the provided swap
// function (Fisher–Yates).
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
