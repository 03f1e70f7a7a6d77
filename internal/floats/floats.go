// Package floats provides tolerant floating-point comparison helpers used
// throughout the simulator. Simulation time and resource fractions are
// float64 values accumulated over many events, so direct equality tests are
// unreliable; every comparison in the scheduler and simulator goes through
// this package with a shared absolute tolerance.
package floats

// Eps is the shared absolute tolerance for resource and time comparisons.
const Eps = 1e-9

// LessEq reports whether a <= b up to Eps.
func LessEq(a, b float64) bool {
	return a <= b+Eps
}

// GreaterEq reports whether a >= b up to Eps.
func GreaterEq(a, b float64) bool {
	return a >= b-Eps
}

// Greater reports whether a > b by more than Eps.
func Greater(a, b float64) bool {
	return a > b+Eps
}

// clamp returns v restricted to the closed interval [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Clamp01 returns v restricted to [0, 1].
func Clamp01(v float64) float64 { return clamp(v, 0, 1) }

// NonNeg returns v, snapping tiny negative rounding residue to exactly zero.
// Values below -Eps are returned unchanged so genuine sign errors stay
// visible to invariant checks.
func NonNeg(v float64) float64 {
	if v < 0 && v >= -Eps {
		return 0
	}
	return v
}
