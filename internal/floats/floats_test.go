package floats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOrderingHelpers(t *testing.T) {
	if !LessEq(1, 1) || !LessEq(1, 1+Eps/2) || LessEq(1+2*Eps, 1) {
		t.Error("LessEq boundary behaviour wrong")
	}
	if !GreaterEq(1, 1) || GreaterEq(1, 1+2*Eps) {
		t.Error("GreaterEq boundary behaviour wrong")
	}
	if Greater(1, 1) || !Greater(1+2*Eps, 1) {
		t.Error("Greater boundary behaviour wrong")
	}
}

func TestClamp(t *testing.T) {
	if got := clamp(5, 0, 1); got != 1 {
		t.Errorf("clamp(5,0,1) = %v", got)
	}
	if got := clamp(-5, 0, 1); got != 0 {
		t.Errorf("clamp(-5,0,1) = %v", got)
	}
	if got := clamp(0.5, 0, 1); got != 0.5 {
		t.Errorf("clamp(0.5,0,1) = %v", got)
	}
	if got := Clamp01(1.5); got != 1 {
		t.Errorf("Clamp01(1.5) = %v", got)
	}
}

func TestNonNeg(t *testing.T) {
	if got := NonNeg(-Eps / 2); got != 0 {
		t.Errorf("NonNeg(-Eps/2) = %v, want 0", got)
	}
	if got := NonNeg(-1); got != -1 {
		t.Errorf("NonNeg(-1) = %v, want -1 (genuine errors stay visible)", got)
	}
	if got := NonNeg(2); got != 2 {
		t.Errorf("NonNeg(2) = %v", got)
	}
}

// Property: clamp always lands inside [lo, hi] and is idempotent.
func TestClampProperty(t *testing.T) {
	f := func(v, a, b float64) bool {
		if math.IsNaN(v) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		c := clamp(v, lo, hi)
		return c >= lo && c <= hi && clamp(c, lo, hi) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the ordering helpers are consistent — no pair is both greater
// and less (Greater(b, a)) by more than Eps, and each strict relation
// implies its tolerant one.
func TestOrderingConsistencyProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if Greater(b, a) && Greater(a, b) {
			return false
		}
		if Greater(b, a) && !LessEq(a, b) {
			return false
		}
		if Greater(a, b) && !GreaterEq(a, b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
