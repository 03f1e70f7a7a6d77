package core

import (
	"math"
	"testing"

	"repro/internal/vectorpack"
)

// TestWeightedYields verifies the Section VII user-priority extension: two
// otherwise identical CPU-bound jobs on one node, one with weight 2, split
// the CPU 2:1 under max-min weighted yield.
func TestWeightedYields(t *testing.T) {
	js := []JobSpec{
		{ID: 0, Tasks: 1, CPUNeed: 1.0, MemReq: 0.2, Weight: 2},
		{ID: 1, Tasks: 1, CPUNeed: 1.0, MemReq: 0.2, Weight: 1},
	}
	alloc, ok := MaxMinYield(js, nodes(1), vectorpack.MCB8{})
	if !ok {
		t.Fatal("feasible instance failed")
	}
	// Base yield Y with 2Y + Y <= 1: Y ~ 1/3, so yields ~2/3 and ~1/3
	// within the 0.01 search accuracy.
	if y := alloc.Yields[0]; math.Abs(y-2.0/3) > 0.03 {
		t.Errorf("weighted job yield = %v, want ~0.667", y)
	}
	if y := alloc.Yields[1]; math.Abs(y-1.0/3) > 0.03 {
		t.Errorf("unit job yield = %v, want ~0.333", y)
	}
	if err := ValidateAllocation(js, alloc, nodes(1)); err != nil {
		t.Error(err)
	}
}

// TestWeightCapsAtFullYield: a huge weight never pushes a yield above 1.
func TestWeightCapsAtFullYield(t *testing.T) {
	js := []JobSpec{
		{ID: 0, Tasks: 1, CPUNeed: 0.5, MemReq: 0.2, Weight: 100},
		{ID: 1, Tasks: 1, CPUNeed: 0.5, MemReq: 0.2},
	}
	alloc, ok := MaxMinYield(js, nodes(1), vectorpack.MCB8{})
	if !ok {
		t.Fatal("feasible instance failed")
	}
	if alloc.Yields[0] > 1+1e-9 {
		t.Errorf("yield above 1: %v", alloc.Yields[0])
	}
	// Both jobs fit at full speed here (0.5+0.5 = 1), so weights change
	// nothing.
	if alloc.Yields[1] < 0.99 {
		t.Errorf("unit job starved at %v despite full-speed feasibility", alloc.Yields[1])
	}
}

// TestZeroWeightMeansDefault: Weight 0 behaves exactly like weight 1, so
// the paper's unweighted experiments are untouched by the extension.
func TestZeroWeightMeansDefault(t *testing.T) {
	unweighted := []JobSpec{
		{ID: 0, Tasks: 1, CPUNeed: 1.0, MemReq: 0.2},
		{ID: 1, Tasks: 1, CPUNeed: 1.0, MemReq: 0.2},
	}
	explicit := []JobSpec{
		{ID: 0, Tasks: 1, CPUNeed: 1.0, MemReq: 0.2, Weight: 1},
		{ID: 1, Tasks: 1, CPUNeed: 1.0, MemReq: 0.2, Weight: 1},
	}
	a, ok := MaxMinYield(unweighted, nodes(1), vectorpack.MCB8{})
	if !ok {
		t.Fatal("unweighted failed")
	}
	b, ok := MaxMinYield(explicit, nodes(1), vectorpack.MCB8{})
	if !ok {
		t.Fatal("explicit failed")
	}
	for id := 0; id <= 1; id++ {
		if a.Yields[id] != b.Yields[id] {
			t.Errorf("job %d: zero-weight yield %v != weight-1 yield %v",
				id, a.Yields[id], b.Yields[id])
		}
	}
}
