package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/vectorpack"
)

func TestPriority(t *testing.T) {
	// A job that never ran has infinite priority (must not be paused).
	if p := Priority(100, 0); !math.IsInf(p, 1) {
		t.Errorf("Priority(100, 0) = %v, want +Inf", p)
	}
	// The paper's example: flow 60s, virtual time 25s -> 60/625.
	if p := Priority(60, 25); math.Abs(p-60.0/625) > 1e-12 {
		t.Errorf("Priority(60, 25) = %v, want %v", p, 60.0/625)
	}
	// The 30-second numerator floor.
	if p := Priority(5, 10); math.Abs(p-30.0/100) > 1e-12 {
		t.Errorf("Priority(5, 10) = %v, want 0.3", p)
	}
	// Squared virtual time: doubling virtual time quarters priority.
	if a, b := Priority(1000, 10), Priority(1000, 20); math.Abs(a/b-4) > 1e-9 {
		t.Errorf("priority ratio = %v, want 4", a/b)
	}
	// Linear ablation: doubling virtual time halves priority.
	if a, b := PriorityLinear(1000, 10), PriorityLinear(1000, 20); math.Abs(a/b-2) > 1e-9 {
		t.Errorf("linear priority ratio = %v, want 2", a/b)
	}
}

// Property: priority decreases with virtual time and increases with flow
// time beyond the bound.
func TestPriorityMonotonicityProperty(t *testing.T) {
	f := func(flow8, vt8 uint16) bool {
		flow := 31 + float64(flow8)
		vt := 1 + float64(vt8)
		if Priority(flow, vt) < Priority(flow, vt+1) {
			return false
		}
		return Priority(flow+1, vt) >= Priority(flow, vt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func specs(jobs ...JobSpec) []JobSpec { return jobs }

// nodes builds the homogeneous n-node cluster used throughout these tests.
func nodes(n int) *cluster.Cluster { return cluster.Homogeneous(n) }

func TestMaxMinYieldSingleJob(t *testing.T) {
	// One job fitting alone runs at full yield.
	alloc, ok := MaxMinYield(specs(JobSpec{ID: 0, Tasks: 2, CPUNeed: 0.4, MemReq: 0.3}), nodes(2), vectorpack.MCB8{})
	if !ok {
		t.Fatal("feasible instance failed")
	}
	if alloc.Yields[0] != 1 {
		t.Errorf("yield = %v, want 1", alloc.Yields[0])
	}
	if len(alloc.Nodes[0]) != 2 {
		t.Errorf("placements = %v", alloc.Nodes[0])
	}
}

func TestMaxMinYieldOversubscribed(t *testing.T) {
	// Two 1-task jobs, each needing the full CPU of the single node: the
	// optimal uniform yield is 0.5 (each gets half).
	js := specs(
		JobSpec{ID: 0, Tasks: 1, CPUNeed: 1.0, MemReq: 0.2},
		JobSpec{ID: 1, Tasks: 1, CPUNeed: 1.0, MemReq: 0.2},
	)
	alloc, ok := MaxMinYield(js, nodes(1), vectorpack.MCB8{})
	if !ok {
		t.Fatal("feasible instance failed")
	}
	if y := alloc.MinYield; y < 0.49 || y > 0.5+1e-9 {
		t.Errorf("min yield = %v, want ~0.5 (binary search accuracy 0.01)", y)
	}
	if err := ValidateAllocation(js, alloc, nodes(1)); err != nil {
		t.Error(err)
	}
}

func TestMaxMinYieldMemoryInfeasible(t *testing.T) {
	js := specs(
		JobSpec{ID: 0, Tasks: 1, CPUNeed: 0.1, MemReq: 0.8},
		JobSpec{ID: 1, Tasks: 1, CPUNeed: 0.1, MemReq: 0.8},
	)
	if _, ok := MaxMinYield(js, nodes(1), vectorpack.MCB8{}); ok {
		t.Error("memory-infeasible instance reported feasible")
	}
}

func TestMaxMinYieldEmpty(t *testing.T) {
	alloc, ok := MaxMinYield(nil, nodes(4), vectorpack.MCB8{})
	if !ok || alloc.MinYield != 0 || len(alloc.Nodes) != 0 {
		t.Errorf("empty instance: %+v, %v", alloc, ok)
	}
}

// Property: MaxMinYield allocations always satisfy the hard constraints and
// the claimed minimum yield, on random feasible-by-memory instances.
func TestMaxMinYieldSoundnessProperty(t *testing.T) {
	f := func(seed int64, nJobs uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4
		var js []JobSpec
		for i := 0; i < int(nJobs%12); i++ {
			js = append(js, JobSpec{
				ID:      i,
				Tasks:   1 + r.Intn(3),
				CPUNeed: 0.05 + r.Float64()*0.95,
				MemReq:  0.05 + r.Float64()*0.45,
			})
		}
		alloc, ok := MaxMinYield(js, nodes(n), vectorpack.MCB8{})
		if !ok {
			return true // memory-bound: nothing to check
		}
		if err := ValidateAllocation(js, alloc, nodes(n)); err != nil {
			t.Log(err)
			return false
		}
		for i := range js {
			if alloc.Yields[i] < alloc.MinYield-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestImproveAverageYieldFillsLeftover(t *testing.T) {
	// Two jobs on separate nodes at yield 0.5: improvement should push
	// both back to 1 since each node has headroom.
	js := specs(
		JobSpec{ID: 0, Tasks: 1, CPUNeed: 0.6, MemReq: 0.2},
		JobSpec{ID: 1, Tasks: 1, CPUNeed: 0.6, MemReq: 0.2},
	)
	alloc := &Allocation{Nodes: [][]int{{0}, {1}}, Yields: []float64{0.5, 0.5}}
	ImproveAverageYieldRanked(js, alloc, nodes(2), nil, nil)
	if alloc.Yields[0] != 1 || alloc.Yields[1] != 1 {
		t.Errorf("yields = %v, want both 1", alloc.Yields)
	}
}

func TestImproveAverageYieldPrefersCheapJobs(t *testing.T) {
	// Shared node, leftover 0.4 CPU. The cheap job (total need 0.2) is
	// raised first and fully; the expensive one gets the remainder.
	js := specs(
		JobSpec{ID: 0, Tasks: 1, CPUNeed: 0.2, MemReq: 0.1}, // cheap
		JobSpec{ID: 1, Tasks: 1, CPUNeed: 0.8, MemReq: 0.1}, // expensive
	)
	alloc := &Allocation{Nodes: [][]int{{0}, {0}}, Yields: []float64{0.5, 0.5}}
	// Used: 0.2*0.5 + 0.8*0.5 = 0.5, headroom 0.5.
	ImproveAverageYieldRanked(js, alloc, nodes(1), nil, nil)
	if alloc.Yields[0] != 1 {
		t.Errorf("cheap job yield = %v, want 1", alloc.Yields[0])
	}
	// After raising job 0 to 1: used = 0.2 + 0.4 = 0.6; headroom 0.4
	// raises job 1 by 0.4/0.8 = 0.5 -> but cap at... 0.5+0.5 = 1.0 exactly.
	if math.Abs(alloc.Yields[1]-1) > 1e-9 {
		t.Errorf("expensive job yield = %v, want 1", alloc.Yields[1])
	}
}

func TestImproveAverageYieldRespectsEligibility(t *testing.T) {
	js := specs(
		JobSpec{ID: 0, Tasks: 1, CPUNeed: 0.5, MemReq: 0.1},
		JobSpec{ID: 1, Tasks: 1, CPUNeed: 0.5, MemReq: 0.1},
	)
	alloc := &Allocation{Nodes: [][]int{{0}, {0}}, Yields: []float64{0.5, 0.5}}
	// Only job 1 may be raised; headroom is 0.5 so job 1 reaches 1.0 and
	// job 0 stays put.
	ImproveAverageYieldRanked(js, alloc, nodes(1), func(j JobSpec) bool { return j.ID == 1 }, nil)
	if alloc.Yields[0] != 0.5 {
		t.Errorf("ineligible job raised to %v", alloc.Yields[0])
	}
	if alloc.Yields[1] != 1 {
		t.Errorf("eligible job yield = %v, want 1", alloc.Yields[1])
	}
}

// Property: improvement never lowers a yield, never exceeds 1, and keeps
// every node within CPU capacity.
func TestImproveAverageYieldSoundnessProperty(t *testing.T) {
	f := func(seed int64, nJobs uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3
		var js []JobSpec
		for i := 0; i < 1+int(nJobs%10); i++ {
			js = append(js, JobSpec{
				ID:      i,
				Tasks:   1 + r.Intn(2),
				CPUNeed: 0.05 + r.Float64()*0.9,
				MemReq:  0.05 + r.Float64()*0.3,
			})
		}
		alloc, ok := MaxMinYield(js, nodes(n), vectorpack.MCB8{})
		if !ok {
			return true
		}
		before := slices.Clone(alloc.Yields)
		ImproveAverageYieldRanked(js, alloc, nodes(n), nil, nil)
		for i, y := range alloc.Yields {
			if y < before[i]-1e-12 || y > 1+1e-9 {
				return false
			}
		}
		return ValidateAllocation(js, alloc, nodes(n)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestYieldForStretchTarget(t *testing.T) {
	s := StretchState{FlowTime: 600, VirtualTime: 300}
	// Target equal to current estimate sustained: (600+T)/S = 300+yT.
	// With T=600, S=2: y = ((1200)/2 - 300)/600 = 0.5.
	if y := yieldForStretchTarget(s, 600, 2); math.Abs(y-0.5) > 1e-12 {
		t.Errorf("y = %v, want 0.5", y)
	}
	// Very generous target: negative solution clamps to the floor.
	if y := yieldForStretchTarget(s, 600, 100); y != MinProgressYield {
		t.Errorf("y = %v, want floor %v", y, MinProgressYield)
	}
	// Impossible target: clamps to 1.
	if y := yieldForStretchTarget(s, 600, 1.0001); y != 1 {
		t.Errorf("y = %v, want 1", y)
	}
	// New job (vt=0): some finite yield in range.
	y := yieldForStretchTarget(StretchState{FlowTime: 0, VirtualTime: 0}, 600, 2)
	if y < MinProgressYield || y > 1 {
		t.Errorf("new-job yield = %v outside [0.01, 1]", y)
	}
}

// Property: the stretch solver's output, fed back into the stretch
// recurrence, achieves at most the target (up to clamping at 1).
func TestYieldForStretchTargetAlgebraProperty(t *testing.T) {
	f := func(flow16, vt16, target8 uint16) bool {
		s := StretchState{FlowTime: float64(flow16), VirtualTime: 1 + float64(vt16)}
		T := 600.0
		target := 1 + float64(target8%50)
		y := yieldForStretchTarget(s, T, target)
		if y < MinProgressYield || y > 1 {
			return false
		}
		achieved := (s.FlowTime + T) / (s.VirtualTime + y*T)
		// If the solver clamped at 1 the target is unreachable; otherwise
		// the achieved estimate must not exceed the target.
		return y == 1 || y == MinProgressYield || achieved <= target*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinEstimatedStretch(t *testing.T) {
	states := []StretchState{
		{JobSpec: JobSpec{ID: 0, Tasks: 1, CPUNeed: 1.0, MemReq: 0.2}, FlowTime: 600, VirtualTime: 100},
		{JobSpec: JobSpec{ID: 1, Tasks: 1, CPUNeed: 1.0, MemReq: 0.2}, FlowTime: 1200, VirtualTime: 100},
	}
	alloc, ok := MinEstimatedStretch(states, nodes(1), vectorpack.MCB8{}, 600)
	if !ok {
		t.Fatal("feasible instance failed")
	}
	// Job 1 has worse current stretch (12 vs 6), so it must receive at
	// least as much yield as job 0.
	if alloc.Yields[1] < alloc.Yields[0]-1e-9 {
		t.Errorf("worse-off job got less yield: %v", alloc.Yields)
	}
	sp := []JobSpec{states[0].JobSpec, states[1].JobSpec}
	if err := ValidateAllocation(sp, alloc, nodes(1)); err != nil {
		t.Error(err)
	}
}

func TestMinEstimatedStretchMemoryBound(t *testing.T) {
	states := []StretchState{
		{JobSpec: JobSpec{ID: 0, Tasks: 1, CPUNeed: 0.1, MemReq: 0.9}, FlowTime: 60, VirtualTime: 10},
		{JobSpec: JobSpec{ID: 1, Tasks: 1, CPUNeed: 0.1, MemReq: 0.9}, FlowTime: 60, VirtualTime: 10},
	}
	if _, ok := MinEstimatedStretch(states, nodes(1), vectorpack.MCB8{}, 600); ok {
		t.Error("memory-bound instance reported feasible")
	}
}

func TestValidateAllocationCatchesViolations(t *testing.T) {
	js := specs(JobSpec{ID: 0, Tasks: 2, CPUNeed: 0.8, MemReq: 0.6})
	alloc := &Allocation{Nodes: [][]int{{0, 0}}, Yields: []float64{0.5}} // both tasks on one node: memory 1.2
	if err := ValidateAllocation(js, alloc, nodes(2)); err == nil {
		t.Error("memory violation not detected")
	}
	alloc.Nodes[0] = []int{0}
	if err := ValidateAllocation(js, alloc, nodes(2)); err == nil {
		t.Error("missing placement not detected")
	}
	alloc.Nodes[0] = []int{0, 7}
	if err := ValidateAllocation(js, alloc, nodes(2)); err == nil {
		t.Error("node out of range not detected")
	}
	alloc.Nodes[0] = []int{0, 1}
	alloc.Yields[0] = 1.5
	if err := ValidateAllocation(js, alloc, nodes(2)); err == nil {
		t.Error("yield out of range not detected")
	}
	missing := &Allocation{}
	if err := ValidateAllocation(js, missing, nodes(2)); err == nil {
		t.Error("absent job not detected")
	}
}

func TestTotalCPUNeed(t *testing.T) {
	j := JobSpec{Tasks: 4, CPUNeed: 0.25}
	if got := j.totalCPUNeed(); got != 1 {
		t.Errorf("totalCPUNeed = %v, want 1", got)
	}
}
