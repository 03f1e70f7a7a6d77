package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/floats"
	"repro/internal/vectorpack"
)

// itemOrderTotals sums the rigid demand of the jobs not dropped, job by job.
func itemOrderTotals(jobs []JobSpec, dropped []bool, d int) []float64 {
	totals := make([]float64, d)
	for i := range jobs {
		if dropped == nil || !dropped[i] {
			AddRigidDemand(totals, &jobs[i])
		}
	}
	return totals
}

// clusterWithMemBound returns four nodes whose aggregate memory capacity
// plus floats.Eps rounds to exactly lim, the value the bound compares
// against.
func clusterWithMemBound(t *testing.T, lim float64) *cluster.Cluster {
	t.Helper()
	nodes := []cluster.NodeSpec{cluster.Spec(1, 1), cluster.Spec(1, 1), cluster.Spec(1, 1), cluster.Spec(1, 0)}
	x := lim - 3 - floats.Eps
	for i := 0; i < 1000; i++ {
		nodes[3].Caps[cluster.DimMem] = x
		c := cluster.New(nodes)
		got := c.TotalCap(cluster.DimMem) + floats.Eps
		if got == lim {
			return c
		}
		x = math.Nextafter(x, math.Copysign(math.Inf(1), lim-got))
	}
	t.Fatalf("no node capacity puts the bound at %v", lim)
	return nil
}

// TestShedBoundExactNearBoundary builds chains whose running sum and the
// remaining set's item-order sum differ in the last ulps, with the bound
// sitting between them: the running sum alone would decide wrongly, and
// Fits must take the re-sum and decide as the allocator's bound does.
func TestShedBoundExactNearBoundary(t *testing.T) {
	for _, runningAbove := range []bool{true, false} {
		var jobs []JobSpec
		var running, exact float64
	search:
		for a := 20; a <= 40; a++ {
			for b := 1; b <= 40; b++ {
				jobs = []JobSpec{
					{ID: 0, Tasks: a, CPUNeed: 0.5, MemReq: 0.1},
					{ID: 1, Tasks: b, CPUNeed: 0.5, MemReq: 0.1},
				}
				running = itemOrderTotals(jobs, nil, 2)[1] - float64(b)*0.1
				exact = itemOrderTotals(jobs[:1], nil, 2)[1]
				if running != exact && (running > exact) == runningAbove {
					break search
				}
			}
		}
		if running == exact {
			t.Fatal("no chain with differing sums")
		}
		// Put the bound on the lower of the two sums: the higher one
		// overflows it, the lower one does not.
		lim := math.Min(running, exact)
		c := clusterWithMemBound(t, lim)
		var b ShedBound
		b.Reset(jobs, c)
		b.Drop(&jobs[1])
		dropped := []bool{false, true}
		want := !RigidOverflow(itemOrderTotals(jobs, dropped, 2), AggregateCaps(nil, c))
		if naive := !(running > lim); naive == want {
			t.Fatalf("runningAbove=%v: running sum %v and item-order sum %v decide alike at %v", runningAbove, running, exact, lim)
		}
		if got := b.Fits(jobs, dropped); got != want {
			t.Errorf("runningAbove=%v: Fits = %v, want %v (item-order sum %v, bound %v)", runningAbove, got, want, exact, lim)
		}
		if b.Resums != 1 {
			t.Errorf("runningAbove=%v: Resums = %d, want 1", runningAbove, b.Resums)
		}
	}
}

// TestShedBoundMatchesRigidOverflow walks random shed chains on 2- and
// 3-dimensional clusters, with capacities placed on the chain's own
// item-order sums, and checks Fits against the bound computed from
// scratch at every step; every set the bound rules out must also be
// refused by both allocators.
func TestShedBoundMatchesRigidOverflow(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	mems := []float64{0.1, 0.2, 0.3, 0.7}
	resums := 0
	for trial := 0; trial < 300; trial++ {
		d := 2 + trial%2
		n := 2 + r.Intn(10)
		jobs := make([]JobSpec, n)
		for i := range jobs {
			jobs[i] = JobSpec{ID: i, Tasks: 1 + r.Intn(6), CPUNeed: 0.5, MemReq: mems[r.Intn(len(mems))]}
			if d == 3 && r.Intn(2) == 0 {
				jobs[i].Extra = []float64{mems[r.Intn(len(mems))]}
			}
		}
		order := r.Perm(n)
		dropped := make([]bool, n)
		// Capacity at the item-order sums of a random point of the chain,
		// so that step sits on the boundary.
		for _, i := range order[:r.Intn(n)] {
			dropped[i] = true
		}
		at := itemOrderTotals(jobs, dropped, d)
		nodes := make([]cluster.NodeSpec, 4)
		for i := range nodes {
			nodes[i] = cluster.UnitD(d)
		}
		for k := cluster.DimMem; k < d; k++ {
			// The bound, TotalCap + Eps, lands within a rounding of at.
			for i := range nodes {
				nodes[i].Caps[k] = math.Max(0, at[k]-floats.Eps) / 4
			}
		}
		c := cluster.New(nodes)
		caps := AggregateCaps(nil, c)
		clear(dropped)
		var b ShedBound
		b.Reset(jobs, c)
		for step := 0; ; step++ {
			var set []JobSpec
			for i := range jobs {
				if !dropped[i] {
					set = append(set, jobs[i])
				}
			}
			over := RigidOverflow(itemOrderTotals(jobs, dropped, d), caps)
			if got := b.Fits(jobs, dropped); got != !over {
				t.Fatalf("trial %d step %d: Fits = %v, bound overflow = %v", trial, step, got, over)
			}
			if over {
				if _, ok := MaxMinYield(set, c, vectorpack.MCB8{}); ok {
					t.Fatalf("trial %d step %d: MaxMinYield accepted a set the bound rules out", trial, step)
				}
				states := make([]StretchState, len(set))
				for i := range set {
					states[i] = StretchState{JobSpec: set[i], FlowTime: 100, VirtualTime: 10}
				}
				if _, ok := MinEstimatedStretch(states, c, vectorpack.MCB8{}, 600); ok {
					t.Fatalf("trial %d step %d: MinEstimatedStretch accepted a set the bound rules out", trial, step)
				}
			}
			if step == n-1 {
				break
			}
			dropped[order[step]] = true
			b.Drop(&jobs[order[step]])
		}
		resums += b.Resums
	}
	if resums == 0 {
		t.Error("no chain reached the near-boundary re-sum")
	}
}
