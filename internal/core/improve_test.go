package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/floats"
)

// cloneAlloc copies the yields of a; the improvement heuristic only reads
// node lists, so they are shared.
func cloneAlloc(a *Allocation) *Allocation {
	return &Allocation{Nodes: a.Nodes, Yields: slices.Clone(a.Yields), MinYield: a.MinYield}
}

// TestImproveCountsRepeatedNodesOutOfOrder pins the improvement of a job
// whose node list revisits nodes out of order, [3,1,3,2,1,3]: three tasks on
// node 3, two on node 1, one on node 2. Every quantity is a dyadic
// fraction, so the arithmetic is exact.
//
// Caps are 1, 0.5, 1, 2. Job 1 (need 5/16, yield 1) shares node 1 and
// cannot rise; job 2 (two tasks of need 1/4 on node 2, yield 1/2) has the
// next-lowest total need, so it is raised first, to 1 (its headroom
// allows 1.4375 more). Job 0 (need 1/8, yield 1/4) is then bound by node
// 1: used 2*(1/8)*(1/4) + 5/16 = 3/8, headroom 1/8, and its two tasks
// there allow 1/8 / (2*(1/8)) = 1/2 more, so it reaches 3/4. Counting node
// 1 once would give 1, three times 7/12. Job 2's node list repeating a node
// of job 0 also checks the dedup markers are cleared between jobs.
func TestImproveCountsRepeatedNodesOutOfOrder(t *testing.T) {
	c := cluster.New([]cluster.NodeSpec{
		cluster.Spec(1, 1), cluster.Spec(0.5, 1), cluster.Spec(1, 1), cluster.Spec(2, 1),
	})
	js := specs(
		JobSpec{ID: 0, Tasks: 6, CPUNeed: 0.125, MemReq: 0.1},
		JobSpec{ID: 1, Tasks: 1, CPUNeed: 0.3125, MemReq: 0.1},
		JobSpec{ID: 2, Tasks: 2, CPUNeed: 0.25, MemReq: 0.1},
	)
	alloc := &Allocation{
		Nodes:  [][]int{{3, 1, 3, 2, 1, 3}, {1}, {2, 2}},
		Yields: []float64{0.25, 1, 0.5},
	}
	var sc ImproveScratch
	for call := 0; call < 2; call++ { // the second call reuses the scratch
		a := cloneAlloc(alloc)
		sc.ImproveAverageYieldRanked(js, a, c, nil, nil)
		if a.Yields[0] != 0.75 || a.Yields[1] != 1 || a.Yields[2] != 1 {
			t.Fatalf("call %d: yields %v, want [0.75 1 1]", call, a.Yields)
		}
	}
}

// TestImproveScratchReuseAcrossClusterSizes runs one ImproveScratch over
// clusters that grow, shrink and grow again, and checks every result
// against a call with fresh buffers: nothing a previous call left in the
// scratch may leak into the next.
func TestImproveScratchReuseAcrossClusterSizes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	caps := []float64{0.5, 1, 2}
	var sc ImproveScratch
	for round, n := range []int{4, 16, 3, 24, 2, 24} {
		for rep := 0; rep < 20; rep++ {
			specsN := make([]cluster.NodeSpec, n)
			for i := range specsN {
				specsN[i] = cluster.Spec(caps[r.Intn(3)], 1)
			}
			c := cluster.New(specsN)
			var js []JobSpec
			alloc := &Allocation{}
			for id, nj := 0, 1+r.Intn(8); id < nj; id++ {
				j := JobSpec{ID: id, Tasks: 1 + r.Intn(6), CPUNeed: 0.05 + 0.3*r.Float64(), MemReq: 0.1}
				js = append(js, j)
				nodes := make([]int, j.Tasks)
				for k := range nodes {
					nodes[k] = r.Intn(n)
				}
				alloc.Nodes = append(alloc.Nodes, nodes)
				alloc.Yields = append(alloc.Yields, 0.05+0.5*r.Float64())
			}
			var rank []float64
			if r.Intn(2) == 0 {
				for range js {
					rank = append(rank, float64(r.Intn(3)))
				}
			}
			want := cloneAlloc(alloc)
			ImproveAverageYieldRanked(js, want, c, nil, rank)
			sc.ImproveAverageYieldRanked(js, alloc, c, nil, rank)
			for id, y := range want.Yields {
				if alloc.Yields[id] != y {
					t.Fatalf("round %d (n=%d) rep %d: job %d yield %v with reused scratch, %v fresh",
						round, n, rep, id, alloc.Yields[id], y)
				}
			}
		}
	}
}

// improveRestartRef is the average-yield improvement as Section III-A
// states it, kept as the reference for the one-pass scan: after every
// raise, scan the whole order again from the front for the first job
// whose yield can still rise. The arithmetic is the scan's, operation for
// operation, so the two agree bit for bit.
func improveRestartRef(jobs []JobSpec, alloc *Allocation, c *cluster.Cluster, eligible func(JobSpec) bool, rank []float64) {
	used := make([]float64, c.N())
	cnt := make([]map[int]int, len(jobs))
	for ji, j := range jobs {
		cnt[ji] = map[int]int{}
		for _, node := range alloc.Nodes[ji] {
			cnt[ji][node]++
			used[node] += j.CPUNeed * alloc.Yields[ji]
		}
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		ta, tb := jobs[a].totalCPUNeed(), jobs[b].totalCPUNeed()
		switch {
		case ta != tb:
			return cmp.Compare(ta, tb)
		case rank != nil && rank[a] != rank[b]:
			return cmp.Compare(rank[b], rank[a])
		}
		return jobs[a].ID - jobs[b].ID
	})
	for raised := true; raised; {
		raised = false
		for _, ji := range order {
			j := jobs[ji]
			y := alloc.Yields[ji]
			if (eligible != nil && !eligible(j)) || floats.GreaterEq(y, 1) {
				continue
			}
			delta := math.Inf(1)
			for node, n := range cnt[ji] {
				delta = math.Min(delta, math.Max(0, c.CPUCap(node)-used[node])/(j.CPUNeed*float64(n)))
			}
			delta = math.Min(delta, 1-y)
			if !floats.Greater(delta, 0) {
				continue
			}
			alloc.Yields[ji] = y + delta
			for node, n := range cnt[ji] {
				used[node] += j.CPUNeed * float64(n) * delta
			}
			raised = true
			break
		}
	}
}

// TestImproveOnePassMatchesRestart compares the one-pass scan with the
// restarting reference on random allocations — with and without a rank,
// with and without an eligibility filter, tiny and large CPU needs, yields
// up to 1 — bit for bit.
func TestImproveOnePassMatchesRestart(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	caps := []float64{0.5, 1, 1.5, 2}
	needs := []float64{1e-9, 0.01, 0.125, 0.3, 0.5, 1}
	var sc ImproveScratch
	raised := 0
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(12)
		specsN := make([]cluster.NodeSpec, n)
		for i := range specsN {
			specsN[i] = cluster.Spec(caps[r.Intn(len(caps))], 1)
		}
		c := cluster.New(specsN)
		var js []JobSpec
		alloc := &Allocation{}
		for id, nj := 0, 1+r.Intn(10); id < nj; id++ {
			need := needs[r.Intn(len(needs))]
			if r.Intn(2) == 0 {
				need = 0.01 + 0.99*r.Float64()
			}
			j := JobSpec{ID: id, Tasks: 1 + r.Intn(5), CPUNeed: need, MemReq: 0.1}
			js = append(js, j)
			nodes := make([]int, j.Tasks)
			for k := range nodes {
				nodes[k] = r.Intn(n)
			}
			alloc.Nodes = append(alloc.Nodes, nodes)
			alloc.Yields = append(alloc.Yields, []float64{0.01, 0.3 * r.Float64(), r.Float64(), 1}[r.Intn(4)])
		}
		var rank []float64
		if trial%2 == 0 {
			for range js {
				rank = append(rank, float64(r.Intn(3)))
			}
		}
		var eligible func(JobSpec) bool
		if trial%4 >= 2 {
			eligible = func(j JobSpec) bool { return j.ID%3 != 1 }
		}
		want := cloneAlloc(alloc)
		improveRestartRef(js, want, c, eligible, rank)
		before := slices.Clone(alloc.Yields)
		sc.ImproveAverageYieldRanked(js, alloc, c, eligible, rank)
		for id, y := range want.Yields {
			if alloc.Yields[id] != y {
				t.Fatalf("trial %d: job %d yield %v in one pass, %v restarting (yields %v)", trial, id, alloc.Yields[id], y, before)
			}
			if y != before[id] {
				raised++
			}
		}
	}
	if raised < 1000 {
		t.Fatalf("only %d raises: the comparison barely exercised the scan", raised)
	}
}
