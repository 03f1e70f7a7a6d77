package batch

// Reference-implementation lock for the batch family's eligible-node
// choice: legacyTakeFor, the PR 4 takeFor loop kept verbatim (the first k
// eligible free nodes in id order, the published rule), must match
// takeFor — which ranks the eligible nodes through placement.Rank under
// the pool's objective — for a pool built with no objective (resolved to
// First) and with First spelled out, over random pools.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/placement"
	"repro/internal/workload"
)

// legacyTakeFor is the PR 4 nodePool.takeFor, frozen verbatim as the
// reference implementation (operating on a copy of the free list so the
// pool can be reused).
func legacyTakeFor(p *nodePool, j *workload.Job, k int) (nodes, kept []int) {
	free := append([]int(nil), p.free...)
	nodes = make([]int, 0, k)
	kept = free[:0]
	for _, node := range free {
		if len(nodes) < k && p.fits(node, j) {
			nodes = append(nodes, node)
			continue
		}
		kept = append(kept, node)
	}
	return nodes, kept
}

// randomPool builds a pool over a random heterogeneous cluster with a
// random subset of nodes free.
func randomPool(r *rand.Rand, obj placement.Objective) *nodePool {
	n := 3 + r.Intn(12)
	specs := make([]cluster.NodeSpec, n)
	for i := range specs {
		caps := cluster.Vec{1 + float64(r.Intn(2)), 1 + float64(r.Intn(2)), float64(r.Intn(2))}
		specs[i] = cluster.NodeSpec{Caps: caps, Cost: float64(r.Intn(3))}
	}
	p := newNodePool(cluster.New(specs), obj)
	// Hold a random subset.
	kept := p.free[:0]
	for _, node := range p.free {
		if r.Intn(3) != 0 {
			kept = append(kept, node)
		}
	}
	p.free = kept
	return p
}

func randomBatchJob(r *rand.Rand) workload.Job {
	j := workload.Job{
		Tasks:   1 + r.Intn(4),
		CPUNeed: 0.1 + 1.4*r.Float64(),
		MemReq:  0.1 + 1.4*r.Float64(),
	}
	if r.Intn(2) == 0 {
		j.Extra = []float64{r.Float64()}
	}
	return j
}

func TestTakeForMatchesFrozenPR4Copy(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 300; trial++ {
		seed := r.Int63()
		j := randomBatchJob(rand.New(rand.NewSource(seed)))
		for _, obj := range []placement.Objective{nil, placement.First{}} {
			rr := rand.New(rand.NewSource(seed))
			_ = randomBatchJob(rr) // re-sync the stream
			p := randomPool(rr, obj)
			wantNodes, wantKept := legacyTakeFor(p, &j, j.Tasks)
			if len(wantNodes) < j.Tasks {
				continue // not enough eligible nodes; takeFor contract not met
			}
			gotNodes := p.takeFor(&j, j.Tasks)
			if !reflect.DeepEqual(gotNodes, wantNodes) {
				t.Fatalf("trial %d obj %v: takeFor = %v, frozen copy = %v", trial, obj, gotNodes, wantNodes)
			}
			if !reflect.DeepEqual(p.free, wantKept) {
				t.Fatalf("trial %d obj %v: remaining pool %v, frozen copy %v", trial, obj, p.free, wantKept)
			}
		}
	}
}

// TestTakeForCostObjective: with the cost objective the pool hands out the
// cheapest eligible nodes.
func TestTakeForCostObjective(t *testing.T) {
	specs := []cluster.NodeSpec{
		cluster.Spec(1, 1).WithCost(3),
		cluster.Spec(1, 1).WithCost(1),
		cluster.Spec(1, 1).WithCost(2),
		cluster.Spec(1, 1).WithCost(1),
	}
	p := newNodePool(cluster.New(specs), placement.Cost{})
	j := workload.Job{Tasks: 2, CPUNeed: 0.5, MemReq: 0.5}
	got := p.takeFor(&j, 2)
	if !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("cost objective took %v, want the two cost-1 nodes [1 3]", got)
	}
	if !reflect.DeepEqual(p.free, []int{0, 2}) {
		t.Fatalf("pool left with %v, want [0 2]", p.free)
	}
}
