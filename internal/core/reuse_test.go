package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/placement"
	"repro/internal/vectorpack"
)

// reuseCluster lays out n priced three-dimensional nodes (CPU, memory,
// GPU) whose capacities scale with cpu, so two clusters of one size built
// with different cpu differ in every answer.
func reuseCluster(n int, cpu float64) *cluster.Cluster {
	nodes := make([]cluster.NodeSpec, n)
	for i := range nodes {
		nodes[i] = cluster.Spec(cpu*[]float64{1, 0.5, 1.5}[i%3], 1, []float64{1, 0, 0.5}[i%3]).WithCost(float64(1 + i%4))
	}
	return cluster.New(nodes)
}

// randomReuseJobs draws 1..9 jobs, some with a GPU demand in Extra and
// some weighted; memory is high enough that some sets are memory-bound.
func randomReuseJobs(r *rand.Rand) []JobSpec {
	jobs := make([]JobSpec, 1+r.Intn(9))
	for i := range jobs {
		jobs[i] = JobSpec{
			ID:      10 * i,
			Tasks:   1 + r.Intn(3),
			CPUNeed: []float64{0.25, 0.5, 1}[r.Intn(3)],
			MemReq:  []float64{0.1, 0.3, 0.6}[r.Intn(3)],
			Weight:  []float64{0, 1, 2, 0.5}[r.Intn(4)],
		}
		if r.Intn(3) == 0 {
			jobs[i].Extra = []float64{[]float64{0.25, 0.5}[r.Intn(2)]}
		}
	}
	return jobs
}

// cloneJobs deep-copies jobs, Extra included.
func cloneJobs(jobs []JobSpec) []JobSpec {
	out := slices.Clone(jobs)
	for i := range out {
		out[i].Extra = slices.Clone(out[i].Extra)
	}
	return out
}

// sameJobs reports whether a and b describe the same instance job for job.
func sameJobs(a, b []JobSpec) bool {
	return slices.EqualFunc(a, b, func(x, y JobSpec) bool {
		return x.ID == y.ID && x.Tasks == y.Tasks && x.CPUNeed == y.CPUNeed && x.MemReq == y.MemReq &&
			x.Weight == y.Weight && slices.Equal(x.Extra, y.Extra)
	})
}

// TestWorkspaceReuseMatchesFresh drives one Workspace through a random
// sequence of MaxMinYield instances with many exact repeats, interleaving
// MinEstimatedStretch calls, packer swaps (MCB8 with no objective, the cost
// objective and the best-fit objective, whose bin orders differ on these
// priced clusters), a second cluster of the same size, job edits and in-place
// edits of a job's Extra. Every answer must equal a fresh MaxMinYield on
// a copy of the instance, and the workspace must reuse exactly when the
// instance is the previous MaxMinYield call's.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	clusters := []*cluster.Cluster{reuseCluster(6, 1), reuseCluster(6, 0.5)}
	packers := []vectorpack.Packer{vectorpack.MCB8{}, vectorpack.MCB8{Objective: placement.Cost{}}, vectorpack.MCB8{Objective: placement.BestFit{}}}
	var w Workspace
	jobs := randomReuseJobs(r)
	c, packer := clusters[0], packers[0]
	var last []JobSpec // copy of the previous MaxMinYield instance
	var lastC *cluster.Cluster
	var lastPacker vectorpack.Packer
	var misses, infeasible, stretches int
	for step := 0; step < 2000; step++ {
		switch r.Intn(12) {
		case 0:
			jobs = randomReuseJobs(r)
		case 1:
			j := &jobs[r.Intn(len(jobs))]
			switch r.Intn(3) {
			case 0:
				j.CPUNeed = []float64{0.25, 0.5, 1}[r.Intn(3)]
			case 1:
				j.Weight = []float64{0, 1, 2, 0.5}[r.Intn(4)]
			default:
				j.ID++
			}
		case 2:
			// In place: the caller's Extra array changes under the
			// workspace, which holds no copy of the slice itself.
			if j := &jobs[r.Intn(len(jobs))]; j.Extra != nil {
				j.Extra[0] = 0.75 - j.Extra[0]
			}
		case 3:
			packer = packers[r.Intn(len(packers))]
		case 4:
			c = clusters[r.Intn(len(clusters))]
		case 5:
			states := make([]StretchState, len(jobs))
			for i := range jobs {
				states[i] = StretchState{JobSpec: jobs[i], FlowTime: float64(100 * (i + 1)), VirtualTime: float64(10 * i)}
			}
			got, gok := w.MinEstimatedStretch(states, c, packer, 600)
			want, wok := MinEstimatedStretch(states, c, packer, 600)
			if gok != wok || gok && !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: MinEstimatedStretch %+v, %v on the workspace, %+v, %v fresh", step, got, gok, want, wok)
			}
			stretches++
			last = nil
			continue
		default:
			// Repeat; half of the time through a copy of the slice.
			if r.Intn(2) == 0 {
				jobs = cloneJobs(jobs)
			}
		}
		repeat := last != nil && c == lastC && packer == lastPacker && sameJobs(jobs, last)
		reuses := w.Reuses
		got, gok := w.MaxMinYield(jobs, c, packer)
		want, wok := MaxMinYield(cloneJobs(jobs), c, packer)
		if gok != wok {
			t.Fatalf("step %d: ok %v on the workspace, %v fresh", step, gok, wok)
		}
		if gok && (!reflect.DeepEqual(got.Nodes, want.Nodes) || !slices.Equal(got.Yields, want.Yields) || got.MinYield != want.MinYield) {
			t.Fatalf("step %d: workspace %+v, fresh %+v", step, got, want)
		}
		wantReuses := reuses
		if repeat {
			wantReuses++
		} else {
			misses++
		}
		if w.Reuses != wantReuses {
			t.Fatalf("step %d: %d reuses, want %d (repeat %v)", step, w.Reuses-reuses, wantReuses-reuses, repeat)
		}
		if !gok {
			infeasible++
		}
		if gok {
			// Callers raise yields in place; the next reuse must not see it.
			for i := range got.Yields {
				got.Yields[i] = 1
			}
		}
		last, lastC, lastPacker = cloneJobs(jobs), c, packer
	}
	t.Logf("%d reuses, %d misses, %d infeasible answers, %d stretch solves", w.Reuses, misses, infeasible, stretches)
	if w.Reuses < 500 || misses < 500 || infeasible == 0 || stretches == 0 {
		t.Error("the sequence does not cover reuses, misses, infeasible answers and stretch solves")
	}
}
