package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/placement"
	"repro/internal/vectorpack"
)

// minEstimatedStretchRef is MinEstimatedStretch without the repeated-probe
// skip: every probe packs. It returns the allocation on its own fresh
// workspace, the number of probes, how many of them repeated the previous
// probe's yields bit for bit, and the packer's PackBuf count.
func minEstimatedStretchRef(jobs []StretchState, c *cluster.Cluster, packer vectorpack.Packer, T float64) (alloc *Allocation, ok bool, probes, repeats, packs int) {
	var w Workspace
	specs := make([]JobSpec, len(jobs))
	for i := range jobs {
		specs[i] = jobs[i].JobSpec
	}
	p := &w.probe
	p.reset(specs, c, packer)
	var prev []float64
	try := func(target float64) bool {
		for i := range jobs {
			p.yields[i] = yieldForStretchTarget(jobs[i], T, target)
		}
		if prev != nil && slices.EqualFunc(prev, p.yields, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			repeats++
		}
		prev = append(prev[:0], p.yields...)
		probes++
		return p.pack()
	}
	done := func(a *Allocation, ok bool) (*Allocation, bool, int, int, int) {
		return a, ok, probes, repeats, p.buf.Packs
	}
	const maxTarget = 1e12
	if !try(maxTarget) {
		return done(nil, false)
	}
	bestTarget := maxTarget
	lo := 1.0
	if try(lo) {
		return done(p.allocation(), true)
	}
	hi := 2.0
	for hi < maxTarget {
		if try(hi) {
			bestTarget = hi
			break
		}
		lo = hi
		hi *= 2
	}
	for (hi-lo)/lo > 0.01 {
		mid := (lo + hi) / 2
		if try(mid) {
			hi, bestTarget = mid, mid
		} else {
			lo = mid
		}
	}
	for i := range jobs {
		p.yields[i] = yieldForStretchTarget(jobs[i], T, bestTarget)
	}
	return done(p.allocation(), true)
}

// randomStretchStates draws a reuse-test job set with flow times spread
// from zero to far beyond the period, so that at small targets some jobs
// need yields above 1 and are clamped.
func randomStretchStates(r *rand.Rand) []StretchState {
	jobs := randomReuseJobs(r)
	states := make([]StretchState, len(jobs))
	for i := range jobs {
		flow := []float64{0, 100, 2000, 20000, 200000}[r.Intn(5)]
		states[i] = StretchState{JobSpec: jobs[i], FlowTime: flow, VirtualTime: flow * r.Float64() * 0.5}
	}
	return states
}

// TestMinEstimatedStretchSkipMatchesFullSearch holds the repeated-probe
// skip to the full search: on random instances, packers and periods, on a
// fresh and on a reused workspace, the answer equals the search that packs
// every probe, and the skip count equals the number of probes whose yields
// repeat the previous probe's.
func TestMinEstimatedStretchSkipMatchesFullSearch(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	clusters := []*cluster.Cluster{reuseCluster(6, 1), reuseCluster(9, 0.5)}
	packers := []vectorpack.Packer{vectorpack.MCB8{}, vectorpack.MCB8{Objective: placement.Cost{}}, vectorpack.FirstFitDecreasing{}}
	var reused Workspace
	var skipped, feasible int
	for trial := 0; trial < 1500; trial++ {
		states := randomStretchStates(r)
		c, packer := clusters[r.Intn(len(clusters))], packers[r.Intn(len(packers))]
		T := []float64{60, 600, 3600}[r.Intn(3)]
		want, wok, _, repeats, _ := minEstimatedStretchRef(states, c, packer, T)
		for _, w := range []*Workspace{{}, &reused} {
			before := w.ProbeRepeats
			got, gok := w.MinEstimatedStretch(states, c, packer, T)
			if gok != wok || gok && !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %+v, %v with the skip; %+v, %v packing every probe", trial, got, gok, want, wok)
			}
			if n := w.ProbeRepeats - before; n != repeats {
				t.Fatalf("trial %d: %d probes skipped, %d repeat their predecessor", trial, n, repeats)
			}
		}
		skipped += repeats
		if wok {
			feasible++
		}
	}
	t.Logf("%d probes skipped; %d of 1500 instances feasible", skipped, feasible)
	if skipped < 100 || feasible < 500 || feasible == 1500 {
		t.Error("the instances do not cover skipped probes, feasible and infeasible answers")
	}
}

// TestMinEstimatedStretchSkipPinned pins the packs the skip saves on one
// small instance: three three-task jobs of CPU need 0.4 that have waited
// 20,000 s with no progress, on four unit nodes, at period 600 s. At
// targets 1 to 32 every job needs a yield above 1, so all six probes clamp
// to yield 1 everywhere; the packer fails them (nine tasks of 0.4 CPU, two
// per node), and the last five repeat the first and are not packed.
func TestMinEstimatedStretchSkipPinned(t *testing.T) {
	states := make([]StretchState, 3)
	for i := range states {
		states[i] = StretchState{
			JobSpec:  JobSpec{ID: i, Tasks: 3, CPUNeed: 0.4, MemReq: 0.25},
			FlowTime: 20000,
		}
	}
	c := cluster.Homogeneous(4)
	want, wok, probes, repeats, refPacks := minEstimatedStretchRef(states, c, vectorpack.MCB8{}, 600)
	var w Workspace
	got, gok := w.MinEstimatedStretch(states, c, vectorpack.MCB8{}, 600)
	if !wok || !gok || !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v, %v with the skip; %+v, %v packing every probe", got, gok, want, wok)
	}
	if probes != 15 || repeats != 5 || w.ProbeRepeats != 5 {
		t.Errorf("%d probes, %d repeats, %d skipped; pinned 15, 5, 5", probes, repeats, w.ProbeRepeats)
	}
	if packs := w.probe.buf.Packs; refPacks != 15 || packs != 10 {
		t.Errorf("%d packs with the skip, %d without; pinned 10 and 15", packs, refPacks)
	}
}
