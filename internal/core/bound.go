package core

import (
	"repro/internal/cluster"
	"repro/internal/floats"
)

// rigidReq returns the job's per-task demand in rigid dimension k >= 1:
// memory for k = 1, Extra for higher dimensions (0 where Extra is short).
func (j *JobSpec) rigidReq(k int) float64 {
	if k == cluster.DimMem {
		return j.MemReq
	}
	if e := k - cluster.MinDims; e < len(j.Extra) {
		return j.Extra[e]
	}
	return 0
}

// AddRigidDemand adds the rigid demand (dimensions >= 1) of every task of j
// to totals, one task at a time: the item-order accumulation behind the
// packing allocators' capacity bound. totals has one entry per cluster
// dimension; totals[0] (CPU) is left alone. Summing a job set's jobs in
// order through it yields exactly the sums that bound compares.
func AddRigidDemand(totals []float64, j *JobSpec) {
	for k := cluster.DimMem; k < len(totals); k++ {
		v, t := j.rigidReq(k), totals[k]
		for n := 0; n < j.Tasks; n++ {
			t += v
		}
		totals[k] = t
	}
}

// RigidOverflow reports whether some rigid dimension's total demand
// exceeds the aggregate capacity caps (from AggregateCaps) by more than
// floats.Eps. It is the rigid half of the allocators' capacity bound: a
// job set it reports is not packable at any yield.
func RigidOverflow(totals, caps []float64) bool {
	for k := cluster.DimMem; k < len(totals); k++ {
		if totals[k] > caps[k]+floats.Eps {
			return true
		}
	}
	return false
}

// AggregateCaps returns dst resized to c's dimension count and filled with
// c.TotalCap per dimension.
func AggregateCaps(dst []float64, c *cluster.Cluster) []float64 {
	d := c.D()
	if cap(dst) < d {
		dst = make([]float64, d)
	}
	dst = dst[:d]
	for k := range dst {
		dst[k] = c.TotalCap(k)
	}
	return dst
}

// ShedBound evaluates the allocators' rigid-dimension capacity bound along
// a shed chain: a job set from which jobs are dropped one at a time, as
// DYNMCB8 does on memory-bound instances. Every set the bound rules out
// fails the allocator's first probe before any packing, so a caller may
// skip it without changing any result.
//
// The rigid sums are kept by subtraction, O(d) per dropped job. They drift
// from the item-order sums the allocator compares by rounding only, so
// they decide wherever they lie farther than a rounding margin from the
// bound; near it, Fits re-sums the current set in item order and decides
// on that. The decision is therefore exactly RigidOverflow's on the set.
// The zero value is ready; reuse it across chains.
type ShedBound struct {
	caps   []float64
	totals []float64 // running rigid sums of the current set
	margin []float64 // per-dimension bound on |totals - item-order sum|
	exact  []float64 // item-order re-sum scratch
	// Resums counts the item-order re-sums taken near the boundary.
	Resums int
}

// Reset starts a chain at the full job set jobs, in the allocator's job
// order, on cluster c.
func (b *ShedBound) Reset(jobs []JobSpec, c *cluster.Cluster) {
	b.caps = AggregateCaps(b.caps, c)
	b.totals = zeroed(b.totals, len(b.caps))
	items := 0
	for ji := range jobs {
		AddRigidDemand(b.totals, &jobs[ji])
		items += jobs[ji].Tasks
	}
	// Recursive summation of n non-negative terms with total S errs by at
	// most (n-1)u·S (u = 2^-53); every subtraction adds at most u·S and
	// every per-job product u times that job's share. A running sum after
	// m drops therefore lies within (2n+2m+1)u·S of the set's item-order
	// sum. The margin is four times that, plus the bound's own magnitude so
	// that bound ± margin always moves by whole ulps.
	scale := 4 * float64(items+len(jobs)+1) * 0x1p-52
	b.margin = zeroed(b.margin, len(b.caps))
	for k := cluster.DimMem; k < len(b.caps); k++ {
		b.margin[k] = scale * (b.totals[k] + b.caps[k] + floats.Eps)
	}
}

// Drop removes job j, a member of the current set, from the running sums.
func (b *ShedBound) Drop(j *JobSpec) {
	for k := cluster.DimMem; k < len(b.totals); k++ {
		b.totals[k] -= float64(j.Tasks) * j.rigidReq(k)
	}
}

// Fits reports whether the current set passes the rigid bound. jobs is the
// slice the chain was Reset with; the current set is its jobs whose
// dropped entry is false (a nil dropped means none were dropped).
func (b *ShedBound) Fits(jobs []JobSpec, dropped []bool) bool {
	near := false
	for k := cluster.DimMem; k < len(b.totals); k++ {
		lim := b.caps[k] + floats.Eps
		switch {
		case b.totals[k] > lim+b.margin[k]:
			return false
		case b.totals[k] >= lim-b.margin[k]:
			near = true
		}
	}
	if !near {
		return true
	}
	b.Resums++
	b.exact = zeroed(b.exact, len(b.caps))
	for ji := range jobs {
		if dropped == nil || !dropped[ji] {
			AddRigidDemand(b.exact, &jobs[ji])
		}
	}
	return !RigidOverflow(b.exact, b.caps)
}

// zeroed returns s resized to n with every entry zero.
func zeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}
