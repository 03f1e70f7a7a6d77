// Package core implements the paper's primary contribution: the DFRS
// (dynamic fractional resource scheduling) allocation machinery that every
// scheduler in this repository builds on.
//
// It provides:
//
//   - the yield model (Section II-B2): the yield of a job is the CPU
//     fraction allocated to each of its tasks divided by the task's CPU
//     need; all tasks of a job receive identical yields;
//   - minimum-yield maximization by binary search over vector-packing
//     feasibility (Section III-B);
//   - the average-yield improvement heuristic that hands out leftover CPU
//     to jobs in ascending order of total CPU need (Section III-A);
//   - the preemption priority function max(30, flowTime)/virtualTime^2
//     (Section III-A);
//   - the estimated-stretch solver used by DYNMCB8-STRETCH-PER
//     (Section III-B);
//   - the allocators' rigid-dimension capacity bound, which the DYNMCB8
//     shed loop evaluates along its removal chain (ShedBound) to skip job
//     sets the allocators would reject before packing.
package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"

	"repro/internal/cluster"
	"repro/internal/floats"
	"repro/internal/vectorpack"
)

// StretchBound is the 30-second threshold shared by the bounded-stretch
// metric and the priority function (Sections II-B2 and III-A).
const StretchBound = 30.0

// YieldAccuracy is the absolute accuracy of the minimum-yield binary search
// (the paper uses 0.01).
const YieldAccuracy = 0.01

// MinProgressYield is the floor yield handed to jobs by the stretch-driven
// allocator so that no job holds memory without making progress.
const MinProgressYield = 0.01

// JobSpec is the scheduler-facing description of a job's resource shape.
// All tasks of a job are identical (Section II-B1).
type JobSpec struct {
	ID      int
	Tasks   int
	CPUNeed float64 // per-task CPU need, fraction of a node in (0, 1]
	MemReq  float64 // per-task memory requirement, fraction of a node in (0, 1]
	// Extra holds per-task rigid demands for resource dimensions beyond
	// CPU and memory (Extra[0] is dimension 2, e.g. GPU), as fractions of
	// the reference node. Nil means no demand beyond the paper's pair.
	Extra []float64
	// Weight scales the job's yield under contention (user-priority
	// extension, paper Section VII); 0 means the default weight 1.
	Weight float64
}

// effectiveWeight returns the weight, defaulting to 1.
func (j JobSpec) effectiveWeight() float64 {
	if j.Weight <= 0 {
		return 1
	}
	return j.Weight
}

// TotalCPUNeed returns the job's CPU need summed over its tasks, the
// quantity the average-yield heuristic sorts by.
func (j JobSpec) TotalCPUNeed() float64 { return float64(j.Tasks) * j.CPUNeed }

// Allocation maps every job to the nodes hosting its tasks and the common
// yield of those tasks.
type Allocation struct {
	// NodesOf[jobID][k] is the node hosting task k. A node may host
	// several tasks of the same job.
	NodesOf map[int][]int
	// YieldOf[jobID] is the job's yield in [0, 1].
	YieldOf map[int]float64
	// MinYield is the smallest yield across jobs (0 for an empty
	// allocation).
	MinYield float64
}

// NewAllocation returns an empty allocation.
func NewAllocation() *Allocation {
	return &Allocation{NodesOf: map[int][]int{}, YieldOf: map[int]float64{}}
}

// Priority returns the preemption priority of a job: max(30, flowTime)
// divided by the square of its virtual time. Jobs with zero virtual time
// have infinite priority (they have never run and must not be paused or
// passed over for resumption). Higher priority means "keep running /
// resume first"; jobs are paused in increasing priority order.
func Priority(flowTime, virtualTime float64) float64 {
	if virtualTime <= 0 {
		return math.Inf(1)
	}
	return math.Max(StretchBound, flowTime) / (virtualTime * virtualTime)
}

// PriorityLinear is the ablation variant without the square (paper
// Section III-A notes it performs markedly worse).
func PriorityLinear(flowTime, virtualTime float64) float64 {
	if virtualTime <= 0 {
		return math.Inf(1)
	}
	return math.Max(StretchBound, flowTime) / virtualTime
}

// packProbe is the reusable d-dimensional vector-packing instance behind
// one allocator call (MaxMinYield, MinEstimatedStretch). It is built once
// per call — one item per task, all tasks of one job sharing a single
// requirement vector in a flat backing array — and every binary-search
// probe then only rewrites the per-job CPU requirement (dimension 0) for
// the probe's yields; the rigid dimensions (memory, Extra) never change.
// Job demands beyond the cluster's dimensions are rejected by the
// simulator up front and are not represented here.
type packProbe struct {
	jobs    []JobSpec
	c       *cluster.Cluster
	packer  vectorpack.Packer
	mcb     vectorpack.MCB8 // buffered packing path (used when isMCB)
	isMCB   bool
	d       int
	its     []vectorpack.Item
	owner   []int // item index -> index into jobs
	backing []float64
	yields  []float64 // per-job yield of the current probe
	// caps caches the cluster's aggregate capacity per dimension for the
	// capacity bound, computed once per allocator call.
	caps []float64
	// rigidTotals caches the per-dimension demand sums for dimensions >= 1,
	// which are invariant across the probes of one instance (only the CPU
	// dimension changes with the yields). Accumulated in item order by
	// AddRigidDemand.
	rigidTotals []float64
	buf         vectorpack.PackBuffer
	repack      vectorpack.RepackState // warm-start state for the MCB path
	best        []int                  // assignment of the last feasible probe

	alloc     *Allocation // reused result object, rebuilt by allocation()
	nodesBack []int       // flat backing for the per-job node lists
	prevTasks []int       // task counts of the instance the items were built for
}

// Workspace carries the scratch buffers of the packing allocators across
// calls, so a scheduler invoking MaxMinYield or MinEstimatedStretch on
// every event reuses one set of allocations for the lifetime of a run. The
// zero value is ready; a workspace must not be used concurrently.
type Workspace struct {
	probe packProbe
	specs []JobSpec
}

// samePacker reports whether two packer values are interchangeable for
// warm-start purposes. Incomparable packer types (none exist in this
// repository) conservatively report false, which only costs a cache
// rebuild, never correctness.
func samePacker(a, b vectorpack.Packer) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Type() != vb.Type() || !va.Comparable() || !vb.Comparable() {
		return false
	}
	return a == b
}

// reset rebinds the probe to a new instance, reusing every buffer. When the
// new instance has the same shape as the previous one — same dimension
// count and, job for job, the same task count and rigid requirements — the
// item array and its backing are reused as-is: pack rewrites the CPU
// dimension on every probe anyway, so only the rigid dimensions (already
// equal) carry over. Successive repacks of a mostly-stable job set hit this
// path, which skips the write-barrier-heavy item rebuild.
func (p *packProbe) reset(jobs []JobSpec, c *cluster.Cluster, packer vectorpack.Packer) {
	d := c.D()
	same := d == p.d && len(jobs) == len(p.prevTasks) && len(p.backing) == len(jobs)*d
	if same {
	compare:
		for ji := range jobs {
			j := &jobs[ji]
			if p.prevTasks[ji] != j.Tasks {
				same = false
				break
			}
			for k := cluster.DimMem; k < d; k++ {
				if p.backing[ji*d+k] != j.rigidReq(k) {
					same = false
					break compare
				}
			}
		}
	}
	if !samePacker(packer, p.packer) {
		// The warm-start replay is only valid for the packer configuration
		// that produced it (the sorted orders are packer-independent, but
		// the exact-repeat fast path replays a full prior assignment).
		p.repack.Invalidate()
	}
	p.jobs, p.c, p.packer, p.d = jobs, c, packer, d
	p.mcb, p.isMCB = vectorpack.MCB8{}, false
	if m, ok := packer.(vectorpack.MCB8); ok {
		p.mcb, p.isMCB = m, true
	}
	p.caps = AggregateCaps(p.caps, c)
	if same {
		return
	}
	nItems := 0
	for ji := range jobs {
		nItems += jobs[ji].Tasks
	}
	if cap(p.its) < nItems {
		p.its = make([]vectorpack.Item, nItems)
	}
	p.its = p.its[:nItems]
	if cap(p.owner) < nItems {
		p.owner = make([]int, nItems)
	}
	p.owner = p.owner[:nItems]
	if cap(p.backing) < len(jobs)*d {
		p.backing = make([]float64, len(jobs)*d)
	}
	p.backing = p.backing[:len(jobs)*d]
	if cap(p.yields) < len(jobs) {
		p.yields = make([]float64, len(jobs))
	}
	p.yields = p.yields[:len(jobs)]
	if cap(p.prevTasks) < len(jobs) {
		p.prevTasks = make([]int, len(jobs))
	}
	p.prevTasks = p.prevTasks[:len(jobs)]
	idx := 0
	for ji := range jobs {
		j := &jobs[ji]
		p.prevTasks[ji] = j.Tasks
		req := cluster.Vec(p.backing[ji*d : (ji+1)*d : (ji+1)*d])
		req[cluster.DimCPU] = 0
		for k := cluster.DimMem; k < d; k++ {
			req[k] = j.rigidReq(k)
		}
		for k := 0; k < j.Tasks; k++ {
			// Items whose Req already aliases this job's backing row (a
			// stable prefix across resets) are left untouched: the Item
			// write carries a pointer and thus a write barrier, and those
			// barriers dominate the rebuild on large instances.
			if it := &p.its[idx]; len(it.Req) != d || &it.Req[0] != &req[0] {
				it.Req = req
			}
			p.owner[idx] = ji
			idx++
		}
	}
	p.refreshRigidTotals()
}

// refreshRigidTotals recomputes the cached demand sums of the rigid
// dimensions (>= 1) with AddRigidDemand, the accumulation the DYNMCB8 shed
// loop's bound check shares, so both see bit-identical sums.
func (p *packProbe) refreshRigidTotals() {
	p.rigidTotals = zeroed(p.rigidTotals, p.d)
	for ji := range p.jobs {
		AddRigidDemand(p.rigidTotals, &p.jobs[ji])
	}
}

// pack refreshes the CPU dimension from the current per-job yields, applies
// the capacity bound — the O(T) necessary condition for packability: the
// total requirement in every dimension cannot exceed the cluster's
// aggregate capacity in that dimension, pruning hopeless probes before the
// expensive packing — and runs the packer. On success the assignment is
// remembered as the probe's best.
func (p *packProbe) pack() bool {
	d := p.d
	// Only the CPU dimension changes between probes; the rigid-dimension
	// sums are cached by reset. The CPU sum runs in item order (tasks of a
	// job are consecutive), keeping the accumulation order of a per-item
	// loop.
	cpuTotal := 0.0
	for ji := range p.jobs {
		cpu := p.jobs[ji].CPUNeed * p.yields[ji]
		if cpu > 1 {
			cpu = 1
		}
		p.backing[ji*d+cluster.DimCPU] = cpu
		for t := 0; t < p.jobs[ji].Tasks; t++ {
			cpuTotal += cpu
		}
	}
	if cpuTotal > p.caps[cluster.DimCPU]+floats.Eps || RigidOverflow(p.rigidTotals, p.caps) {
		return false
	}
	var assign []int
	var ok bool
	if p.isMCB {
		assign, ok = p.mcb.PackWarm(p.its, p.c.Nodes, &p.buf, &p.repack)
	} else {
		assign, ok = p.packer.Pack(p.its, p.c.Nodes)
	}
	if !ok {
		return false
	}
	p.best = append(p.best[:0], assign...)
	return true
}

// allocation converts the best assignment back to per-job node lists at the
// current per-job yields. The returned Allocation and its node lists are
// owned by the probe and overwritten by the next allocator call on the same
// workspace.
func (p *packProbe) allocation() *Allocation {
	if p.alloc == nil {
		p.alloc = NewAllocation()
	}
	alloc := p.alloc
	clear(alloc.NodesOf)
	clear(alloc.YieldOf)
	alloc.MinYield = 0
	if cap(p.nodesBack) < len(p.its) {
		p.nodesBack = make([]int, len(p.its))
	}
	off := 0
	for ji := range p.jobs {
		j := &p.jobs[ji]
		alloc.NodesOf[j.ID] = p.nodesBack[off : off : off+j.Tasks]
		off += j.Tasks
		y := p.yields[ji]
		alloc.YieldOf[j.ID] = y
		if alloc.MinYield == 0 || y < alloc.MinYield {
			alloc.MinYield = y
		}
	}
	for item, node := range p.best {
		id := p.jobs[p.owner[item]].ID
		alloc.NodesOf[id] = append(alloc.NodesOf[id], node)
	}
	if len(p.jobs) == 0 {
		alloc.MinYield = 0
	}
	return alloc
}

// MaxMinYield searches for the largest base yield Y such that all jobs fit
// on the cluster when every job receives yield min(1, weight*Y) — for the
// paper's unweighted workloads this is exactly the uniform-yield
// maximization of Section III-B; with per-job weights it implements the
// user-priority extension of Section VII. The binary search has absolute
// accuracy YieldAccuracy. On success it returns an allocation giving every
// job its weighted yield. It fails only when even Y -> 0 is infeasible,
// i.e. the jobs' memory requirements alone cannot be packed.
func MaxMinYield(jobs []JobSpec, c *cluster.Cluster, packer vectorpack.Packer) (*Allocation, bool) {
	var w Workspace
	return w.MaxMinYield(jobs, c, packer)
}

// MaxMinYield is the workspace-backed form of the package-level function;
// repeated calls reuse the workspace's buffers.
func (w *Workspace) MaxMinYield(jobs []JobSpec, c *cluster.Cluster, packer vectorpack.Packer) (*Allocation, bool) {
	if len(jobs) == 0 {
		return NewAllocation(), true
	}
	p := &w.probe
	p.reset(jobs, c, packer)
	feasible := func(y float64) bool {
		for ji := range jobs {
			w := y * jobs[ji].effectiveWeight()
			if w > 1 {
				w = 1
			}
			p.yields[ji] = w
		}
		return p.pack()
	}
	// Memory-only feasibility first: with Y = 0 CPU vanishes.
	if !feasible(0) {
		return nil, false
	}
	bestY := 0.0
	if feasible(1) {
		return p.allocation(), true
	}
	lo, hi := 0.0, 1.0
	for hi-lo > YieldAccuracy {
		mid := (lo + hi) / 2
		if feasible(mid) {
			lo, bestY = mid, mid
		} else {
			hi = mid
		}
	}
	// Degenerate overload: the optimum lies below the search accuracy.
	// Refine geometrically so the returned yield is positive whenever any
	// positive yield is feasible; a zero yield would let jobs hold memory
	// without ever progressing.
	for bestY == 0 && hi > 1e-9 {
		mid := hi / 2
		if feasible(mid) {
			bestY = mid
		} else {
			hi = mid
		}
	}
	// Restore the winning probe's yields (the last probe may have failed)
	// before converting its saved assignment.
	for ji := range jobs {
		w := bestY * jobs[ji].effectiveWeight()
		if w > 1 {
			w = 1
		}
		p.yields[ji] = w
	}
	return p.allocation(), true
}

// ImproveAverageYield implements the average-yield improvement heuristic of
// Section III-A: repeatedly select the job with the lowest total CPU need
// whose yield can still be increased and raise its yield as much as the CPU
// headroom of its nodes allows (never beyond 1.0). Yields are never
// decreased. The allocation is modified in place; headroom is measured
// against each hosting node's own CPU capacity.
//
// jobs must list every job of the allocation — node usage is computed from
// all of them. eligible, when non-nil, restricts which jobs may be raised
// (the fairness extension excludes long-running jobs); nil means all.
func ImproveAverageYield(jobs []JobSpec, alloc *Allocation, c *cluster.Cluster, eligible func(JobSpec) bool) {
	ImproveAverageYieldRanked(jobs, alloc, c, eligible, nil)
}

// ImproveAverageYieldRanked is ImproveAverageYield with an optional
// placement-objective tie-break: rank, when non-nil, holds one secondary
// key per job (parallel to jobs), and jobs with equal total CPU need are
// visited in descending rank order before the ID tie-break. The paper's
// primary ascending-total-need order is never altered; a nil rank is
// exactly the published ties-by-ID rule. The greedy and DYNMCB8 families
// derive rank from the run's objective via sched.ImproveRank (the cost
// objective ranks jobs by the cost of their hosting nodes, so leftover CPU
// drains priced capacity first).
func ImproveAverageYieldRanked(jobs []JobSpec, alloc *Allocation, c *cluster.Cluster, eligible func(JobSpec) bool, rank []float64) {
	var sc ImproveScratch
	sc.ImproveAverageYieldRanked(jobs, alloc, c, eligible, rank)
}

// nodeCnt is a (node, task count) pair of one job's placement.
type nodeCnt struct {
	node, cnt int
}

// ImproveScratch carries the buffers of the average-yield improvement
// heuristic across calls; the zero value is ready. The heuristic runs on
// every scheduling event of the greedy and DYNMCB8 families, so per-call
// allocation of its node bookkeeping is measurable at scale.
type ImproveScratch struct {
	used  []float64
	pairs []nodeCnt
	off   []int
	order []int
}

// ImproveAverageYieldRanked is the scratch-backed form of the package-level
// function.
func (sc *ImproveScratch) ImproveAverageYieldRanked(jobs []JobSpec, alloc *Allocation, c *cluster.Cluster, eligible func(JobSpec) bool, rank []float64) {
	if cap(sc.used) < c.N() {
		sc.used = make([]float64, c.N())
	}
	used := sc.used[:c.N()]
	for i := range used {
		used[i] = 0
	}
	// Per-job (node, task count) pairs, flattened into one slice with
	// offsets — the per-job map this used to be was the dominant allocation
	// of every scheduling event. Pair order is first-occurrence order;
	// every per-node quantity below is accumulated independently per node,
	// so the order does not affect the arithmetic.
	pairs := sc.pairs[:0]
	if cap(sc.off) < len(jobs)+1 {
		sc.off = make([]int, len(jobs)+1)
	}
	off := sc.off[:len(jobs)+1]
	off[0] = 0
	for ji := range jobs {
		j := &jobs[ji]
		start := len(pairs)
		for _, node := range alloc.NodesOf[j.ID] {
			found := false
			for k := start; k < len(pairs); k++ {
				if pairs[k].node == node {
					pairs[k].cnt++
					found = true
					break
				}
			}
			if !found {
				pairs = append(pairs, nodeCnt{node, 1})
			}
			used[node] += j.CPUNeed * alloc.YieldOf[j.ID]
		}
		off[ji+1] = len(pairs)
	}
	sc.pairs = pairs
	// Ascending total CPU need, ties by descending rank (when given), then
	// by ID for determinism. IDs are unique, so the comparator is a total
	// order and the unstable sort is deterministic.
	if cap(sc.order) < len(jobs) {
		sc.order = make([]int, len(jobs))
	}
	order := sc.order[:len(jobs)]
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		ta, tb := jobs[a].TotalCPUNeed(), jobs[b].TotalCPUNeed()
		if ta < tb {
			return -1
		}
		if ta > tb {
			return 1
		}
		if rank != nil {
			if rank[a] > rank[b] {
				return -1
			}
			if rank[b] > rank[a] {
				return 1
			}
		}
		return jobs[a].ID - jobs[b].ID
	})
	// active is the order with permanently-finished jobs compacted away:
	// ineligible jobs stay so, and a yield never decreases, so a job at 1.0
	// is done for good and need not be rescanned on every restart. Jobs
	// merely out of headroom stay active (an improvement elsewhere never
	// frees headroom, but the original scan retried them, so keep the same
	// visit sequence). Compaction preserves relative order, so each restart
	// still finds the same first improvable job as a scan of the full order.
	active := order
	for {
		improvedAny := false
		w := 0
		r := 0
		for ; r < len(active); r++ {
			ji := active[r]
			j := &jobs[ji]
			if eligible != nil && !eligible(*j) {
				continue
			}
			y := alloc.YieldOf[j.ID]
			if floats.GreaterEq(y, 1) {
				continue
			}
			active[w] = ji
			w++
			// Maximum extra yield limited by the tightest node.
			delta := math.Inf(1)
			for _, nc := range pairs[off[ji]:off[ji+1]] {
				head := c.CPUCap(nc.node) - used[nc.node]
				if head < 0 {
					head = 0
				}
				d := head / (j.CPUNeed * float64(nc.cnt))
				if d < delta {
					delta = d
				}
			}
			if delta > 1-y {
				delta = 1 - y
			}
			if !floats.Greater(delta, 0) {
				continue
			}
			alloc.YieldOf[j.ID] = y + delta
			for _, nc := range pairs[off[ji]:off[ji+1]] {
				used[nc.node] += j.CPUNeed * float64(nc.cnt) * delta
			}
			improvedAny = true
			// The paper re-selects the cheapest improvable job after
			// every increase; restart the scan.
			break
		}
		if !improvedAny {
			return
		}
		// Keep the unvisited tail after the improved job, then restart.
		if r+1 < len(active) {
			w += copy(active[w:], active[r+1:])
		}
		active = active[:w]
	}
}

// StretchState carries the history a stretch-driven allocation needs about
// one job: its flow time (time since submission) and accumulated virtual
// time at the current scheduling event.
type StretchState struct {
	JobSpec
	FlowTime    float64
	VirtualTime float64
}

// EstStretch returns the job's current estimated stretch, flow time divided
// by virtual time (infinite for jobs that have not progressed).
func (s StretchState) EstStretch() float64 {
	if s.VirtualTime <= 0 {
		return math.Inf(1)
	}
	return s.FlowTime / s.VirtualTime
}

// YieldForStretchTarget returns the yield a job must receive over the next
// period of length T for its estimated stretch at the next event to equal
// target: solving (flow+T)/(vt + y*T) = target for y. Results are clamped
// to [MinProgressYield, 1] as in the paper: negative solutions (the target
// is met even when paused) become the 0.01 floor, and solutions above 1 are
// capped since a job cannot use more than its need.
func YieldForStretchTarget(s StretchState, T, target float64) float64 {
	if T <= 0 || target <= 0 {
		return 1
	}
	y := ((s.FlowTime+T)/target - s.VirtualTime) / T
	if math.IsNaN(y) || y < MinProgressYield {
		return MinProgressYield
	}
	if y > 1 {
		return 1
	}
	return y
}

// MinEstimatedStretch finds the smallest achievable estimated maximum
// stretch at the next scheduling event (period T) by binary search over
// packing feasibility, mirroring MaxMinYield but for the stretch-driven
// variant (Section III-B, DYNMCB8-STRETCH-PER). It returns the per-job
// yields realizing the best found target. Feasibility is monotone: larger
// targets need smaller yields. The search stops at 1% relative accuracy.
// It fails only when the memory requirements alone cannot be packed.
func MinEstimatedStretch(jobs []StretchState, c *cluster.Cluster, packer vectorpack.Packer, T float64) (*Allocation, bool) {
	var w Workspace
	return w.MinEstimatedStretch(jobs, c, packer, T)
}

// MinEstimatedStretch is the workspace-backed form of the package-level
// function; repeated calls reuse the workspace's buffers.
func (w *Workspace) MinEstimatedStretch(jobs []StretchState, c *cluster.Cluster, packer vectorpack.Packer, T float64) (*Allocation, bool) {
	if len(jobs) == 0 {
		return NewAllocation(), true
	}
	if cap(w.specs) < len(jobs) {
		w.specs = make([]JobSpec, len(jobs))
	}
	specs := w.specs[:len(jobs)]
	for i := range jobs {
		specs[i] = jobs[i].JobSpec
	}
	p := &w.probe
	p.reset(specs, c, packer)
	try := func(target float64) bool {
		for i := range jobs {
			p.yields[i] = YieldForStretchTarget(jobs[i], T, target)
		}
		return p.pack()
	}
	// Even an infinite target leaves every job its 0.01 floor yield; if
	// that is infeasible the instance is memory-bound and the caller must
	// shed a job.
	const maxTarget = 1e12
	if !try(maxTarget) {
		return nil, false
	}
	bestTarget := maxTarget
	lo := 1.0
	if try(lo) {
		return p.allocation(), true
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
	// Restore the winning probe's yields before converting its saved
	// assignment.
	for i := range jobs {
		p.yields[i] = YieldForStretchTarget(jobs[i], T, bestTarget)
	}
	return p.allocation(), true
}

// ValidateAllocation checks an allocation against the hard constraints of
// Section II-B1, generalized to per-node capacity vectors: each node's
// allocated CPU and every rigid dimension (memory, GPU, ...) stay within
// its own capacity, yields lie within [0, 1], and every job owns exactly
// Tasks placements.
func ValidateAllocation(jobs []JobSpec, alloc *Allocation, c *cluster.Cluster) error {
	n := c.N()
	d := c.D()
	used := make([]float64, n*d)
	for _, j := range jobs {
		nodes, ok := alloc.NodesOf[j.ID]
		if !ok {
			return fmt.Errorf("core: job %d missing from allocation", j.ID)
		}
		if len(nodes) != j.Tasks {
			return fmt.Errorf("core: job %d has %d placements for %d tasks", j.ID, len(nodes), j.Tasks)
		}
		y := alloc.YieldOf[j.ID]
		if y < 0 || floats.Greater(y, 1) {
			return fmt.Errorf("core: job %d yield %g outside [0,1]", j.ID, y)
		}
		for _, node := range nodes {
			if node < 0 || node >= n {
				return fmt.Errorf("core: job %d placed on node %d of %d", j.ID, node, n)
			}
			used[node*d+cluster.DimCPU] += j.CPUNeed * y
			used[node*d+cluster.DimMem] += j.MemReq
			for k := 0; k < d-cluster.MinDims && k < len(j.Extra); k++ {
				used[node*d+cluster.MinDims+k] += j.Extra[k]
			}
		}
	}
	for node := 0; node < n; node++ {
		for k := 0; k < d; k++ {
			if floats.Greater(used[node*d+k], c.Cap(node, k)) {
				return fmt.Errorf("core: node %d %s usage %.6f > capacity %.6f",
					node, c.DimName(k), used[node*d+k], c.Cap(node, k))
			}
		}
	}
	return nil
}
