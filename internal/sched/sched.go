// Package sched provides the machinery shared by every scheduling
// algorithm: greedy task placement, the pause/resume priority ordering of
// Section III-A, uniform-yield application with the average-yield
// improvement heuristic, and a registry mapping the paper's algorithm names
// to constructors.
//
// Node selection is split into feasibility filtering (the paper's hard
// memory/GPU constraints, implemented here) and scoring (which feasible
// node to prefer), the placement-objective layer of internal/placement.
// PlaceScratch.Place scores with the run's objective, defaulting to
// placement.LoadBalance — the least relatively CPU-loaded feasible node,
// exactly the published GREEDY. A node keeps taking a job's identical
// tasks until one of its rigid dimensions runs out, whichever node the
// objective prefers, so the task loop fails exactly when the nodes' slots
// fall short of the job's tasks. Place counts them first with
// cluster.NodeSlots (SlotsCover over the simulator's free rows), the loop's
// own rigid-fit rule, and rejects a job that does not fit before choosing
// any node. One task loop then places a job that fits: each task's pick is
// a placement.Pick scan under the objective, and under LoadBalance on the
// paper's two-resource platform, where memory is the only hard constraint,
// the simulator's node index answers the same pick in O(log n).
// GREEDY-PMTN's forced admission asks the same question (SlotsCover) of
// the capacity its pauses would free, so the placement after the pauses
// cannot fail.
package sched

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/floats"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/sim/index"
	"repro/internal/workload"
)

// PriorityFunc computes a job's preemption priority from its flow time and
// virtual time. The default is core.Priority; core.PriorityLinear is the
// ablation variant.
type PriorityFunc func(flowTime, virtualTime float64) float64

// Spec converts a job snapshot into the DFRS core's resource description.
func Spec(ji sim.JobInfo) core.JobSpec {
	return core.JobSpec{
		ID:      ji.JID,
		Tasks:   ji.Job.Tasks,
		CPUNeed: ji.Job.CPUNeed,
		MemReq:  ji.Job.MemReq,
		Extra:   ji.Job.Extra,
		Weight:  ji.Job.Weight,
	}
}

// SpecOf is Spec straight off the controller, reading the job record in
// place instead of copying a JobInfo snapshot first.
func SpecOf(ctl *sim.Controller, jid int) core.JobSpec {
	j := ctl.JobRef(jid)
	return core.JobSpec{
		ID:      jid,
		Tasks:   j.Tasks,
		CPUNeed: j.CPUNeed,
		MemReq:  j.MemReq,
		Extra:   j.Extra,
		Weight:  j.Weight,
	}
}

// PlaceScratch holds the buffers of GREEDY placement so schedulers placing
// at every event can reuse them. The zero value is ready to use.
//
// The task loop keeps, per node, the CPU load and rigid demands of the
// tasks placed so far in the current call (plan.load and plan.rigid) and
// zeroes the entries it wrote before returning, so the rows are all zero
// between calls. plan.free is the simulator's own free-capacity rows,
// read in place, and dems holds the job's rigid demands; both are only
// meaningful during the call. Place's result is the nodes buffer (see
// Place).
type PlaceScratch struct {
	nodes []int // the placement Place returns
	plan  plan
	dems  []float64 // dems[r] is the job's demand in dimension r+1
	job   *workload.Job
	// The placement.Pick callbacks, built once per owner: a closure made
	// per call escapes through the objective's Score and allocates. owner
	// is the scratch they read, so a copied scratch builds its own.
	owner    *PlaceScratch
	feasible func(node int) bool
	dem      placement.Demand
}

// Place computes the GREEDY placement of Section III-A for job jid: each
// task in turn goes to the feasible node — enough free capacity in every
// rigid dimension (memory, and GPU etc. on multi-resource clusters), net of
// the tasks already placed in this call — that scores best under the run's
// placement objective, by default placement.LoadBalance: the lowest
// relative CPU load (load divided by the node's CPU capacity; on the
// paper's unit-capacity platform exactly the raw load). It returns one node
// per task, or ok=false if some task cannot be placed. Cluster state is not
// modified.
//
// A node keeps accepting identical tasks until one of its rigid dimensions
// runs out, whichever node the objective prefers, so the loop fails
// exactly when SlotsCover says the free rows do not hold the job: that is
// decided first, before any node is picked. Each task's pick is then
// placement.Pick under the objective, except that LoadBalance on a
// two-resource platform, where memory is the only hard constraint, is
// answered from the simulator's node index in O(log n). The index's leaves
// hold the scan's values and ArgminLoad applies placement.Pick's
// strict-improvement, ascending-node rule, so both choose the same nodes
// bit for bit (TestIndexedPlacementMatchesScan). After each task its node's
// leaf is overlaid with the plan's values, and every leaf it set is restored
// to its live values before Place returns.
//
// The returned slice may be ps's own buffer: it is valid until the next
// Place on ps. Controller.Start and Resume copy the list, so passing it
// straight to them is safe; a caller that keeps it longer must copy it.
func (ps *PlaceScratch) Place(ctl *sim.Controller, jid int) (nodes []int, ok bool) {
	j := ctl.JobRef(jid)
	ps.grow(ctl)
	p := &ps.plan
	p.free = ctl.FreeRows()
	for r := range ps.dems {
		ps.dems[r] = j.Demand(r + 1)
	}
	if !SlotsCover(p.free, ps.dems, j.Tasks) {
		return nil, false
	}
	obj := ctl.Objective()
	if obj == nil {
		obj = placement.LoadBalance{}
	}
	var t *index.NodeIndex
	if _, lb := obj.(placement.LoadBalance); lb && len(ps.dems) == 1 {
		t = ctl.NodeIndex()
	}
	if ps.owner != ps {
		ps.owner = ps
		ps.feasible = ps.fits
		// A closure over the scratch, not the method value j.Demand, which
		// would copy the whole job record to the heap on every call.
		ps.dem = func(k int) float64 { return ps.job.Demand(k) }
	}
	ps.job = j
	ps.nodes = ps.nodes[:0]
	n := ctl.NumNodes()
	for task := 0; task < j.Tasks; task++ {
		var best int
		if t != nil {
			best = t.ArgminLoad(ps.dems[0])
		} else {
			best = placement.Pick(n, ps.dem, p, ps.feasible, obj)
		}
		if best < 0 {
			// SlotsCover counted a slot for every task with the rule fits
			// (and the index's leaves) apply; reaching this branch
			// indicates an internal inconsistency.
			panic("sched: placement found no node after its slot count covered the job")
		}
		ps.nodes = append(ps.nodes, best)
		p.load[best] += j.CPUNeed
		for r, dm := range ps.dems {
			p.rigid[r][best] += dm
		}
		if t != nil {
			t.Set(best, p.CPULoad(best)/ctl.CPUCap(best), p.Free(best, 1))
		}
	}
	for _, node := range ps.nodes {
		if t != nil {
			t.Set(node, ctl.CPULoad(node)/ctl.CPUCap(node), p.free[0][node])
		}
		p.load[node] = 0
		for _, row := range p.rigid {
			row[node] = 0
		}
	}
	ps.job = nil
	return ps.nodes, true
}

// grow sizes the plan rows for ctl's nodes and dimensions. Rows are only
// reallocated when the platform changes shape, and they are all zero
// between calls.
func (ps *PlaceScratch) grow(ctl *sim.Controller) {
	p := &ps.plan
	p.ctl = ctl
	n, rigid := ctl.NumNodes(), ctl.NumDims()-1
	if len(p.load) == n && len(p.rigid) == rigid {
		return
	}
	p.load = make([]float64, n)
	p.rigid = make([][]float64, rigid)
	for r := range p.rigid {
		p.rigid[r] = make([]float64, n)
	}
	ps.dems = make([]float64, rigid)
}

// fits is the loop's feasibility filter: the job's demand fits under
// floats.LessEq in every rigid dimension of node, net of this call's tasks.
func (ps *PlaceScratch) fits(node int) bool {
	p := &ps.plan
	for r, dm := range ps.dems {
		if !floats.LessEq(dm, p.free[r][node]-p.rigid[r][node]) {
			return false
		}
	}
	return true
}

// SlotsCover reports whether the free rows hold tasks identical tasks of
// demand dems, where free[r][node] is a node's free capacity in rigid
// dimension r+1 (every platform has at least the memory row) and dems[r]
// the task's demand there. It counts with cluster.Slots, so the placement
// loop, whatever its objective picks, places every task exactly when
// SlotsCover holds.
func SlotsCover(free [][]float64, dems []float64, tasks int) bool {
	return cluster.Slots(len(free[0]), tasks, 0, len(dems),
		func(r int) float64 { return dems[r] },
		func(node, r int) float64 { return free[r][node] }) >= tasks
}

// plan is the placement loop's view of the platform for placement.State:
// the simulator's live usage plus, per node, the rigid demands and CPU
// load of the tasks the loop has already assigned in the current call, so
// objectives score nodes as if those placements had already happened.
// With nil rows (ImproveRank's view) it reads the live state alone.
type plan struct {
	ctl   *sim.Controller
	free  [][]float64 // the simulator's rows (Controller.FreeRows), read in place
	rigid [][]float64 // rigid[r][node]: demand in rigid dimension r+1
	load  []float64   // load[node]: CPU load
}

// Dims implements placement.State.
func (p *plan) Dims() int { return p.ctl.NumDims() }

// Cap implements placement.State.
func (p *plan) Cap(node, k int) float64 { return p.ctl.ResCap(node, k) }

// Free implements placement.State: free capacity net of the plan. For the
// fluid CPU dimension this is capacity minus load (possibly negative under
// time-sharing).
func (p *plan) Free(node, k int) float64 {
	if k == 0 {
		return p.ctl.CPUCap(node) - p.CPULoad(node)
	}
	if p.free == nil {
		return p.ctl.FreeRows()[k-1][node]
	}
	return p.free[k-1][node] - p.rigid[k-1][node]
}

// CPULoad implements placement.State.
func (p *plan) CPULoad(node int) float64 {
	load := p.ctl.CPULoad(node)
	if p.load != nil {
		load += p.load[node]
	}
	return load
}

// Cost implements placement.State.
func (p *plan) Cost(node int) float64 { return p.ctl.NodeCost(node) }

// ImproveRank returns the per-job secondary sort keys the average-yield
// improvement heuristic uses for tie-breaking under the run's objective:
// the sum of the objective's static node scores (zero demand) over each
// job's hosting nodes. It returns nil — the paper's tie-break by job ID —
// unless the configured objective opts in through placement.JobRanker (the
// cost objective does: granting leftover CPU to jobs on expensive nodes
// first finishes them sooner and releases the priced capacity). alloc is
// indexed like specs. The keys are ys's own buffer, valid until the next
// ImproveRank or Apply on ys.
func (ys *YieldScratch) ImproveRank(ctl *sim.Controller, specs []core.JobSpec, alloc *core.Allocation) []float64 {
	obj := ctl.Objective()
	if obj == nil {
		return nil
	}
	jr, ok := obj.(placement.JobRanker)
	if !ok || !jr.RanksJobs() {
		return nil
	}
	ys.view.ctl = ctl
	ys.rank = ys.rank[:0]
	for i := range specs {
		rank := 0.0
		for _, node := range alloc.Nodes[i] {
			rank += obj.Score(placement.ZeroDemand, node, &ys.view)
		}
		ys.rank = append(ys.rank, rank)
	}
	return ys.rank
}

// PriorityScratch holds the sort buffer of ByPriority so schedulers
// ordering jobs on every event can reuse it. The zero value is ready to
// use.
type PriorityScratch struct {
	pairs []jidPrio
}

type jidPrio struct {
	jid int
	p   float64
}

// ByPriority appends jids to dst sorted by the priority function evaluated
// at now: ascending (pause candidates first) when asc is true, descending
// (resume candidates first) otherwise. Infinite priorities sort last in
// ascending order and first in descending order; ties break by jid for
// determinism. jids is read in full before dst is written, so dst may be
// jids[:0].
func (ps *PriorityScratch) ByPriority(dst []int, ctl *sim.Controller, jids []int, now float64, pf PriorityFunc, asc bool) []int {
	ps.pairs = ps.pairs[:0]
	for _, jid := range jids {
		ps.pairs = append(ps.pairs, jidPrio{jid: jid, p: pf(now-ctl.JobRef(jid).Submit, ctl.VirtualTime(jid))})
	}
	slices.SortStableFunc(ps.pairs, func(a, b jidPrio) int {
		if a.p != b.p {
			if asc && a.p < b.p || !asc && a.p > b.p {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.jid, b.jid)
	})
	for _, pr := range ps.pairs {
		dst = append(dst, pr.jid)
	}
	return dst
}

// YieldScratch holds the buffers of the GREEDY yield computation so
// schedulers invoking it on every event can reuse them. The zero value is
// ready to use.
type YieldScratch struct {
	running []int
	specs   []core.JobSpec
	alloc   core.Allocation
	imp     core.ImproveScratch
	view    plan      // ImproveRank's view of the live state (no rows)
	rank    []float64 // ImproveRank's keys
}

// Apply implements the GREEDY yield rule of Section III-A on the current
// set of running jobs: every job receives the uniform yield
// 1/max(1, maxLoad) — maxLoad being the maximum relative (capacity-scaled)
// CPU load, which maximizes the minimum yield for the current placement and
// keeps every node within its own CPU capacity — and the average-yield
// improvement heuristic then distributes leftover CPU. Yields are applied
// through a zero-first two-phase update so no node ever transiently exceeds
// capacity.
func (ys *YieldScratch) Apply(ctl *sim.Controller) {
	ys.running = ctl.AppendJobsInState(ys.running[:0], sim.Running)
	running := ys.running
	if len(running) == 0 {
		return
	}
	base := 1.0 / math.Max(1, ctl.MaxCPULoad())
	alloc := &ys.alloc
	ys.specs = ys.specs[:0]
	alloc.Nodes = alloc.Nodes[:0]
	alloc.Yields = alloc.Yields[:0]
	for _, jid := range running {
		ys.specs = append(ys.specs, SpecOf(ctl, jid))
		alloc.Nodes = append(alloc.Nodes, ctl.JobNodes(jid))
		alloc.Yields = append(alloc.Yields, base)
	}
	alloc.MinYield = base
	ys.imp.ImproveAverageYieldRanked(ys.specs, alloc, ctl.Cluster(), nil, ys.ImproveRank(ctl, ys.specs, alloc))
	ApplyYieldsList(ctl, running, alloc.Yields)
}

// ApplyYieldsList sets each listed running job's yield, zeroing all of
// them first so that no intermediate state oversubscribes a node's CPU.
// jids must be in ascending order, with yields[i] the yield of jids[i].
func ApplyYieldsList(ctl *sim.Controller, jids []int, yields []float64) {
	for _, jid := range jids {
		ctl.SetYield(jid, 0)
	}
	for i, jid := range jids {
		ctl.SetYield(jid, floats.Clamp01(yields[i]))
	}
}

// BackoffDelay returns the bounded exponential backoff of Section III-A for
// the given number of failed scheduling attempts: min(2^12, 2^count)
// seconds.
func BackoffDelay(count int) float64 {
	const cap = 1 << 12
	if count >= 12 {
		return cap
	}
	return float64(int(1) << count)
}
