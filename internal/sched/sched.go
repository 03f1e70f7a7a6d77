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
// exactly the published GREEDY. Two selections implement it. On the
// paper's two-resource platform with no objective configured, memory is the
// only hard constraint, so the job fits exactly when the nodes' memory
// slots, counted with the task loop's own arithmetic, cover its tasks; a
// job that does not fit is rejected on that count without touching the
// simulator's node index, and one that does has each task's least-loaded
// query answered from the index in O(log n). Everywhere else one
// placement.Pick scan runs under the objective.
package sched

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/floats"
	"repro/internal/placement"
	"repro/internal/sim"
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
type PlaceScratch struct {
	nodes []int // the placement Place returns
	// Per-node rows of the tasks the indexed path has placed in the
	// current call: their memory and their CPU load. Only the nodes in
	// touched are non-zero (memory requirements are positive), and Place
	// resets them before it returns.
	planMem, planLoad []float64
	touched           []int
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
// The returned slice may be ps's own buffer: it is valid until the next
// Place on ps. Controller.Start and Resume copy the list, so passing it
// straight to them is safe; a caller that keeps it longer must copy it.
func (ps *PlaceScratch) Place(ctl *sim.Controller, jid int) (nodes []int, ok bool) {
	j := ctl.JobRef(jid)
	obj := ctl.Objective()
	if obj == nil {
		if ctl.NumDims() == 2 {
			// The paper's two-resource platform is the placement hot path
			// (every greedy admission and every DYNMCB8-ASAP arrival):
			// answer each task's LoadBalance query from the node index in
			// O(log n) instead of scanning.
			return ps.place2Indexed(ctl, j)
		}
		obj = placement.LoadBalance{}
	}
	return greedyPlaceScan(ctl, j, obj)
}

// greedyPlaceScan is the placement scan: per task, placement.Pick under
// obj over the nodes with free capacity in every rigid dimension, net of
// the tasks already placed in this call.
func greedyPlaceScan(ctl *sim.Controller, j *workload.Job, obj placement.Objective) ([]int, bool) {
	n := ctl.NumNodes()
	p := newPlan(ctl)
	dems := make([]float64, len(p.rigid))
	for r := range dems {
		dems[r] = j.Demand(r + 1)
	}
	feasible := func(node int) bool {
		for r, dm := range dems {
			if !floats.LessEq(dm, ctl.FreeRes(node, r+1)-p.rigid[r][node]) {
				return false
			}
		}
		return true
	}
	// A closure over the pointer, not the method value j.Demand, which
	// would copy the whole job record to the heap on every call.
	dem := func(k int) float64 { return j.Demand(k) }
	nodes := make([]int, 0, j.Tasks)
	for task := 0; task < j.Tasks; task++ {
		best := placement.Pick(n, dem, p, feasible, obj)
		if best < 0 {
			return nil, false
		}
		nodes = append(nodes, best)
		p.load[best] += j.CPUNeed
		for r, dm := range dems {
			p.rigid[r][best] += dm
		}
	}
	return nodes, true
}

// place2Indexed answers the two-resource LoadBalance scan from the
// simulator's node index. On this path memory is the only hard constraint,
// and a node that fits a task keeps fitting the next one until its own
// memory runs out, so the task loop fails exactly when the per-node memory
// slots add up to fewer than the job's tasks: memSlotsCover decides that
// first, and a job that cannot fit returns without reading the index.
//
// Tasks already placed in this call are overlaid onto the touched leaves
// with exactly the expressions of the scan — free memory minus accumulated
// plan memory, (load plus accumulated plan load) over capacity — and every
// touched leaf is restored to its live values before returning. Untouched
// leaves already hold the scan's values (a zero plan term only flips the
// sign of a zero, which no comparison observes), and ArgminLoad applies the
// same strict-improvement, ascending-node-order selection as
// placement.Pick, so the chosen nodes are identical bit for bit
// (TestIndexedPlacementMatchesScan).
func (ps *PlaceScratch) place2Indexed(ctl *sim.Controller, j *workload.Job) ([]int, bool) {
	memReq := j.MemReq
	cpuNeed := j.CPUNeed
	if !memSlotsCover(ctl, memReq, j.Tasks) {
		return nil, false
	}
	if n := ctl.NumNodes(); len(ps.planMem) < n {
		ps.planMem = make([]float64, n)
		ps.planLoad = make([]float64, n)
	}
	t := ctl.NodeIndex()
	ps.nodes = ps.nodes[:0]
	for task := 0; task < j.Tasks; task++ {
		node := t.ArgminLoad(memReq)
		if node < 0 {
			// memSlotsCover counted a slot for every task with the same
			// arithmetic the leaves hold; reaching this branch indicates
			// an internal inconsistency.
			panic("sched: indexed placement found no node after its memory slot count covered the job")
		}
		ps.nodes = append(ps.nodes, node)
		if ps.planMem[node] == 0 {
			ps.touched = append(ps.touched, node)
		}
		ps.planMem[node] += memReq
		ps.planLoad[node] += cpuNeed
		t.Set(node,
			(ctl.CPULoad(node)+ps.planLoad[node])/ctl.CPUCap(node),
			ctl.FreeMem(node)-ps.planMem[node])
	}
	for _, node := range ps.touched {
		t.Set(node, ctl.CPULoad(node)/ctl.CPUCap(node), ctl.FreeMem(node))
		ps.planMem[node], ps.planLoad[node] = 0, 0
	}
	ps.touched = ps.touched[:0]
	return ps.nodes, true
}

// memSlotsCover reports whether the nodes' free memory holds tasks tasks of
// memReq each. A node's slots are counted with the placement loop's own
// rule — it takes another task while memReq fits under floats.LessEq in its
// free memory net of the tasks it already took, summed one memReq at a
// time — which is exactly the leaf value the loop's ArgminLoad tests.
// (sim.TaskSlots' floor((cap+Eps)/dem) differs at the boundary.) Counting
// stops as soon as the tasks are covered.
func memSlotsCover(ctl *sim.Controller, memReq float64, tasks int) bool {
	need := tasks
	for node, n := 0, ctl.NumNodes(); node < n && need > 0; node++ {
		free := ctl.FreeMem(node)
		for acc := 0.0; need > 0 && floats.LessEq(memReq, free-acc); acc += memReq {
			need--
		}
	}
	return need <= 0
}

// plan is a placement scan's view of the platform for placement.State:
// the simulator's live usage plus, per node, the rigid demands and CPU
// load of the tasks the scan has already assigned in the current call
// (none when the rows are nil), so objectives score nodes as if those
// placements had already happened.
type plan struct {
	ctl   *sim.Controller
	rigid [][]float64 // rigid[r][node]: demand in rigid dimension r+1
	load  []float64   // load[node]: CPU load
}

// newPlan returns an empty plan over ctl's nodes and resource dimensions.
func newPlan(ctl *sim.Controller) *plan {
	n := ctl.NumNodes()
	p := &plan{ctl: ctl, load: make([]float64, n), rigid: make([][]float64, ctl.NumDims()-1)}
	for r := range p.rigid {
		p.rigid[r] = make([]float64, n)
	}
	return p
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
	free := p.ctl.FreeRes(node, k)
	if k-1 < len(p.rigid) {
		free -= p.rigid[k-1][node]
	}
	return free
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
// indexed like specs.
func ImproveRank(ctl *sim.Controller, specs []core.JobSpec, alloc *core.Allocation) []float64 {
	obj := ctl.Objective()
	if obj == nil {
		return nil
	}
	jr, ok := obj.(placement.JobRanker)
	if !ok || !jr.RanksJobs() {
		return nil
	}
	st := &plan{ctl: ctl}
	rank := make([]float64, len(specs))
	for i := range specs {
		for _, node := range alloc.Nodes[i] {
			rank[i] += obj.Score(placement.ZeroDemand, node, st)
		}
	}
	return rank
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
	ys.imp.ImproveAverageYieldRanked(ys.specs, alloc, ctl.Cluster(), nil, ImproveRank(ctl, ys.specs, alloc))
	ApplyYieldsList(ctl, running, alloc.Yields)
}

// ApplyYields sets each listed running job's yield, zeroing all of them
// first so that no intermediate state oversubscribes a node's CPU.
func ApplyYields(ctl *sim.Controller, yields map[int]float64) {
	jids := make([]int, 0, len(yields))
	for jid := range yields {
		jids = append(jids, jid)
	}
	sort.Ints(jids)
	for _, jid := range jids {
		ctl.SetYield(jid, 0)
	}
	for _, jid := range jids {
		ctl.SetYield(jid, floats.Clamp01(yields[jid]))
	}
}

// ApplyYieldsList is ApplyYields over parallel slices: jids must be in
// ascending order with yields[i] the yield of jids[i]. It performs the same
// zero-first two-phase update without building a map.
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
