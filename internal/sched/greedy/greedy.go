// Package greedy implements the paper's three greedy DFRS algorithms
// (Section III-A):
//
//   - GREEDY places each task of an incoming job on the least CPU-loaded
//     node with enough free memory, postponing the job with bounded
//     exponential backoff when memory is short; running jobs all receive
//     yield 1/max(1, maxLoad) followed by the average-yield improvement
//     heuristic.
//   - GREEDY-PMTN never postpones: when memory is short it pauses running
//     jobs in increasing priority order (after unmarking, in decreasing
//     priority order, any candidate that can stay), starts the incoming
//     job, and resumes paused jobs at later events in decreasing priority
//     order.
//   - GREEDY-PMTN-MIGR additionally allows jobs paused during an event to
//     be resumed on different nodes within that same event, which amounts
//     to a migration.
package greedy

import (
	"slices"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	sched.Register("greedy", func() sim.Scheduler {
		return &Greedy{name: "greedy"}
	})
	sched.Register("greedy-pmtn", func() sim.Scheduler {
		return &Greedy{name: "greedy-pmtn", preempt: true, priority: core.Priority}
	})
	sched.Register("greedy-pmtn-migr", func() sim.Scheduler {
		return &Greedy{name: "greedy-pmtn-migr", preempt: true, migrate: true, priority: core.Priority}
	})
	// Ablation A1: preemptive greedy with the linear (un-squared)
	// priority function.
	sched.Register("greedy-pmtn-linprio", func() sim.Scheduler {
		return &Greedy{name: "greedy-pmtn-linprio", preempt: true, priority: core.PriorityLinear}
	})
}

// Greedy implements all three greedy variants; preempt and migrate select
// the behaviour described in the package comment. The trailing fields are
// buffers reused across events: a greedy scheduler places, orders and
// resumes jobs at every arrival and completion.
type Greedy struct {
	name     string
	preempt  bool
	migrate  bool
	priority sched.PriorityFunc

	yields    sched.YieldScratch    // yield rule
	place     sched.PlaceScratch    // task placement
	prio      sched.PriorityScratch // priority sort
	order     []int                 // jids in priority order
	freeRigid [][]float64           // forced admission: freeRigid[r][node], dimension r+1
	marked    []int                 // forced admission: marked candidates in marking order, -1 once unmarked
}

// Name implements sim.Scheduler.
func (g *Greedy) Name() string { return g.name }

// Init implements sim.Scheduler.
func (g *Greedy) Init(*sim.Controller) {}

// OnArrival implements sim.Scheduler.
func (g *Greedy) OnArrival(ctl *sim.Controller, jid int) {
	g.admit(ctl, jid)
	if g.preempt {
		g.resumePaused(ctl)
	}
	g.yields.Apply(ctl)
}

// OnCompletion implements sim.Scheduler.
func (g *Greedy) OnCompletion(ctl *sim.Controller, _ int) {
	if g.preempt {
		g.resumePaused(ctl)
	}
	g.yields.Apply(ctl)
}

// OnTimer implements sim.Scheduler: the tag is the jid of a postponed job
// to reconsider (plain GREEDY only).
func (g *Greedy) OnTimer(ctl *sim.Controller, tag int64) {
	jid := int(tag)
	if ctl.JobState(jid) != sim.Pending {
		return
	}
	g.admit(ctl, jid)
	g.yields.Apply(ctl)
}

// admit places job jid, by plain greedy placement when possible and through
// forced admission with preemption otherwise (preemptive variants), or
// postpones it with backoff (plain GREEDY).
func (g *Greedy) admit(ctl *sim.Controller, jid int) {
	if nodes, ok := g.place.Place(ctl, jid); ok {
		ctl.Start(jid, nodes)
		return
	}
	if !g.preempt {
		count := ctl.IncrementAttempts(jid)
		ctl.SetTimer(ctl.Now()+sched.BackoffDelay(count), int64(jid))
		return
	}
	g.forceAdmission(ctl, jid)
}

// rigidFeasible reports whether the job's task count fits on the cluster
// given per-node free capacity in every rigid dimension (freeRigid[r][node]
// is dimension r+1). A node's task capacity is the minimum over the
// dimensions the job actually demands; on the paper's platform this is
// exactly the memory-only count of Section III-A.
func rigidFeasible(freeRigid [][]float64, j workload.Job) bool {
	free := func(node, k int) float64 { return freeRigid[k-1][node] }
	return sim.TaskSlots(len(freeRigid[0]), j.Tasks, 1, len(freeRigid)+1, j.Demand, free) >= j.Tasks
}

// forceAdmission implements the GREEDY-PMTN admission procedure: mark
// running jobs as pause candidates in increasing priority order until the
// incoming job would fit, unmark candidates in decreasing priority order
// when the job still fits without pausing them, then pause the remaining
// marked jobs and start the incoming job.
func (g *Greedy) forceAdmission(ctl *sim.Controller, jid int) {
	j := ctl.JobRef(jid)
	n := ctl.NumNodes()
	d := ctl.NumDims()
	if len(g.freeRigid) != d-1 {
		g.freeRigid = make([][]float64, d-1)
	}
	for r := range g.freeRigid {
		g.freeRigid[r] = slices.Grow(g.freeRigid[r][:0], n)[:n]
		for node := 0; node < n; node++ {
			g.freeRigid[r][node] = ctl.FreeRes(node, r+1)
		}
	}
	fits := func() bool { return rigidFeasible(g.freeRigid, *j) }
	// addRigid adds (sign = +1) or removes (sign = -1) running job cand's
	// rigid demands on its hosting nodes from the hypothetical free state.
	addRigid := func(cand int, sign float64) {
		cj := ctl.JobRef(cand)
		for _, node := range ctl.JobNodes(cand) {
			for r, row := range g.freeRigid {
				row[node] += sign * cj.Demand(r+1)
			}
		}
	}
	g.order = ctl.AppendJobsInState(g.order[:0], sim.Running)
	g.order = g.prio.ByPriority(g.order[:0], ctl, g.order, ctl.Now(), g.priority, true)

	g.marked = g.marked[:0]
	for _, cand := range g.order {
		if fits() {
			break
		}
		addRigid(cand, +1)
		g.marked = append(g.marked, cand)
	}
	if !fits() {
		// Even pausing everything is not enough; cannot happen for valid
		// traces (tasks <= nodes, demands <= 1) but keep the job pending
		// rather than panicking on a malformed workload.
		return
	}
	// Unmark in decreasing priority order whatever can stay running.
	for i := len(g.marked) - 1; i >= 0; i-- {
		cand := g.marked[i]
		addRigid(cand, -1)
		if fits() {
			g.marked[i] = -1
			continue
		}
		addRigid(cand, +1)
	}
	for _, cand := range g.marked {
		if cand >= 0 {
			ctl.Pause(cand)
		}
	}
	nodes, ok := g.place.Place(ctl, jid)
	if !ok {
		// The feasibility arithmetic above guarantees placement; reaching
		// this branch indicates an internal inconsistency.
		panic("greedy: forced admission found no placement after pausing candidates")
	}
	ctl.Start(jid, nodes)
}

// resumePaused tries to resume paused jobs in decreasing priority order.
// GREEDY-PMTN skips jobs paused during the current event (they may resume
// at any future event); GREEDY-PMTN-MIGR includes them, and the simulator
// reclassifies a same-event pause+resume to different nodes as a migration.
func (g *Greedy) resumePaused(ctl *sim.Controller) {
	now := ctl.Now()
	g.order = ctl.AppendJobsInState(g.order[:0], sim.Paused)
	g.order = g.prio.ByPriority(g.order[:0], ctl, g.order, now, g.priority, false)
	for _, jid := range g.order {
		if !g.migrate && ctl.JobLite(jid).LastPause == now {
			// Without the migration capability a job paused at this very
			// event must wait for a future event.
			continue
		}
		nodes, ok := g.place.Place(ctl, jid)
		if !ok {
			continue
		}
		ctl.Resume(jid, nodes)
	}
}
