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
	"repro/internal/floats"
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

	yields sched.YieldScratch    // yield rule
	place  sched.PlaceScratch    // task placement
	prio   sched.PriorityScratch // priority sort
	order  []int                 // jids in priority order
	// Forced admission: the rigid usage and free capacity the nodes would
	// have with the marked candidates paused (used[r][node] and
	// free[r][node] in dimension r+1), the job's rigid demands (dems[r] in
	// dimension r+1), the marked candidates in marking order (-1 once
	// unmarked), the marked candidates' tasks per node (indexMarked), and
	// the usage rows saved while a candidate is tested for unmarking.
	used, free            [][]float64
	dems                  []float64
	marked                []int
	first, onNode, cursor []int
	saved                 []float64
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

// forceAdmission implements the GREEDY-PMTN admission procedure: mark
// running jobs as pause candidates in increasing priority order until the
// incoming job would fit, unmark candidates in decreasing priority order
// when the job still fits without pausing them, then pause the remaining
// marked jobs and start the incoming job.
//
// "Would fit" is the placement's own test, sched.SlotsCover, over the
// rigid capacity the nodes would have free once the marked candidates are
// paused, computed as the simulator will compute it (see release), so
// the placement after the pauses succeeds exactly when the test said so.
func (g *Greedy) forceAdmission(ctl *sim.Controller, jid int) {
	j := ctl.JobRef(jid)
	g.dems = g.dems[:0]
	for k := 1; k < ctl.NumDims(); k++ {
		g.dems = append(g.dems, j.Demand(k))
	}
	fits := func() bool { return sched.SlotsCover(g.free, g.dems, j.Tasks) }
	g.order = ctl.AppendJobsInState(g.order[:0], sim.Running)
	g.order = g.prio.ByPriority(g.order[:0], ctl, g.order, ctl.Now(), g.priority, true)

	g.liveRows(ctl)
	g.marked = g.marked[:0]
	for _, cand := range g.order {
		if fits() {
			break
		}
		g.pauseRows(ctl, cand)
		g.marked = append(g.marked, cand)
	}
	if !fits() {
		// Even pausing everything is not enough; cannot happen for valid
		// traces (tasks <= nodes, demands <= 1) but keep the job pending
		// rather than panicking on a malformed workload.
		return
	}
	// Unmark in decreasing priority order whatever can stay running.
	// (Un)marking a candidate only changes the rows of its own nodes.
	// A candidate that must stay gets its nodes' saved rows back.
	g.indexMarked(ctl)
	for i := len(g.marked) - 1; i >= 0; i-- {
		cand := g.marked[i]
		g.saved = g.saved[:0]
		for _, node := range ctl.JobNodes(cand) {
			for _, used := range g.used {
				g.saved = append(g.saved, used[node])
			}
		}
		g.marked[i] = -1
		g.rederive(ctl, cand)
		if fits() {
			continue
		}
		g.marked[i] = cand
		saved := g.saved
		for _, node := range ctl.JobNodes(cand) {
			for _, used := range g.used {
				used[node], saved = saved[0], saved[1:]
			}
			g.setFree(ctl, node)
		}
	}
	for _, cand := range g.marked {
		if cand >= 0 {
			ctl.Pause(cand)
		}
	}
	nodes, ok := g.place.Place(ctl, jid)
	if !ok {
		// The rows above hold what Place reads after these pauses;
		// reaching this branch indicates an internal inconsistency.
		panic("greedy: forced admission found no placement after pausing candidates")
	}
	ctl.Start(jid, nodes)
}

// liveRows sets forced admission's rows to the simulator's current rigid
// usage and free capacity, copying the free rows (Controller.FreeRows).
func (g *Greedy) liveRows(ctl *sim.Controller) {
	n, free := ctl.NumNodes(), ctl.FreeRows()
	if len(g.used) != len(free) {
		g.used = make([][]float64, len(free))
		g.free = make([][]float64, len(free))
	}
	for r := range g.used {
		g.used[r] = slices.Grow(g.used[r][:0], n)[:n]
		g.free[r] = append(g.free[r][:0], free[r]...)
		for node := 0; node < n; node++ {
			g.used[r][node] = ctl.UsedRes(node, r+1)
		}
	}
}

// indexMarked lists, for every node, the marked candidates' tasks on it
// in marking order: onNode[first[node]:first[node+1]] holds the index in
// marked of each.
func (g *Greedy) indexMarked(ctl *sim.Controller) {
	n := ctl.NumNodes()
	g.first = slices.Grow(g.first[:0], n+1)[:n+1]
	clear(g.first)
	for _, cand := range g.marked {
		for _, node := range ctl.JobNodes(cand) {
			g.first[node+1]++
		}
	}
	for node := 0; node < n; node++ {
		g.first[node+1] += g.first[node]
	}
	g.onNode = slices.Grow(g.onNode[:0], g.first[n])[:g.first[n]]
	g.cursor = append(g.cursor[:0], g.first[:n]...)
	for k, cand := range g.marked {
		for _, node := range ctl.JobNodes(cand) {
			g.onNode[g.cursor[node]] = k
			g.cursor[node]++
		}
	}
}

// rederive recomputes the rows on cand's nodes from the simulator's
// current usage, releasing the tasks of the candidates still marked there
// in marking order. Adding a released demand back would not in general
// restore the bits the simulator holds.
func (g *Greedy) rederive(ctl *sim.Controller, cand int) {
	for _, node := range ctl.JobNodes(cand) {
		for r, used := range g.used {
			used[node] = ctl.UsedRes(node, r+1)
		}
		for _, k := range g.onNode[g.first[node]:g.first[node+1]] {
			if m := g.marked[k]; m >= 0 {
				g.release(ctl.JobRef(m), node)
			}
		}
		g.setFree(ctl, node)
	}
}

// pauseRows applies running job cand's pause to the rows.
func (g *Greedy) pauseRows(ctl *sim.Controller, cand int) {
	cj := ctl.JobRef(cand)
	for _, node := range ctl.JobNodes(cand) {
		g.release(cj, node)
		g.setFree(ctl, node)
	}
}

// release removes one task of job j from node's usage rows as the
// simulator's release does: the demand is subtracted and rounding residue
// snapped to zero. Releases applied in the order ctl.Pause will run them,
// followed by setFree, leave exactly the values Controller.FreeRes then
// reports.
func (g *Greedy) release(j *workload.Job, node int) {
	for r, used := range g.used {
		if dem := j.Demand(r + 1); dem != 0 {
			used[node] = floats.NonNeg(used[node] - dem)
		}
	}
}

// setFree derives node's free rows from its usage rows as the simulator
// derives its own (Controller.FreeRows): capacity minus usage, rounding
// residue snapped to zero.
func (g *Greedy) setFree(ctl *sim.Controller, node int) {
	for r, used := range g.used {
		g.free[r][node] = floats.NonNeg(ctl.ResCap(node, r+1) - used[node])
	}
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
