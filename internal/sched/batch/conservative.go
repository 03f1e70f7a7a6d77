package batch

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/sched"
	"repro/internal/sim"
)

func init() {
	sched.Register("conservative", func() sim.Scheduler { return &Conservative{} })
}

// Conservative implements conservative backfilling, the classical
// alternative to EASY in the batch-scheduling literature the paper builds
// its baselines from: *every* queued job holds a reservation (not just the
// head), and a job may only backfill when it delays no reservation at all.
// Like EASY it receives perfect execution-time estimates. It is not part of
// the paper's evaluation but is the natural third batch comparator, and the
// experiment harness accepts it anywhere "fcfs" or "easy" appear.
type Conservative struct {
	wholeNodeAdmission
	pool    *nodePool
	queue   []int
	holding map[int][]int
	// dispatchOnce's buffers: the running jids, their releases by time,
	// and the availability profile (avail[i] nodes from times[i] on).
	running []int
	rel     []release
	times   []float64
	avail   []int
}

// Name implements sim.Scheduler.
func (c *Conservative) Name() string { return "conservative" }

// Init implements sim.Scheduler.
func (c *Conservative) Init(ctl *sim.Controller) {
	c.pool = newNodePool(ctl.Cluster(), ctl.Objective())
	c.queue = nil
	c.holding = map[int][]int{}
}

// OnArrival implements sim.Scheduler.
func (c *Conservative) OnArrival(ctl *sim.Controller, jid int) {
	c.queue = append(c.queue, jid)
	c.dispatch(ctl)
}

// OnCompletion implements sim.Scheduler.
func (c *Conservative) OnCompletion(ctl *sim.Controller, jid int) {
	c.pool.give(c.holding[jid])
	delete(c.holding, jid)
	c.dispatch(ctl)
}

// OnTimer implements sim.Scheduler; no timers are used.
func (c *Conservative) OnTimer(*sim.Controller, int64) {}

// dispatch runs the conservative scheduling pass: simulate the future node
// availability profile with perfect estimates, give every queued job its
// earliest start in queue order, and start those whose reserved start is
// now.
func (c *Conservative) dispatch(ctl *sim.Controller) {
	for {
		started := c.dispatchOnce(ctl)
		if !started {
			return
		}
	}
}

// dispatchOnce plans reservations for the whole queue and starts at most
// the first job whose reservation is the current instant. Restarting the
// planning after every start keeps the profile exact.
func (c *Conservative) dispatchOnce(ctl *sim.Controller) bool {
	if len(c.queue) == 0 {
		return false
	}
	now := ctl.Now()
	// Build the availability profile from running jobs' exact finish
	// times.
	c.running = ctl.AppendJobsInState(c.running[:0], sim.Running)
	c.rel = c.rel[:0]
	for _, jid := range c.running {
		c.rel = append(c.rel, release{t: ctl.EarliestFinish(jid), tasks: ctl.JobRef(jid).Tasks})
	}
	slices.SortFunc(c.rel, func(a, b release) int { return cmp.Compare(a.t, b.t) })

	// The profile is a step function of available nodes over time,
	// starting with the currently free pool and gaining nodes at each
	// release. As jobs are (virtually) placed, capacity is subtracted from
	// the affected steps.
	c.times = append(c.times[:0], now)
	c.avail = append(c.avail[:0], c.pool.freeCount())
	for _, r := range c.rel {
		c.times = append(c.times, r.t)
		c.avail = append(c.avail, c.avail[len(c.avail)-1]+r.tasks)
	}

	for qi, jid := range c.queue {
		j := ctl.JobRef(jid)
		start, idx := c.earliestStart(j.Tasks, j.ExecTime)
		if start <= now+1e-9 {
			// Starts now: take real nodes and dispatch. On a heterogeneous
			// cluster the profile is advisory; the eligibility check here is
			// what keeps every start within per-node capacities.
			if j.Tasks <= c.pool.freeFor(j) {
				nodes := c.pool.takeFor(j, j.Tasks)
				ctl.Start(jid, nodes)
				ctl.SetYield(jid, 1)
				c.holding[jid] = nodes
				c.queue = append(c.queue[:qi], c.queue[qi+1:]...)
				return true
			}
		}
		c.reserve(idx, j.Tasks, math.Max(start, now), j.ExecTime)
	}
	return false
}

// earliestStart finds the first profile step from which tasks nodes are
// available continuously for duration, and returns its time and index.
func (c *Conservative) earliestStart(tasks int, duration float64) (float64, int) {
	times, avail := c.times, c.avail
	for i := 0; i < len(times); i++ {
		if avail[i] < tasks {
			continue
		}
		end := times[i] + duration
		feasible := true
		for k := i + 1; k < len(times) && times[k] < end; k++ {
			if avail[k] < tasks {
				feasible = false
				break
			}
		}
		if feasible {
			return times[i], i
		}
	}
	// The profile ends with the full cluster free; always feasible at its
	// last step.
	return times[len(times)-1], len(times) - 1
}

// reserve subtracts capacity from every step the job overlaps, inserting a
// new step at its end so later steps regain the nodes.
func (c *Conservative) reserve(startIdx int, tasks int, start, duration float64) {
	end := start + duration
	// Insert an end step if needed.
	insertAt := len(c.times)
	for k := startIdx; k < len(c.times); k++ {
		if c.times[k] == end {
			insertAt = -1
			break
		}
		if c.times[k] > end {
			insertAt = k
			break
		}
	}
	if insertAt >= 0 {
		c.times = slices.Insert(c.times, insertAt, end)
		c.avail = slices.Insert(c.avail, insertAt, c.avail[insertAt-1])
	}
	for k := startIdx; k < len(c.times) && c.times[k] < end; k++ {
		c.avail[k] -= tasks
	}
}
