package sim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/floats"
	"repro/internal/placement"
	"repro/internal/sim/index"
	"repro/internal/workload"
)

// Controller is the interface the simulator hands to scheduling algorithms.
// It exposes read access to cluster and job state and the mutating
// operations of Section II-B1: starting jobs, setting per-job yields,
// pausing (preempting), resuming and migrating. All mutations take effect
// instantaneously in simulated time; resumes and migrations additionally
// freeze the job for the configured rescheduling penalty, which the
// algorithms do not observe.
//
// Misuse (starting a non-pending job, oversubscribing memory, yields
// violating node CPU capacity) panics: schedulers in this repository are
// trusted code and such a call is always a bug.
type Controller struct {
	sim *Simulator
}

// Now returns the current simulated time in seconds.
func (c *Controller) Now() float64 { return c.sim.now }

// NumNodes returns the cluster size.
func (c *Controller) NumNodes() int { return len(c.sim.usedCPU) }

// Cluster returns the simulated cluster's resource model. Schedulers must
// treat it as read-only.
func (c *Controller) Cluster() *cluster.Cluster { return c.sim.cl }

// CPUCap returns node's CPU capacity (1.0 on the paper's platform).
func (c *Controller) CPUCap(node int) float64 { return c.sim.cl.CPUCap(node) }

// MemCap returns node's memory capacity (1.0 on the paper's platform).
func (c *Controller) MemCap(node int) float64 { return c.sim.cl.MemCap(node) }

// NumDims returns the cluster's resource dimension count (2 on the paper's
// platform: CPU and memory).
func (c *Controller) NumDims() int { return c.sim.cl.D() }

// Objective returns the run's configured placement objective, or nil when
// the run uses each scheduler family's default selection rule (the paper's
// behaviour). Every family consults it when choosing among feasible nodes
// (see internal/placement).
func (c *Controller) Objective() placement.Objective { return c.sim.cfg.Objective }

// NodeCost returns node's cost rate (cluster.NodeSpec.Cost; 0 on unpriced
// platforms).
func (c *Controller) NodeCost(node int) float64 { return c.sim.cl.Nodes[node].Cost }

// DimName returns the name of resource dimension k ("cpu", "mem",
// "gpu", ...).
func (c *Controller) DimName(k int) string { return c.sim.cl.DimName(k) }

// ResCap returns node's capacity in resource dimension k.
func (c *Controller) ResCap(node, k int) float64 { return c.sim.cl.Cap(node, k) }

// UsedRes returns the amount of rigid resource dimension k currently
// allocated on node. Dimension 1 is memory; dimensions beyond the
// cluster's count report 0, consistent with Cluster.Cap. Asking for the
// fluid CPU dimension (k = 0) panics — use AllocatedCPU for it.
func (c *Controller) UsedRes(node, k int) float64 {
	if k < 1 {
		panic(fmt.Sprintf("sim: UsedRes(%d, %d): rigid dimensions start at 1; use AllocatedCPU for the CPU dimension", node, k))
	}
	if k-1 >= len(c.sim.usedRigid) {
		return 0
	}
	return c.sim.usedRigid[k-1][node]
}

// FreeRes returns the free amount of rigid resource dimension k on node
// (its capacity minus the allocated amount; 0 for dimensions the cluster
// does not declare). Asking for the fluid CPU dimension (k = 0) panics.
func (c *Controller) FreeRes(node, k int) float64 {
	if k < 1 || k-1 >= len(c.sim.freeRigid) {
		return c.UsedRes(node, k) // the CPU dimension's panic, or 0 past the declared ones
	}
	return c.sim.freeRigid[k-1][node]
}

// FreeRows returns the simulator's free rigid capacity as rows:
// FreeRows()[r][node] is FreeRes(node, r+1). The rows are the simulator's
// own, kept current by every Start, Pause, Resume, Migrate and completion;
// callers must not modify them, and must copy them to keep a snapshot.
func (c *Controller) FreeRows() [][]float64 { return c.sim.freeRigid }

// NumJobs returns the number of jids issued so far, not the trace length:
// jobs are admitted lazily, so this counts the jobs submitted up to now
// plus any already admitted for the next arrival instant. Jids range over
// [0, NumJobs()); completed ones are forgotten.
func (c *Controller) NumJobs() int { return len(c.sim.jobs) }

// Job returns a read-only snapshot of job jid. It panics with a clear
// message when jid is not yet admitted or was already forgotten (its
// completion hook returned).
func (c *Controller) Job(jid int) JobInfo {
	if jid < 0 || jid >= len(c.sim.jobs) || c.sim.jobs[jid] == nil {
		panic(fmt.Sprintf("sim: Job(%d): jid not yet admitted or already completed and forgotten", jid))
	}
	j := c.sim.jobs[jid]
	var nodes []int
	if j.nodes != nil {
		nodes = append([]int(nil), j.nodes...)
	}
	return JobInfo{
		JID:         jid,
		Job:         j.job,
		State:       j.state,
		Nodes:       nodes,
		Yield:       j.yield,
		VirtualTime: j.virtual,
		Remaining:   j.remaining,
		FrozenUntil: j.frozenUntil,
		Attempts:    j.attempts,
		LastPause:   j.lastPauseTime,
	}
}

// JobLite returns the same snapshot as Job without copying the node list:
// the Nodes field is nil regardless of state. Schedulers on the hot path
// pair it with JobNodes when they actually need the placement.
func (c *Controller) JobLite(jid int) JobInfo {
	j := c.sim.jobs[jid]
	return JobInfo{
		JID:         jid,
		Job:         j.job,
		State:       j.state,
		Yield:       j.yield,
		VirtualTime: j.virtual,
		Remaining:   j.remaining,
		FrozenUntil: j.frozenUntil,
		Attempts:    j.attempts,
		LastPause:   j.lastPauseTime,
	}
}

// JobNodes returns the node placement of job jid (one entry per task while
// Running, nil otherwise) as a read-only view into simulator state. Callers
// must not mutate or retain it across Controller mutations.
func (c *Controller) JobNodes(jid int) []int { return c.sim.jobs[jid].nodes }

// JobState returns the lifecycle state of job jid.
func (c *Controller) JobState(jid int) JobState { return c.sim.jobs[jid].state }

// JobRef returns a read-only pointer to job jid's immutable trace record,
// sparing hot-path callers the full JobInfo copy when they only need the
// static job description.
func (c *Controller) JobRef(jid int) *workload.Job { return &c.sim.jobs[jid].job }

// VirtualTime returns job jid's accumulated virtual seconds.
func (c *Controller) VirtualTime(jid int) float64 { return c.sim.jobs[jid].virtual }

// JobsInState returns the jids of all jobs currently in the given state, in
// increasing jid order (deterministic). Jobs whose submission time lies in
// the future are invisible to schedulers and never returned, even though
// they sit in the Pending state internally.
func (c *Controller) JobsInState(state JobState) []int {
	return c.AppendJobsInState(nil, state)
}

// AppendJobsInState appends the jids JobsInState would return to dst and
// returns the extended slice; hot-path callers reuse dst across events to
// avoid per-call allocations. The Pending/Running/Paused states are served
// from the simulator's incremental indexes in O(answer).
func (c *Controller) AppendJobsInState(dst []int, state JobState) []int {
	s := c.sim
	switch state {
	case Pending:
		return append(dst, s.visPending...)
	case Running:
		return append(dst, s.running...)
	case Paused:
		return append(dst, s.paused...)
	}
	for jid, j := range s.jobs {
		if j != nil && j.state == state && j.job.Submit <= s.now {
			dst = append(dst, jid)
		}
	}
	return dst
}

// ActiveJobs returns the jids of all jobs currently in the system and
// holding or wanting resources: submitted-pending, running and paused.
func (c *Controller) ActiveJobs() []int {
	return c.AppendActiveJobs(nil)
}

// AppendActiveJobs appends the jids ActiveJobs would return to dst — in
// increasing jid order, merged from the three per-state indexes — and
// returns the extended slice.
func (c *Controller) AppendActiveJobs(dst []int) []int {
	s := c.sim
	p, r, q := s.visPending, s.running, s.paused
	for len(p) > 0 || len(r) > 0 || len(q) > 0 {
		best := math.MaxInt
		if len(p) > 0 {
			best = p[0]
		}
		if len(r) > 0 && r[0] < best {
			best = r[0]
		}
		if len(q) > 0 && q[0] < best {
			best = q[0]
		}
		switch {
		case len(p) > 0 && p[0] == best:
			p = p[1:]
		case len(r) > 0 && r[0] == best:
			r = r[1:]
		default:
			q = q[1:]
		}
		dst = append(dst, best)
	}
	return dst
}

// CPULoad returns the paper's CPU load of a node: the sum of the CPU needs
// of the tasks allocated to it (which may exceed the node's capacity).
func (c *Controller) CPULoad(node int) float64 { return c.sim.cpuLoad[node] }

// AllocatedCPU returns the CPU of a node currently promised to tasks (sum
// of need x yield; at most the node's CPU capacity).
func (c *Controller) AllocatedCPU(node int) float64 { return c.sim.usedCPU[node] }

// UsedMem returns the memory of a node currently allocated.
func (c *Controller) UsedMem(node int) float64 { return c.sim.usedRigid[0][node] }

// FreeMem returns the free memory of a node (its capacity minus the
// allocated memory).
func (c *Controller) FreeMem(node int) float64 { return c.sim.freeRigid[0][node] }

// MaxCPULoad returns the maximum relative CPU load over all nodes — each
// node's load divided by its own CPU capacity (the paper's capital lambda;
// on the unit-capacity platform this is exactly the raw load). The greedy
// yield rule 1/max(1, lambda) keeps every node within its capacity. The
// node index is synced, then read at its root: O(nodes changed since the
// last read), not O(nodes).
func (c *Controller) MaxCPULoad() float64 {
	return c.sim.syncIndex().MaxLoad()
}

// NodeIndex syncs and exposes the simulator's tournament tree over per-node
// (relative CPU load, free memory). It accelerates one query, the
// least-relatively-loaded node with room for a memory demand, which is
// placement.LoadBalance's pick on a two-resource platform: greedy placement
// answers each task's pick from it in O(log n), overlaying the call's
// tentative tasks with Set. Whoever overlays must restore every leaf it set
// to the live values (CPULoad(node)/CPUCap(node), FreeMem(node)) before
// returning control to the simulator. The tree is current only until the
// next Start, Migrate, Pause, Resume or completion: callers must not hold it
// across one, but call NodeIndex again after it.
func (c *Controller) NodeIndex() *index.NodeIndex { return c.sim.syncIndex() }

// IncrementAttempts bumps and returns the job's failed-attempt counter,
// which greedy algorithms use for bounded exponential backoff.
func (c *Controller) IncrementAttempts(jid int) int {
	c.sim.jobs[jid].attempts++
	return c.sim.jobs[jid].attempts
}

// SetTimer schedules an OnTimer callback with the given tag at time at
// (>= now).
func (c *Controller) SetTimer(at float64, tag int64) {
	if at < c.sim.now {
		panic(fmt.Sprintf("sim: timer at %.3f in the past (now %.3f)", at, c.sim.now))
	}
	c.sim.queue.Push(at, tag)
}

// Start dispatches pending job jid onto the given nodes (one entry per
// task; a node may appear multiple times) with an initial yield of zero.
// Callers must follow up with SetYield. Starting fresh carries no penalty.
func (c *Controller) Start(jid int, nodes []int) {
	s := c.sim
	j := s.jobs[jid]
	if j.state != Pending {
		panic(fmt.Sprintf("sim: Start on job %d in state %v", jid, j.state))
	}
	if len(nodes) != j.job.Tasks {
		panic(fmt.Sprintf("sim: Start job %d with %d nodes for %d tasks", jid, len(nodes), j.job.Tasks))
	}
	s.occupyNodes(j, nodes)
	j.state = Running
	j.yield = 0
	s.visPending = removeJid(s.visPending, jid)
	s.running = insertJid(s.running, jid)
	if j.start < 0 {
		j.start = s.now
	}
	s.emit(Event{Kind: EvStarted, JID: jid, Nodes: nodes})
}

// Pause preempts running job jid: it stops progressing and releases its
// nodes immediately. The preemption occurrence and the save traffic
// (tasks x memReq x nodeMemGB) are accounted to Table II's preemption
// columns; the matching restore traffic is accounted on Resume.
func (c *Controller) Pause(jid int) {
	s := c.sim
	j := s.jobs[jid]
	if j.state != Running {
		panic(fmt.Sprintf("sim: Pause on job %d in state %v", jid, j.state))
	}
	// Refill the retained buffer in place (newRT preserves it across
	// recycling) so pauses allocate nothing at steady state.
	j.lastNodes = append(j.lastNodes[:0], j.nodes...)
	s.releaseNodes(j)
	j.state = Paused
	j.yield = 0
	s.running = removeJid(s.running, jid)
	s.paused = insertJid(s.paused, jid)
	j.pauses++
	j.prevPauseTime = j.lastPauseTime
	j.lastPauseTime = s.now
	j.lastPauseWas = true
	s.result.PreemptionOps++
	s.result.PreemptionGB += s.memGB(j)
	s.emit(Event{Kind: EvPreempted, JID: jid})
}

// Resume restarts paused job jid on the given nodes with yield zero and
// freezes it for the rescheduling penalty. Two special cases implement the
// paper's semantics for same-event pause+resume (GREEDY-PMTN-MIGR and the
// DYNMCB8 repacks):
//
//   - resumed in the same event on the same node multiset: the pause never
//     physically happened; its occurrence and traffic are refunded and no
//     penalty applies;
//   - resumed in the same event on a different node multiset: the pair is
//     reclassified as one migration (the pause's occurrence and save
//     traffic move to the migration columns).
func (c *Controller) Resume(jid int, nodes []int) {
	s := c.sim
	j := s.jobs[jid]
	if j.state != Paused {
		panic(fmt.Sprintf("sim: Resume on job %d in state %v", jid, j.state))
	}
	if len(nodes) != j.job.Tasks {
		panic(fmt.Sprintf("sim: Resume job %d with %d nodes for %d tasks", jid, len(nodes), j.job.Tasks))
	}
	sameEvent := j.lastPauseWas && j.lastPauseTime == s.now
	// A reclassified pair surfaces as a migration; a plain or refunded
	// resume surfaces as a restart.
	kind := EvStarted
	switch {
	case sameEvent && SameMultiset(nodes, j.lastNodes):
		// Undo: the job never actually moved. The pause's accounting is
		// refunded in full, including the LastPause timestamp — the refund
		// says the pause never physically happened, so JobInfo must not
		// report it.
		j.pauses--
		j.lastPauseTime = j.prevPauseTime
		s.result.PreemptionOps--
		s.result.PreemptionGB -= s.memGB(j)
		s.occupyNodes(j, nodes)
		j.state = Running
		j.yield = 0
	case sameEvent:
		// Reclassify pause+resume as a single migration.
		kind = EvMigrated
		j.pauses--
		j.migrations++
		s.result.PreemptionOps--
		s.result.PreemptionGB -= s.memGB(j)
		s.result.MigrationOps++
		s.result.MigrationGB += 2 * s.memGB(j)
		s.occupyNodes(j, nodes)
		j.state = Running
		j.yield = 0
		j.frozenUntil = s.now + s.cfg.Penalty
	default:
		s.result.PreemptionGB += s.memGB(j) // restore traffic
		s.occupyNodes(j, nodes)
		j.state = Running
		j.yield = 0
		j.frozenUntil = s.now + s.cfg.Penalty
	}
	j.lastPauseWas = false
	s.paused = removeJid(s.paused, jid)
	s.running = insertJid(s.running, jid)
	if j.start < 0 {
		j.start = s.now
	}
	// The stream reports raw transitions: the JobPreempted emitted by the
	// matching Pause is never retracted, even when the accounting above
	// refunds or reclassifies it (see Observer docs).
	s.emit(Event{Kind: kind, JID: jid, Nodes: nodes, frozenUntil: j.frozenUntil, resumed: true})
}

// Migrate moves running job jid to a new node multiset in one step
// (pause+resume within the event), counting one migration occurrence and a
// save+restore of the job's memory, and freezing the job for the penalty.
// Migrating onto the identical node multiset is a no-op.
func (c *Controller) Migrate(jid int, nodes []int) {
	s := c.sim
	j := s.jobs[jid]
	if j.state != Running {
		panic(fmt.Sprintf("sim: Migrate on job %d in state %v", jid, j.state))
	}
	if len(nodes) != j.job.Tasks {
		panic(fmt.Sprintf("sim: Migrate job %d with %d nodes for %d tasks", jid, len(nodes), j.job.Tasks))
	}
	if SameMultiset(nodes, j.nodes) {
		return
	}
	s.releaseNodes(j)
	s.occupyNodes(j, nodes)
	j.yield = 0
	j.migrations++
	j.frozenUntil = s.now + s.cfg.Penalty
	s.result.MigrationOps++
	s.result.MigrationGB += 2 * s.memGB(j)
	s.emit(Event{Kind: EvMigrated, JID: jid, Nodes: nodes, frozenUntil: j.frozenUntil})
}

// SetYield assigns job jid's yield, adjusting every hosting node's
// allocated CPU. It panics if the new allocation would exceed any node's
// CPU capacity beyond tolerance.
func (c *Controller) SetYield(jid int, y float64) {
	s := c.sim
	j := s.jobs[jid]
	if j.state != Running {
		panic(fmt.Sprintf("sim: SetYield on job %d in state %v", jid, j.state))
	}
	if y < 0 || y > 1+capTol {
		panic(fmt.Sprintf("sim: SetYield job %d to %g outside [0,1]", jid, y))
	}
	if y > 1 {
		y = 1
	}
	delta := j.job.CPUNeed * (y - j.yield)
	for _, node := range j.nodes {
		s.usedCPU[node] += delta
		if s.usedCPU[node] > s.cl.CPUCap(node)+capTol {
			panic(fmt.Sprintf("sim: %s oversubscribed CPU on node %d (%.6f of %.6f) at t=%.1f",
				s.sched.Name(), node, s.usedCPU[node], s.cl.CPUCap(node), s.now))
		}
		s.usedCPU[node] = floats.NonNeg(s.usedCPU[node])
	}
	j.yield = y
	s.emit(Event{Kind: evYielded, JID: jid, yield: y})
}

// Penalty returns the configured rescheduling penalty. Exposed for tests
// and reports only; the paper's algorithms never consult it.
func (c *Controller) Penalty() float64 { return c.sim.cfg.Penalty }

// SameMultiset reports whether a and b contain the same nodes with the same
// multiplicities. Tasks are interchangeable, so allocations differing only
// by a permutation are physically identical. Jobs rarely exceed a handful
// of tasks, so small inputs take a quadratic count-compare path; larger
// ones compare sorted copies, kept on the stack up to 128 tasks (DYNMCB8
// checks every running job at every repack, and a counting map there was
// most of a campaign's allocation).
func SameMultiset(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	// Identical sequences are the overwhelmingly common case (a repack that
	// leaves a job where it was reproduces the node list in the same
	// order): resolve them without touching a counting structure.
	equal := true
	for i, x := range a {
		if b[i] != x {
			equal = false
			break
		}
	}
	if equal {
		return true
	}
	if len(a) <= 8 {
		for i, x := range a {
			// Count x once, on its first occurrence in a.
			first := true
			for _, y := range a[:i] {
				if y == x {
					first = false
					break
				}
			}
			if !first {
				continue
			}
			na, nb := 0, 0
			for _, y := range a[i:] {
				if y == x {
					na++
				}
			}
			for _, y := range b {
				if y == x {
					nb++
				}
			}
			if na != nb {
				return false
			}
		}
		return true
	}
	var buf [2 * 128]int
	sorted := buf[:]
	if 2*len(a) > len(buf) {
		sorted = make([]int, 2*len(a))
	}
	sa, sb := sorted[:len(a)], sorted[len(a):2*len(a)]
	copy(sa, a)
	copy(sb, b)
	slices.Sort(sa)
	slices.Sort(sb)
	return slices.Equal(sa, sb)
}

// EarliestFinish returns, assuming perfect knowledge of execution times and
// current yields, the completion instant of running job jid. It is used by
// the EASY baseline, which the paper grants perfect estimates; DFRS
// algorithms must not call it.
func (c *Controller) EarliestFinish(jid int) float64 {
	j := c.sim.jobs[jid]
	if j.state != Running || j.yield <= 0 {
		return math.Inf(1)
	}
	from := math.Max(c.sim.now, j.frozenUntil)
	return from + j.remaining/j.yield
}
