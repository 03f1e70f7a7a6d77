// Package gang implements a gang scheduler, the classical time-sharing
// alternative that Section VI of the paper contrasts DFRS against: tasks of
// a parallel job execute in the same synchronized time slices across the
// cluster's nodes, with distributed context switches at every slice
// boundary.
//
// The implementation uses an Ousterhout-style matrix: rows are time slices,
// columns are nodes; each job occupies one row on as many columns as it has
// tasks. During its slice a job runs at full speed (yield 1); otherwise it
// is suspended. The per-node memory constraint applies to the *sum over
// rows* of a column's tasks, modelling the memory pressure that Section VI
// identifies as gang scheduling's weakness — jobs whose memory does not fit
// under the jobs already stacked on a column must wait, exactly the
// behaviour the DFRS memory constraint was designed to preserve.
//
// The simulator cannot context-switch for free: changing the set of running
// jobs is done through yield changes (zero-cost, as in real gang schedulers
// where switching is seconds against multi-second slices), not through
// pause/resume (which would charge the rescheduling penalty meant for
// VM save/restore cycles). The quantum is configurable; the package
// registers "gang" with a 60-second quantum (gang schedulers need slices
// long against context-switch costs; Section VI).
package gang

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/floats"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// DefaultQuantum is the registered variant's time slice in seconds.
const DefaultQuantum = 60.0

const tickTag int64 = -2

func init() {
	sched.Register("gang", func() sim.Scheduler { return New(DefaultQuantum) })
}

// Scheduler is the gang scheduler.
type Scheduler struct {
	quantum float64
	name    string

	rows    []row
	current int // row currently executing
	// rigidUse[r][node] is the cumulative demand in rigid dimension r+1
	// (rigidUse[0] is memory) across all rows — suspended jobs keep their
	// VM-resident footprint, the memory pressure Section VI identifies.
	rigidUse [][]float64
	// placed[jid] = row index.
	placed map[int]int
	queue  []int
	// applySlice's buffers: the running placed jids in ascending order
	// and their yields.
	jids   []int
	yields []float64
	// obj chooses among a row's feasible nodes: the run's objective, or
	// placement.First (the published first-fit) when none is configured.
	obj placement.Objective
}

type row struct {
	jobs  []int
	nodes map[int][]int // jid -> node per task
	load  []float64     // per-node CPU need in this row
}

// New builds a gang scheduler with the given time quantum in seconds.
func New(quantum float64) *Scheduler {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	return &Scheduler{quantum: quantum, name: fmt.Sprintf("gang-%.0f", quantum)}
}

// Name implements sim.Scheduler. The registered default is named "gang".
func (g *Scheduler) Name() string {
	if g.quantum == DefaultQuantum {
		return "gang"
	}
	return g.name
}

// CheckJob implements sim.CapacityChecker: a gang row runs at yield 1, so
// a fresh row on the empty cluster holds as many of the job's tasks as
// cluster.Slots counts over every dimension, CPU included. A job whose
// tasks exceed that can never be admitted — without this veto it would
// sit queued while the quantum timer re-arms forever. On the paper's
// platform (unit nodes, need and demands in (0,1], tasks <= nodes) every
// node holds at least one task and the check never fires; it bites on
// partially-equipped mixes (a CPU-hungry multi-task GPU job with fewer
// GPU nodes than tasks).
func (g *Scheduler) CheckJob(cl *cluster.Cluster, j workload.Job) error {
	slots := cluster.Slots(cl.N(), j.Tasks, cluster.DimCPU, cl.D(), j.Demand, cl.Cap)
	if slots < j.Tasks {
		return fmt.Errorf("gang: job %d needs %d tasks in one time slice but a fresh row on the empty cluster holds at most %d",
			j.ID, j.Tasks, slots)
	}
	return nil
}

// Init implements sim.Scheduler.
func (g *Scheduler) Init(ctl *sim.Controller) {
	g.rows = nil
	g.current = 0
	g.rigidUse = make([][]float64, ctl.NumDims()-1)
	for r := range g.rigidUse {
		g.rigidUse[r] = make([]float64, ctl.NumNodes())
	}
	g.placed = map[int]int{}
	g.queue = nil
	g.obj = ctl.Objective()
	if g.obj == nil {
		g.obj = placement.First{}
	}
	ctl.SetTimer(ctl.Now()+g.quantum, tickTag)
}

// OnArrival implements sim.Scheduler.
func (g *Scheduler) OnArrival(ctl *sim.Controller, jid int) {
	if !g.tryPlace(ctl, jid) {
		g.queue = append(g.queue, jid)
		return
	}
	g.applySlice(ctl)
}

// OnCompletion implements sim.Scheduler.
func (g *Scheduler) OnCompletion(ctl *sim.Controller, jid int) {
	g.remove(ctl, jid)
	g.admitQueued(ctl)
	g.applySlice(ctl)
}

// OnTimer implements sim.Scheduler: advance to the next time slice.
func (g *Scheduler) OnTimer(ctl *sim.Controller, tag int64) {
	if tag != tickTag {
		return
	}
	if len(g.rows) > 0 {
		g.current = (g.current + 1) % len(g.rows)
	}
	g.admitQueued(ctl)
	g.applySlice(ctl)
	ctl.SetTimer(ctl.Now()+g.quantum, tickTag)
}

// tryPlace finds (or creates) a row with CPU room on enough columns whose
// cumulative memory (across all rows) can take the job's tasks. Returns
// false when the memory constraint blocks admission.
func (g *Scheduler) tryPlace(ctl *sim.Controller, jid int) bool {
	ji := ctl.Job(jid)
	n := ctl.NumNodes()
	for ri := range g.rows {
		if nodes, ok := g.fitInRow(ctl, ji, &g.rows[ri], n); ok {
			g.commit(ctl, jid, ri, nodes)
			return true
		}
	}
	// Open a fresh row.
	fresh := row{nodes: map[int][]int{}, load: make([]float64, n)}
	if nodes, ok := g.fitInRow(ctl, ji, &fresh, n); ok {
		g.rows = append(g.rows, fresh)
		g.commit(ctl, jid, len(g.rows)-1, nodes)
		return true
	}
	return false
}

// rowState adapts one gang row (plus the in-call placement plan) to
// placement.State: CPU load is the row's per-slice load, rigid usage is
// the cumulative footprint across all rows — the same quantities the
// feasibility filter checks.
type rowState struct {
	g         *Scheduler
	ctl       *sim.Controller
	r         *row
	planLoad  []float64
	planRigid [][]float64
}

// Dims implements placement.State.
func (s rowState) Dims() int { return s.ctl.NumDims() }

// Cap implements placement.State.
func (s rowState) Cap(node, k int) float64 { return s.ctl.ResCap(node, k) }

// Free implements placement.State.
func (s rowState) Free(node, k int) float64 {
	if k == 0 {
		return s.ctl.CPUCap(node) - s.CPULoad(node)
	}
	return s.ctl.ResCap(node, k) - s.g.rigidUse[k-1][node] - s.planRigid[k-1][node]
}

// CPULoad implements placement.State: the row's CPU load on the node.
func (s rowState) CPULoad(node int) float64 { return s.r.load[node] + s.planLoad[node] }

// Cost implements placement.State.
func (s rowState) Cost(node int) float64 { return s.ctl.NodeCost(node) }

// fitInRow plans one node per task: the node must have CPU headroom within
// the row (need sums to at most the node's CPU capacity per slice, so the
// row can run at yield 1) and global headroom in every rigid dimension
// (memory, GPU, ...) across all rows. On a homogeneous cluster both
// capacities are 1.0, the published formulation. Each task takes the
// feasible node placement.Pick selects under the scheduler's objective —
// by default First, the first feasible node in id order.
func (g *Scheduler) fitInRow(ctl *sim.Controller, ji sim.JobInfo, r *row, n int) ([]int, bool) {
	nodes := make([]int, 0, ji.Job.Tasks)
	planLoad := make([]float64, n)
	planRigid := make([][]float64, len(g.rigidUse))
	for ri := range planRigid {
		planRigid[ri] = make([]float64, n)
	}
	feasible := func(node int) bool {
		if !floats.LessEq(ji.Job.CPUNeed, ctl.CPUCap(node)-(r.load[node]+planLoad[node])) {
			return false
		}
		for ri := range g.rigidUse {
			if !floats.LessEq(ji.Job.Demand(ri+1), ctl.ResCap(node, ri+1)-(g.rigidUse[ri][node]+planRigid[ri][node])) {
				return false
			}
		}
		return true
	}
	var st placement.State = rowState{g: g, ctl: ctl, r: r, planLoad: planLoad, planRigid: planRigid}
	dem := placement.Demand(ji.Job.Demand)
	for task := 0; task < ji.Job.Tasks; task++ {
		found := placement.Pick(n, dem, st, feasible, g.obj)
		if found < 0 {
			return nil, false
		}
		nodes = append(nodes, found)
		planLoad[found] += ji.Job.CPUNeed
		for ri := range planRigid {
			planRigid[ri][found] += ji.Job.Demand(ri + 1)
		}
	}
	return nodes, true
}

func (g *Scheduler) commit(ctl *sim.Controller, jid, ri int, nodes []int) {
	r := &g.rows[ri]
	r.jobs = append(r.jobs, jid)
	r.nodes[jid] = nodes
	ji := ctl.Job(jid)
	for _, node := range nodes {
		r.load[node] += ji.Job.CPUNeed
		for k := range g.rigidUse {
			g.rigidUse[k][node] += ji.Job.Demand(k + 1)
		}
	}
	g.placed[jid] = ri
	ctl.Start(jid, nodes)
}

func (g *Scheduler) remove(ctl *sim.Controller, jid int) {
	ri, ok := g.placed[jid]
	if !ok {
		return
	}
	delete(g.placed, jid)
	r := &g.rows[ri]
	ji := ctl.Job(jid)
	for _, node := range r.nodes[jid] {
		r.load[node] -= ji.Job.CPUNeed
		r.load[node] = floats.NonNeg(r.load[node])
		for k := range g.rigidUse {
			g.rigidUse[k][node] = floats.NonNeg(g.rigidUse[k][node] - ji.Job.Demand(k+1))
		}
	}
	delete(r.nodes, jid)
	for i, j := range r.jobs {
		if j == jid {
			r.jobs = append(r.jobs[:i], r.jobs[i+1:]...)
			break
		}
	}
	g.compactRows()
}

// compactRows drops empty trailing rows and clamps the current slice index.
func (g *Scheduler) compactRows() {
	out := g.rows[:0]
	remap := make([]int, len(g.rows))
	for ri := range g.rows {
		if len(g.rows[ri].jobs) == 0 {
			remap[ri] = -1
			continue
		}
		remap[ri] = len(out)
		out = append(out, g.rows[ri])
	}
	for jid, ri := range g.placed {
		g.placed[jid] = remap[ri]
	}
	g.rows = out
	if g.current >= len(g.rows) {
		g.current = 0
	}
}

func (g *Scheduler) admitQueued(ctl *sim.Controller) {
	remaining := g.queue[:0]
	for _, jid := range g.queue {
		if ctl.Job(jid).State != sim.Pending || !g.tryPlace(ctl, jid) {
			remaining = append(remaining, jid)
		}
	}
	g.queue = remaining
}

// applySlice gives yield 1 to every job in the current row and 0 to all
// other running jobs — the synchronized context switch. Jobs that completed
// in the current event but whose OnCompletion has not fired yet still sit
// in placed; they are skipped.
func (g *Scheduler) applySlice(ctl *sim.Controller) {
	g.jids = g.jids[:0]
	for jid := range g.placed {
		if ctl.JobState(jid) == sim.Running {
			g.jids = append(g.jids, jid)
		}
	}
	slices.Sort(g.jids)
	g.yields = g.yields[:0]
	for _, jid := range g.jids {
		y := 0.0
		if len(g.rows) > 0 && g.placed[jid] == g.current {
			y = 1
		}
		g.yields = append(g.yields, y)
	}
	sched.ApplyYieldsList(ctl, g.jids, g.yields)
}
