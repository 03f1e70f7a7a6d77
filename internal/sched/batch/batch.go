// Package batch implements the paper's two baseline batch-scheduling
// algorithms (Section IV-B): FCFS, which starts queued jobs strictly in
// submission order as whole nodes free up, and EASY backfilling, which
// additionally lets later jobs jump ahead when doing so does not delay the
// reservation of the queue's head job. As in the paper, EASY is granted
// perfect knowledge of job execution times, while the DFRS algorithms get
// none.
//
// Batch allocations are integral and exclusive: each task receives a whole
// node and the job runs with yield 1.0 from start to finish; batch
// schedulers never preempt or migrate. On a heterogeneous cluster a node is
// eligible for a job only if its capacities cover the per-task CPU need and
// memory requirement at full speed; on the paper's homogeneous platform
// every node is eligible for every valid job, reproducing the published
// algorithms exactly.
package batch

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sim/index"
	"repro/internal/workload"
)

func init() {
	sched.Register("fcfs", func() sim.Scheduler { return &FCFS{} })
	sched.Register("easy", func() sim.Scheduler { return &EASY{} })
}

// nodePool tracks which nodes are exclusively held by batch jobs and which
// of them can host a given job's tasks at yield 1.0. Nodes are grouped
// into capacity classes (identical capacity vectors): eligibility depends
// only on a node's capacities, so it is evaluated once per class — the
// eligible-free count is one fits check per class against a running
// per-class free count, O(classes) instead of O(free nodes) per query,
// with one or two classes on the paper's platforms. The objective selects
// which eligible free nodes a job takes (see takeFor); the run's default
// is placement.First, the published node-id order.
type nodePool struct {
	cl   *cluster.Cluster
	free []int // sorted free node ids
	obj  placement.Objective

	classOf   []int  // node -> capacity class
	reps      []int  // class -> lowest-numbered member node
	classFree []int  // class -> number of free nodes
	classFits []bool // scratch: class -> fits result for one job

	// takeFor scratch, reused across calls so taking nodes allocates only
	// the returned slice.
	eligible []int            // eligible free nodes, in id order
	taken    []bool           // node -> taken by the current call
	job      *workload.Job    // the job being placed, read by dem
	dem      placement.Demand // job.Demand, bound once per pool
}

// newNodePool builds the pool over cl with every node free. A nil obj
// means the run configured no objective: the pool takes nodes under
// placement.First, the published rule.
func newNodePool(cl *cluster.Cluster, obj placement.Objective) *nodePool {
	if obj == nil {
		obj = placement.First{}
	}
	n := cl.N()
	p := &nodePool{
		cl:       cl,
		free:     make([]int, n),
		obj:      obj,
		eligible: make([]int, 0, n),
		taken:    make([]bool, n),
	}
	p.dem = func(k int) float64 { return p.job.Demand(k) }
	for i := range p.free {
		p.free[i] = i
	}
	p.classOf, p.reps = index.Classes(cl.Nodes)
	p.classFree = make([]int, len(p.reps))
	p.classFits = make([]bool, len(p.reps))
	for _, node := range p.free {
		p.classFree[p.classOf[node]]++
	}
	return p
}

// poolState adapts the pool to placement.State. Batch allocations are
// integral and exclusive, so every candidate (free) node is fully idle:
// free capacity is the node's own capacity and the CPU load is zero.
type poolState struct{ p *nodePool }

// Dims implements placement.State.
func (s poolState) Dims() int { return s.p.cl.D() }

// Cap implements placement.State.
func (s poolState) Cap(node, k int) float64 { return s.p.cl.Cap(node, k) }

// Free implements placement.State.
func (s poolState) Free(node, k int) float64 { return s.p.cl.Cap(node, k) }

// CPULoad implements placement.State.
func (s poolState) CPULoad(int) float64 { return 0 }

// Cost implements placement.State.
func (s poolState) Cost(node int) float64 { return s.p.cl.Nodes[node].Cost }

// nodeFits reports whether a node can exclusively host one task of the job
// at full speed: its capacity covers the per-task demand in every resource
// dimension (a job demanding a dimension the cluster lacks fits nowhere).
func nodeFits(cl *cluster.Cluster, node int, j *workload.Job) bool {
	caps := cl.Nodes[node].Caps
	if caps[cluster.DimCPU] < j.CPUNeed || caps[cluster.DimMem] < j.MemReq {
		return false
	}
	return nodeFitsExtra(cl, node, j)
}

// nodeFitsExtra checks only the dimensions beyond the (cpu, mem) pair —
// the node's extra capacities and any job demand past the cluster's
// dimensions.
func nodeFitsExtra(cl *cluster.Cluster, node int, j *workload.Job) bool {
	caps := cl.Nodes[node].Caps
	for k := cluster.MinDims; k < len(caps); k++ {
		if caps[k] < j.Demand(k) {
			return false
		}
	}
	for k := len(caps); k < j.Dims(); k++ {
		if j.Demand(k) > 0 {
			return false
		}
	}
	return true
}

// fits reports whether a node can exclusively host one task of the job.
func (p *nodePool) fits(node int, j *workload.Job) bool { return nodeFits(p.cl, node, j) }

// wholeNodeAdmission implements sim.CapacityChecker for the batch family:
// allocations are integral and exclusive, so a job is only ever served
// when at least Tasks distinct nodes are eligible for it. On platforms
// where eligibility is partial — a GPU job on a cluster where only some
// nodes carry GPUs — a job with more tasks than eligible nodes would
// otherwise block the FIFO queue forever; the simulator rejects such
// (scheduler, trace, cluster) combinations eagerly instead.
type wholeNodeAdmission struct{}

// CheckJob implements sim.CapacityChecker.
func (wholeNodeAdmission) CheckJob(cl *cluster.Cluster, j workload.Job) error {
	eligible := 0
	for node := 0; node < cl.N(); node++ {
		if nodeFits(cl, node, &j) {
			eligible++
			if eligible >= j.Tasks {
				return nil
			}
		}
	}
	return fmt.Errorf("batch: job %d needs %d exclusive nodes but only %d of %d nodes can host its tasks",
		j.ID, j.Tasks, eligible, cl.N())
}

// freeCount counts all free nodes regardless of eligibility (used by the
// conservative planner's availability profile, which is exact on a
// homogeneous cluster and advisory on a heterogeneous one).
func (p *nodePool) freeCount() int { return len(p.free) }

// fitsFor evaluates the eligibility predicate once per capacity class into
// the classFits scratch. fits depends only on a node's capacities, so the
// representative's answer holds for every member of its class.
func (p *nodePool) fitsFor(j *workload.Job) []bool {
	for c, rep := range p.reps {
		p.classFits[c] = p.fits(rep, j)
	}
	return p.classFits
}

// freeFor counts the free nodes eligible for the job: the sum of the
// per-class free counts over eligible classes.
func (p *nodePool) freeFor(j *workload.Job) int {
	n := 0
	for c, rep := range p.reps {
		if p.classFree[c] > 0 && p.fits(rep, j) {
			n += p.classFree[c]
		}
	}
	return n
}

// takeFor removes and returns k free nodes eligible for the job: the k
// best under the pool's objective by placement.Rank (ties by id), which
// under the default First objective are the first k in node-id order. The
// caller must have checked freeFor(j) >= k.
func (p *nodePool) takeFor(j *workload.Job, k int) []int {
	fits := p.fitsFor(j)
	p.eligible = p.eligible[:0]
	for _, node := range p.free {
		if fits[p.classOf[node]] {
			p.eligible = append(p.eligible, node)
		}
	}
	p.job = j
	ranked := placement.Rank(p.eligible, p.dem, poolState{p}, p.obj)
	p.job = nil
	nodes := append(make([]int, 0, k), ranked[:k]...)
	for _, node := range nodes {
		p.taken[node] = true
		p.classFree[p.classOf[node]]--
	}
	kept := p.free[:0]
	for _, node := range p.free {
		if p.taken[node] {
			p.taken[node] = false
			continue
		}
		kept = append(kept, node)
	}
	p.free = kept
	return nodes
}

// give returns nodes to the pool, keeping it sorted for determinism.
func (p *nodePool) give(nodes []int) {
	p.free = append(p.free, nodes...)
	sort.Ints(p.free)
	for _, node := range nodes {
		p.classFree[p.classOf[node]]++
	}
}

// FCFS is the First-Come-First-Serve baseline: a strict FIFO queue with no
// backfilling. The head of the queue blocks all later jobs until enough
// nodes are free.
type FCFS struct {
	wholeNodeAdmission
	pool    *nodePool
	queue   []int
	holding map[int][]int // jid -> nodes held (the simulator clears a job's
	// node list on completion, so batch schedulers do their own bookkeeping)
}

// Name implements sim.Scheduler.
func (f *FCFS) Name() string { return "fcfs" }

// Init implements sim.Scheduler.
func (f *FCFS) Init(ctl *sim.Controller) {
	f.pool = newNodePool(ctl.Cluster(), ctl.Objective())
	f.queue = nil
	f.holding = map[int][]int{}
}

// OnArrival implements sim.Scheduler.
func (f *FCFS) OnArrival(ctl *sim.Controller, jid int) {
	f.queue = append(f.queue, jid)
	f.dispatch(ctl)
}

// OnCompletion implements sim.Scheduler.
func (f *FCFS) OnCompletion(ctl *sim.Controller, jid int) {
	f.pool.give(f.holding[jid])
	delete(f.holding, jid)
	f.dispatch(ctl)
}

// OnTimer implements sim.Scheduler; FCFS arms no timers.
func (f *FCFS) OnTimer(*sim.Controller, int64) {}

func (f *FCFS) dispatch(ctl *sim.Controller) {
	for len(f.queue) > 0 {
		jid := f.queue[0]
		head := ctl.JobRef(jid)
		if head.Tasks > f.pool.freeFor(head) {
			return
		}
		nodes := f.pool.takeFor(head, head.Tasks)
		ctl.Start(jid, nodes)
		ctl.SetYield(jid, 1)
		f.holding[jid] = nodes
		f.queue = f.queue[1:]
	}
}

// EASY is the EASY-backfilling baseline: FCFS plus backfilling of later
// queued jobs whenever they cannot delay the earliest-possible start of the
// queue's head job, computed from perfect execution-time estimates.
type EASY struct {
	wholeNodeAdmission
	pool    *nodePool
	queue   []int
	holding map[int][]int

	runBuf []int     // scratch: running jobs, reused across reservations
	rel    []release // scratch: pending releases, reused across reservations
}

// release is one running job's contribution to a reservation: at time t
// it frees tasks nodes (for EASY, the head-eligible ones; for
// Conservative, all of them).
type release struct {
	t     float64
	tasks int
}

// Name implements sim.Scheduler.
func (e *EASY) Name() string { return "easy" }

// Init implements sim.Scheduler.
func (e *EASY) Init(ctl *sim.Controller) {
	e.pool = newNodePool(ctl.Cluster(), ctl.Objective())
	e.queue = nil
	e.holding = map[int][]int{}
}

// OnArrival implements sim.Scheduler.
func (e *EASY) OnArrival(ctl *sim.Controller, jid int) {
	e.queue = append(e.queue, jid)
	e.dispatch(ctl)
}

// OnCompletion implements sim.Scheduler.
func (e *EASY) OnCompletion(ctl *sim.Controller, jid int) {
	e.pool.give(e.holding[jid])
	delete(e.holding, jid)
	e.dispatch(ctl)
}

// OnTimer implements sim.Scheduler; EASY arms no timers.
func (e *EASY) OnTimer(*sim.Controller, int64) {}

func (e *EASY) start(ctl *sim.Controller, jid int) {
	j := ctl.JobRef(jid)
	nodes := e.pool.takeFor(j, j.Tasks)
	ctl.Start(jid, nodes)
	ctl.SetYield(jid, 1)
	e.holding[jid] = nodes
}

func (e *EASY) dispatch(ctl *sim.Controller) {
	// Start jobs in FIFO order while they fit.
	for len(e.queue) > 0 {
		j := ctl.JobRef(e.queue[0])
		if j.Tasks > e.pool.freeFor(j) {
			break
		}
		e.start(ctl, e.queue[0])
		e.queue = e.queue[1:]
	}
	if len(e.queue) == 0 {
		return
	}
	// The head cannot start: give it a reservation at the earliest time
	// enough eligible nodes will be free, then backfill later jobs that do
	// not interfere with that reservation.
	for i := 1; i < len(e.queue); {
		jid := e.queue[i]
		j := ctl.JobRef(jid)
		if j.Tasks > e.pool.freeFor(j) {
			i++
			continue
		}
		shadow, extra := e.reservation(ctl)
		finish := ctl.Now() + j.ExecTime
		if finish <= shadow || j.Tasks <= extra {
			e.start(ctl, jid)
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			// A started job changes the free pool (and possibly the
			// reservation); rescan from the front of the backfill
			// candidates.
			i = 1
			continue
		}
		i++
	}
}

// reservation computes, with perfect estimates, the shadow time at which
// the head job can start (when cumulative releases of head-eligible nodes
// plus currently free head-eligible nodes first cover its size) and the
// number of extra nodes: head-eligible nodes free at the shadow time beyond
// what the head job needs. A backfill job that finishes before the shadow
// time, or that is small enough to fit in the extra nodes, cannot delay the
// head. On a homogeneous cluster every node is head-eligible and this is
// exactly classical EASY backfilling.
func (e *EASY) reservation(ctl *sim.Controller) (shadow float64, extra int) {
	head := ctl.JobRef(e.queue[0])
	need := head.Tasks
	avail := e.pool.freeFor(head)
	if avail >= need {
		return ctl.Now(), avail - need
	}
	// Head eligibility depends only on node capacities: resolve it once per
	// capacity class, then count each running job's held nodes by class.
	classFits := e.pool.fitsFor(head)
	classOf := e.pool.classOf
	rel := e.rel[:0]
	e.runBuf = ctl.AppendJobsInState(e.runBuf[:0], sim.Running)
	for _, jid := range e.runBuf {
		eligible := 0
		for _, node := range e.holding[jid] {
			if classFits[classOf[node]] {
				eligible++
			}
		}
		if eligible > 0 {
			rel = append(rel, release{t: ctl.EarliestFinish(jid), tasks: eligible})
		}
	}
	e.rel = rel
	sort.Slice(rel, func(a, b int) bool { return rel[a].t < rel[b].t })
	for _, r := range rel {
		avail += r.tasks
		if avail >= need {
			return r.t, avail - need
		}
	}
	// Unreachable for valid traces (job size <= cluster size), but keep a
	// safe fallback: no backfilling allowed.
	return ctl.Now(), 0
}
