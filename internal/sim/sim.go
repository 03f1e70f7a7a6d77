// Package sim implements the discrete-event cluster simulator of
// Section IV-A: a cluster whose nodes can be fractionally time-shared among
// VM-hosted tasks, with hard per-node memory constraints, per-node CPU and
// memory capacities (internal/cluster; the paper's homogeneous 1.0 x 1.0
// platform is the default), pause/resume/migration of jobs, a configurable
// rescheduling penalty that the scheduling algorithms are unaware of, and
// the bandwidth/occurrence accounting behind Table II.
//
// The simulator advances job progress in virtual time: a job with yield y
// accumulates y seconds of virtual time per wall-clock second and completes
// when its accumulated virtual time reaches its dedicated execution time.
// A job hit by a preemption or migration is frozen (makes no progress) for
// the rescheduling penalty while already occupying its destination nodes,
// which is the paper's pessimistic pause/resume model of migration.
//
// The engine is indexed for scale. The event calendar (internal/eventq) is
// a binary heap of timers held as values, beside one armed slot for the
// single tentative completion, which every event re-arms with a fresh
// sequence number; processing an event allocates nothing. Job listings
// (pending/running/paused) and the jobs-in-system count are
// maintained incrementally on state transitions, never recomputed by
// scanning the trace. Per-node (relative load, free memory) state lives in
// a tournament-tree index (internal/sim/index) kept current by every
// occupy/release, so Controller.MaxCPULoad is an O(1) read and
// feasibility-pruned least-loaded-node queries are O(log n) — each
// reproducing the historical O(nodes) scans bit for bit.
//
// The event loop is a step API: Start admits the jobs of time 0 and runs
// the scheduler's Init hook, HasPendingEvents/PeekNextEventTime inspect
// the calendar and the next arrival, ProcessNextEvent advances
// the clock by exactly one event, and Finalize produces the Result. Run is
// precisely a loop over ProcessNextEvent, so callers can single-step a
// simulation, interleave several simulators under one external clock, or
// stop between any two events at no cost to the batch path.
//
// # Admission
//
// Every run admits jobs the same way: from a workload.JobSource, pulled
// lazily one look-ahead job at a time. An in-memory trace is replayed
// through workload.NewSliceSource after New has validated it and checked
// every job's schedulability up front, so construction errors stay eager;
// Config.Source streams jobs from elsewhere (a trace file, a generator)
// and runs the same checks per job as it is admitted. A job is admitted —
// validated, given the next jid and handed to the scheduler — only when
// the clock reaches its submission time, and arrivals outrank coincident
// queue events; jids therefore follow submission order. The runtime
// record of a completed job is recycled through a free list once its
// completion hooks have run, so completed jids are forgotten. Config.JobSink
// routes each finished job's JobResult to a callback instead of
// accumulating Result.Jobs; with a streamed source and a sink the live set
// is bounded by jobs concurrently in the system, not by trace length,
// which is what lets a million-job trace run in a few megabytes.
package sim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/eventq"
	"repro/internal/floats"
	"repro/internal/placement"
	"repro/internal/sim/index"
	"repro/internal/workload"
)

// capTol is the tolerance on node capacity sums; exceeding it indicates a
// scheduler bug and panics, because no correct DFRS algorithm may
// oversubscribe memory or allocated CPU.
const capTol = 1e-6

// JobState is the lifecycle state of a job inside the simulator.
type JobState int

const (
	// Pending jobs have been submitted and hold no resources.
	Pending JobState = iota
	// Running jobs hold nodes and progress at their yield (unless frozen).
	Running
	// Paused jobs were preempted and hold no resources.
	Paused
	// Done jobs have completed.
	Done
)

// String returns the lowercase state name.
func (s JobState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Paused:
		return "paused"
	case Done:
		return "done"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// CapacityChecker is an optional interface a Scheduler may implement to
// veto jobs it can structurally never run. The generic eager check of New
// only rejects jobs no scheduler could place (a per-task demand exceeding
// every node); schedulers with stronger allocation rules — batch baselines
// allocate whole nodes exclusively, so a job eligible on fewer nodes than
// its task count starves forever — report those jobs here and New fails
// eagerly with a descriptive error instead of deadlocking mid-run.
type CapacityChecker interface {
	// CheckJob returns a non-nil error if the scheduler can never finish
	// the job on the given cluster.
	CheckJob(cl *cluster.Cluster, j workload.Job) error
}

// Scheduler is the algorithm under test. The simulator invokes exactly one
// hook per event, after advancing job progress to the event time; the hook
// inspects and mutates cluster state through the Controller.
type Scheduler interface {
	// Name identifies the algorithm in results and reports.
	Name() string
	// Init runs once before the first event (e.g. to arm periodic timers).
	Init(ctl *Controller)
	// OnArrival runs when job jid is submitted.
	OnArrival(ctl *Controller, jid int)
	// OnCompletion runs after job jid has completed and released its nodes.
	OnCompletion(ctl *Controller, jid int)
	// OnTimer runs when a timer armed with SetTimer fires.
	OnTimer(ctl *Controller, tag int64)
}

// JobInfo is a read-only snapshot of one job's simulation state.
type JobInfo struct {
	JID         int
	Job         workload.Job
	State       JobState
	Nodes       []int   // one node per task while Running, nil otherwise
	Yield       float64 // current yield while Running
	VirtualTime float64 // accumulated virtual seconds
	Remaining   float64 // virtual seconds left until completion
	FrozenUntil float64 // job makes no progress before this instant
	Attempts    int     // scheduler-maintained failed-attempt counter
	LastPause   float64 // time of the most recent pause, -1 if never paused
}

// FlowTime returns now minus the job's submission time.
func (ji JobInfo) FlowTime(now float64) float64 { return now - ji.Job.Submit }

type jobRT struct {
	job         workload.Job
	state       JobState
	nodes       []int
	yield       float64
	virtual     float64
	remaining   float64
	frozenUntil float64
	attempts    int

	costRate      float64 // sum of hosting nodes' cost rates (0 on unpriced clusters)
	start         float64 // first dispatch time (-1 until started)
	finish        float64
	pauses        int
	migrations    int
	lastPauseTime float64 // for same-event pause+resume reclassification
	lastPauseWas  bool
	prevPauseTime float64 // lastPauseTime before the most recent Pause, for undo
	lastNodes     []int
}

// JobResult records the outcome of one job.
type JobResult struct {
	Job        workload.Job
	Start      float64 // first dispatch time
	Finish     float64
	Turnaround float64 // Finish - Submit
	Pauses     int
	Migrations int
}

// Utilization returns the fraction of the cluster's CPU capacity that
// delivered useful work over the schedule's makespan, or 0 for an empty
// run. Lower makespans at equal work mean higher utilization — the paper's
// under-subscription discussion (Section II-B2) in one number. On a
// homogeneous cluster TotalCPUCap equals the node count, matching the
// paper's formula.
func (r *Result) Utilization() float64 {
	cap := r.TotalCPUCap
	if cap == 0 {
		cap = float64(r.Nodes)
	}
	if r.Makespan <= 0 || cap == 0 {
		return 0
	}
	return r.DeliveredCPUSeconds / (r.Makespan * cap)
}

// Result is the outcome of a full simulation run.
type Result struct {
	Algorithm string
	Trace     string
	Nodes     int
	// TotalCPUCap is the cluster's aggregate CPU capacity in reference-node
	// units (equal to Nodes for a homogeneous cluster).
	TotalCPUCap float64
	Penalty     float64
	Jobs        []JobResult
	Makespan    float64 // completion time of the last job

	PreemptionOps int
	MigrationOps  int
	PreemptionGB  float64 // data saved+restored due to preemptions
	MigrationGB   float64 // data moved due to migrations

	// DeliveredCPUSeconds is the total CPU work delivered across all
	// tasks (integral over time of need x yield, summed over tasks). The
	// paper's Section II-B2 motivates the average-yield heuristic with
	// platform utilization; Utilization() derives it from this.
	DeliveredCPUSeconds float64

	// NodeCostSeconds is the cost-weighted occupancy of the run: the
	// integral over time of the hosting node's cost rate
	// (cluster.NodeSpec.Cost), summed over every task placement — a node
	// hosting three tasks (of one job or of several) accrues its rate
	// three times, so the quantity decomposes per task and per job.
	// Occupancy counts from dispatch to pause or completion, including
	// frozen and yield-0 intervals — a suspended gang row still holds its
	// VM-resident footprint. Always 0 on unpriced clusters.
	NodeCostSeconds float64

	Timeline []TimelineEvent // empty unless Config.RecordTimeline
	Events   int             // number of simulation events processed
}

// Config configures one simulation run.
type Config struct {
	// Trace is the workload. With Source nil its job list is the whole
	// input, validated and capacity-checked by New; with Source set only
	// its metadata is used — Name, Nodes, NodeMemGB — and Trace.Jobs is
	// ignored.
	Trace *workload.Trace
	// Source, when non-nil, supplies the jobs instead of Trace.Jobs, in
	// nondecreasing submission order. Per-job admission checks
	// (validation, unschedulability, capacity) then run on admission, so a
	// bad job fails the run mid-stream instead of at construction. Either
	// way jobs are admitted as virtual time reaches their submission
	// instant and completed jobs are forgotten: scheduler hooks and
	// observers must not query a jid after its completion hook returned.
	Source workload.JobSource
	// JobSink, when non-nil, receives each completed job's JobResult as it
	// completes instead of accumulating it in Result.Jobs (which stays
	// empty). Aggregates (Makespan, DeliveredCPUSeconds, ...) are
	// unaffected. Required for bounded-memory million-job runs, where the
	// per-job result array would dominate the heap.
	JobSink func(JobResult)
	// Cluster describes per-node capacities. Nil means the paper's
	// homogeneous platform: Trace.Nodes reference nodes of capacity
	// 1.0 x 1.0. When set, its node count must equal Trace.Nodes.
	Cluster *cluster.Cluster
	// Penalty is the rescheduling penalty in seconds (0 or 300 in the
	// paper's experiments) applied to every resume and migration.
	Penalty float64
	// CheckInvariants enables full state validation after every event
	// (used by tests; expensive).
	CheckInvariants bool
	// RecordTimeline captures every per-job scheduling transition so the
	// run can be rendered as a Gantt chart (Result.Timeline,
	// Result.JobSegments). Scheduler hooks are not part of the timeline:
	// their wall-clock time is measured only with an Observer attached
	// and reaches it as SchedulerInvoked (the Section V timing study).
	RecordTimeline bool
	// MaxSimTime aborts runs whose simulated clock passes this value
	// (safety net against livelock; 0 disables).
	MaxSimTime float64
	// Observer, when non-nil, receives every scheduling transition as it
	// happens (see Observer). Nil costs nothing on the hot path.
	Observer Observer
	// Objective, when non-nil, overrides every scheduler family's node
	// selection rule with the given placement objective (internal/placement).
	// Nil keeps the paper's per-family defaults — greedy's relative-load
	// rule, the batch/gang first-eligible rule and the packing kernels'
	// index bin order — bit-for-bit.
	Objective placement.Objective
}

// UnschedulableError reports a job that can never run on the configured
// cluster: its per-task requirement for the binding resource exceeds the
// capacity of every node, so batch baselines would starve it forever and
// DFRS placements could never succeed. The simulator rejects such traces
// eagerly at construction instead of deadlocking at run time. A job
// demanding a resource dimension the cluster does not declare (e.g. a GPU
// job on a two-resource cluster) is unschedulable with MaxCap 0.
type UnschedulableError struct {
	// JobID is the trace job ID (workload.Job.ID).
	JobID int
	// Resource is the binding resource: "cpu", "memory", or the cluster's
	// name for a further dimension ("gpu", ...).
	Resource string
	// Need is the job's per-task requirement of the binding resource.
	Need float64
	// MaxCap is the largest per-node capacity of that resource in the
	// cluster.
	MaxCap float64
}

// Error implements error, naming the job and the binding resource.
func (e *UnschedulableError) Error() string {
	return fmt.Sprintf("sim: job %d is unschedulable: per-task %s requirement %g exceeds every node (max capacity %g)",
		e.JobID, e.Resource, e.Need, e.MaxCap)
}

// InsufficientCapacityError reports a job whose identical tasks cannot all
// be placed simultaneously even on an empty cluster: summing over nodes
// the number of tasks each can hold (the minimum over the rigid dimensions
// the job demands) falls short of the job's task count. Every scheduler
// places a job's tasks at one instant, so such a job can never run — e.g.
// a 16-task job demanding memory and GPU together when only four nodes
// carry GPUs. The simulator rejects such traces eagerly at construction.
type InsufficientCapacityError struct {
	// JobID is the trace job ID (workload.Job.ID).
	JobID int
	// Tasks is the job's task count.
	Tasks int
	// Slots is the number of simultaneous task placements the empty
	// cluster can hold for this job's demand vector.
	Slots int
}

// Error implements error.
func (e *InsufficientCapacityError) Error() string {
	return fmt.Sprintf("sim: job %d is unschedulable: %d simultaneous tasks but the empty cluster holds at most %d across its rigid resource dimensions",
		e.JobID, e.Tasks, e.Slots)
}

// Simulator executes one scheduling algorithm over one trace.
type Simulator struct {
	cfg   Config
	sched Scheduler
	obs   Observer

	now  float64
	jobs []*jobRT
	// queue holds the scheduler's timers, and in its armed slot the
	// earliest tentative completion across running jobs.
	queue eventq.Queue
	// stalled counts the consecutive timer and completion events processed
	// since the clock last moved (see LivelockError).
	stalled int
	ctl     Controller
	cl      *cluster.Cluster
	hasCost bool      // any node carries a non-zero cost rate
	usedCPU []float64 // sum over tasks of need*yield
	cpuLoad []float64 // sum over tasks of need (the paper's "CPU load")
	// usedRigid[r][node] is the allocated amount of rigid dimension r+1 on
	// node (usedRigid[0] is memory, further rows are GPU etc.). Rigid
	// resources are hard constraints: occupied on Start/Resume/Migrate,
	// released on Pause/completion, never scaled by yield.
	usedRigid [][]float64
	// freeRigid[r][node] is NonNeg(cap - usedRigid[r][node]), node's free
	// amount of rigid dimension r+1, rewritten wherever usedRigid changes
	// (occupyNodes, releaseNodes). Every free-capacity read (FreeRes,
	// FreeRows, FreeTaskSlots, the index leaves) comes from here.
	freeRigid [][]float64
	// nodeIdx mirrors per-node (relative CPU load, free memory) in a
	// tournament tree, so MaxCPULoad and the greedy least-loaded-feasible-
	// node query need no O(nodes) scans. It is synced lazily: an occupancy
	// change only marks the node dirty (idxDirty, listed once in
	// idxDirtyList), and syncIndex writes the dirty leaves when the tree is
	// read. Most schedulers never read it, so they never pay for it.
	nodeIdx      *index.NodeIndex
	idxDirty     []bool
	idxDirtyList []int
	idxSyncs     int // leaf writes done by syncIndex, for tests

	// Incremental job-state indexes: per-event work follows these instead
	// of scanning the full trace. Each list holds jids in ascending order;
	// state transitions maintain them in O(log jobs-in-state).
	running    []int // jobs in state Running
	paused     []int // jobs in state Paused
	visPending []int // Pending jobs whose submission time has been reached
	nextAct    int   // next jid to activate (jids follow submission order)
	finishBuf  []int // scratch: running snapshot for the completion sweep
	doneBuf    []int // scratch: jids completed by the current sweep

	// Admission: one-job lookahead into the source, the FIFO of admitted
	// jobs whose arrival hook has not fired yet, the free-list of recycled
	// runtime records, and the bookkeeping of the per-job admission checks
	// (maxCap, chk).
	src       workload.JobSource
	srcNext   *workload.Job
	srcJob    workload.Job // backing storage for srcNext
	srcDone   bool
	streamErr error
	arrFIFO   []int
	freeRT    []*jobRT
	// freeNodes recycles per-task node-assignment buffers (jobRT.nodes):
	// releaseNodes pushes the slice a job held, occupyNodes pops one. At
	// high jobs-in-system these buffers dominate the live heap, and on a
	// steady-state stream the pool makes node assignments allocation-free.
	freeNodes  [][]int
	lastSubmit float64
	maxCap     []float64
	chk        CapacityChecker

	started       bool
	remainingJobs int
	result        Result
}

// New creates a simulator for the given configuration and algorithm. An
// in-memory trace (Source nil) is validated and capacity-checked eagerly.
func New(cfg Config, sched Scheduler) (*Simulator, error) {
	if cfg.Trace == nil {
		return nil, fmt.Errorf("sim: nil trace")
	}
	if cfg.Source != nil {
		// The trace supplies metadata only; jobs are validated one by one
		// as they are admitted.
		if cfg.Trace.Nodes < 1 {
			return nil, fmt.Errorf("sim: trace has no nodes")
		}
	} else if err := cfg.Trace.Validate(); err != nil {
		return nil, err
	}
	if cfg.Penalty < 0 {
		return nil, fmt.Errorf("sim: negative penalty %g", cfg.Penalty)
	}
	s := &Simulator{cfg: cfg, sched: sched, obs: cfg.Observer}
	n := cfg.Trace.Nodes
	s.cl = cfg.Cluster
	if s.cl == nil {
		s.cl = cluster.Homogeneous(n)
	}
	if err := s.cl.Validate(); err != nil {
		return nil, err
	}
	if s.cl.N() != n {
		return nil, fmt.Errorf("sim: cluster has %d nodes but trace %q targets %d", s.cl.N(), cfg.Trace.Name, n)
	}
	// Eager unschedulability check: a job whose per-task requirement in
	// any dimension exceeds every node of the materialised cluster can
	// never be placed, so reject the trace up front instead of starving at
	// run time. A job demanding a dimension the cluster does not declare
	// faces capacity 0 everywhere and is likewise rejected.
	d := s.cl.D()
	s.maxCap = make([]float64, d)
	for node := 0; node < n; node++ {
		for k := 0; k < d; k++ {
			s.maxCap[k] = math.Max(s.maxCap[k], s.cl.Cap(node, k))
		}
	}
	s.chk, _ = sched.(CapacityChecker)
	s.src = cfg.Source
	if cfg.Source == nil {
		// An in-memory trace runs every admission check up front, then
		// replays through the same source path as a stream (where admit
		// runs the checks per job).
		for _, j := range cfg.Trace.Jobs {
			if err := s.checkSchedulable(j); err != nil {
				return nil, err
			}
		}
		s.src = workload.NewSliceSource(cfg.Trace)
	}
	s.hasCost = s.cl.Priced()
	s.usedCPU = make([]float64, n)
	s.cpuLoad = make([]float64, n)
	s.usedRigid = make([][]float64, d-1)
	s.freeRigid = make([][]float64, d-1)
	for r := range s.usedRigid {
		s.usedRigid[r] = make([]float64, n)
		s.freeRigid[r] = make([]float64, n)
		for node := range n {
			s.setFree(r, node)
		}
	}
	s.nodeIdx = index.NewNodeIndex(n, func(node int) float64 { return s.freeRigid[0][node] })
	s.idxDirty = make([]bool, n)
	s.ctl = Controller{sim: s}
	s.result = Result{
		Algorithm:   sched.Name(),
		Trace:       cfg.Trace.Name,
		Nodes:       n,
		TotalCPUCap: s.cl.TotalCPU(),
		Penalty:     cfg.Penalty,
	}
	return s, nil
}

// checkSchedulable rejects a job that can never run on the configured
// cluster. A job whose per-task requirement in any dimension exceeds every
// node can never be placed (a job demanding a dimension the cluster does
// not declare faces capacity 0 everywhere). A job's tasks are placed
// simultaneously, so a job whose identical tasks cannot fit even an empty
// cluster can never run under any scheduler: the empty cluster's slots,
// counted over the rigid dimensions with cluster.Slots, must reach the
// task count. On the paper's platform (unit nodes, demands
// in (0,1], tasks <= nodes) neither check fires; they bite on
// partially-equipped clusters (GPU mixes). Scheduler-specific admission
// (see CapacityChecker) runs last.
func (s *Simulator) checkSchedulable(j workload.Job) error {
	d := s.cl.D()
	dims := d
	if j.Dims() > dims {
		dims = j.Dims()
	}
	for k := 0; k < dims; k++ {
		capK := 0.0
		if k < d {
			capK = s.maxCap[k]
		}
		if !floats.LessEq(j.Demand(k), capK) {
			return &UnschedulableError{
				JobID: j.ID, Resource: resourceName(s.cl, k), Need: j.Demand(k), MaxCap: capK,
			}
		}
	}
	if slots := cluster.Slots(s.cl.N(), j.Tasks, cluster.DimMem, d, j.Demand, s.cl.Cap); slots < j.Tasks {
		return &InsufficientCapacityError{JobID: j.ID, Tasks: j.Tasks, Slots: slots}
	}
	if s.chk != nil {
		if err := s.chk.CheckJob(s.cl, j); err != nil {
			return fmt.Errorf("sim: %s cannot run trace %q: %w", s.sched.Name(), s.cfg.Trace.Name, err)
		}
	}
	return nil
}

// peekSource maintains the one-job lookahead into the source. After it
// returns, srcNext is non-nil unless the source is exhausted or failed
// (streamErr).
func (s *Simulator) peekSource() {
	if s.srcNext != nil || s.srcDone || s.streamErr != nil {
		return
	}
	j, ok, err := s.src.Next()
	if err != nil {
		s.streamErr = fmt.Errorf("sim: streaming trace %q: %w", s.cfg.Trace.Name, err)
		s.srcDone = true
		return
	}
	if !ok {
		s.srcDone = true
		return
	}
	s.srcJob = j
	s.srcNext = &s.srcJob
}

// admitThrough admits every source job submitted at or before t: validated,
// given the next jid, made visible to activation, and queued in the arrival
// FIFO for its OnArrival hook. The clock never passes an unadmitted
// submission (arrivals outrank other events at equal times), so admission
// order is submission order. Failures park in streamErr, surfaced by the
// next ProcessNextEvent.
func (s *Simulator) admitThrough(t float64) {
	for {
		s.peekSource()
		if s.streamErr != nil || s.srcNext == nil || s.srcNext.Submit > t {
			return
		}
		j := *s.srcNext
		s.srcNext = nil
		if err := s.admit(j); err != nil {
			s.streamErr = err
			return
		}
	}
}

// admit runs the per-job admission checks and creates the job's runtime
// record (recycled from the free list when one is available).
func (s *Simulator) admit(j workload.Job) error {
	if err := j.Validate(s.cl.N()); err != nil {
		return err
	}
	if len(s.jobs) > 0 && j.Submit < s.lastSubmit {
		return fmt.Errorf("workload: job %d submitted before its predecessor", j.ID)
	}
	if err := s.checkSchedulable(j); err != nil {
		return err
	}
	s.lastSubmit = j.Submit
	jid := len(s.jobs)
	rt := s.newRT()
	rt.job = j
	rt.remaining = j.ExecTime
	s.jobs = append(s.jobs, rt)
	s.remainingJobs++
	// The source contract (nondecreasing submits) makes jid order the
	// (Submit, jid) order, so the arrival FIFO extends by plain append.
	s.arrFIFO = append(s.arrFIFO, jid)
	return nil
}

// newRT returns a zeroed runtime record, reusing one from the free list
// when completions have recycled any.
func (s *Simulator) newRT() *jobRT {
	var rt *jobRT
	if n := len(s.freeRT); n > 0 {
		rt, s.freeRT = s.freeRT[n-1], s.freeRT[:n-1]
		// Keep the lastNodes buffer across the reset: Pause refills it
		// in place, so one buffer per concurrent job suffices forever.
		last := rt.lastNodes
		*rt = jobRT{}
		rt.lastNodes = last[:0]
	} else {
		rt = &jobRT{}
	}
	rt.state = Pending
	rt.start = -1
	rt.lastPauseTime = -1
	rt.prevPauseTime = -1
	return rt
}

// nextArrival returns the jid and submission time of the earliest admitted
// arrival whose hook has not fired, admitting the lookahead job first when
// the FIFO is empty. ok is false when no arrival is pending.
func (s *Simulator) nextArrival() (jid int, at float64, ok bool) {
	if len(s.arrFIFO) == 0 {
		s.peekSource()
		if s.srcNext == nil {
			return 0, 0, false
		}
		s.admitThrough(s.srcNext.Submit)
		if len(s.arrFIFO) == 0 {
			return 0, 0, false
		}
	}
	jid = s.arrFIFO[0]
	return jid, s.jobs[jid].job.Submit, true
}

// popArrival removes the FIFO head.
func (s *Simulator) popArrival() {
	copy(s.arrFIFO, s.arrFIFO[1:])
	s.arrFIFO = s.arrFIFO[:len(s.arrFIFO)-1]
}

// recycleDone returns the runtime records of the jobs completed by the
// current event to the free list (the completion hooks for all of them
// have already run). The jid keeps pointing at a nil
// entry, so any later query of a completed job fails loudly instead of
// reading recycled state.
func (s *Simulator) recycleDone(done []int) {
	for _, jid := range done {
		rt := s.jobs[jid]
		s.jobs[jid] = nil
		s.freeRT = append(s.freeRT, rt)
	}
}

// Run executes the simulation to completion and returns the result. A
// simulation fails if the event queue drains while jobs remain (scheduler
// livelock) or the simulated clock exceeds MaxSimTime.
func (s *Simulator) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the context is checked
// between simulation events, so a cancelled or deadline-exceeded context
// stops the run at event granularity with an error wrapping ctx.Err(). A
// context that can never be cancelled adds a single nil comparison per
// event to the hot path.
func (s *Simulator) RunContext(ctx context.Context) (*Result, error) {
	done := ctx.Done()
	s.Start()
	for s.HasPendingJobs() {
		if done != nil {
			select {
			case <-done:
				return nil, fmt.Errorf("sim: %s stopped at t=%.1f with %d jobs unfinished: %w",
					s.sched.Name(), s.now, s.remainingJobs, ctx.Err())
			default:
			}
		}
		if err := s.ProcessNextEvent(); err != nil {
			return nil, err
		}
	}
	return s.Finalize(), nil
}

// Start admits the jobs submitted at time 0 and runs the scheduler's Init
// hook. It is idempotent; ProcessNextEvent calls it implicitly, so
// explicit use is only needed by step-driven callers that want to inspect
// state before the first event.
func (s *Simulator) Start() {
	if s.started {
		return
	}
	s.started = true
	s.activateUpTo(s.now)
	s.invoke("init", func() { s.sched.Init(&s.ctl) })
}

// HasPendingJobs reports whether any job has yet to complete — including
// jobs the source has not produced yet. Run processes events until this
// turns false.
func (s *Simulator) HasPendingJobs() bool {
	if s.remainingJobs > 0 {
		return true
	}
	s.peekSource()
	return s.srcNext != nil || s.streamErr != nil
}

// HasPendingEvents reports whether the event queue holds at least one
// armed event or a not-yet-fired arrival. Timer events may outlive the
// last job, so this can stay true after HasPendingJobs turns false; Run
// stops at job completion.
func (s *Simulator) HasPendingEvents() bool {
	s.Start()
	if s.queue.Len() > 0 || len(s.arrFIFO) > 0 {
		return true
	}
	s.peekSource()
	return s.srcNext != nil
}

// PeekNextEventTime returns the timestamp of the next armed event or
// arrival without processing it. ok is false when there is none.
func (s *Simulator) PeekNextEventTime() (t float64, ok bool) {
	s.Start()
	ev, okE := s.queue.Peek()
	at, okA := 0.0, false
	if len(s.arrFIFO) > 0 {
		at, okA = s.jobs[s.arrFIFO[0]].job.Submit, true
	} else if s.peekSource(); s.srcNext != nil {
		at, okA = s.srcNext.Submit, true
	}
	if okA && (!okE || at <= ev.Time) {
		return at, true
	}
	return ev.Time, okE
}

// ProcessNextEvent pops the next event, advances the clock and job progress
// to its timestamp, dispatches the scheduler hook it implies, and re-arms
// the tentative completion event. It returns an error on scheduler deadlock
// (empty queue with jobs unfinished), on a time-ordering violation, on
// livelock at one instant (a *LivelockError), or when the clock passes
// Config.MaxSimTime. Run is exactly a loop over this.
func (s *Simulator) ProcessNextEvent() error {
	s.Start()
	if s.streamErr != nil {
		return s.streamErr
	}
	if jid, at, ok := s.nextArrival(); ok {
		// Arrivals outrank coincident completions and timers.
		if ev, ok := s.queue.Peek(); !ok || at <= ev.Time {
			s.popArrival()
			s.advance(at)
			s.result.Events++
			s.emit(Event{Kind: EvSubmitted, JID: jid})
			s.invoke("arrival", func() { s.sched.OnArrival(&s.ctl, jid) })
			return s.finishEvent()
		}
	} else if s.streamErr != nil {
		return s.streamErr
	}
	ev, completion, ok := s.queue.Pop()
	if !ok {
		return fmt.Errorf("sim: %s deadlocked at t=%.1f with %d jobs unfinished",
			s.sched.Name(), s.now, s.remainingJobs)
	}
	if ev.Time < s.now-floats.Eps {
		return fmt.Errorf("sim: event time %.6f precedes clock %.6f", ev.Time, s.now)
	}
	if ev.Time <= s.now {
		if s.stalled++; s.stalled > MaxEventsPerInstant {
			return &LivelockError{Algorithm: s.sched.Name(), Time: s.now, Events: s.stalled}
		}
	}
	s.advance(ev.Time)
	s.result.Events++
	if completion {
		done := s.finishDue()
		for _, jid := range done {
			s.invoke("completion", func() { s.sched.OnCompletion(&s.ctl, jid) })
		}
		s.recycleDone(done)
	} else {
		s.invoke("timer", func() { s.sched.OnTimer(&s.ctl, ev.Tag) })
	}
	return s.finishEvent()
}

// MaxEventsPerInstant is how many consecutive timer and completion events
// a run may process without its clock moving before ProcessNextEvent
// reports a LivelockError. It is far above what any scheduler needs at one
// instant: a completion event finishes every job due at once, so only a
// scheduler that keeps re-arming work at the current time gets near it.
const MaxEventsPerInstant = 1 << 20

// LivelockError reports a run whose clock stopped: more than
// MaxEventsPerInstant consecutive timer and completion events at one
// simulated instant. Config.MaxSimTime cannot catch this, because the clock
// never reaches it — for example a scheduler re-arming a timer at the
// current time forever. Arrivals are finite and do not count.
type LivelockError struct {
	// Algorithm is the scheduler's name.
	Algorithm string
	// Time is the simulated instant the clock stopped at.
	Time float64
	// Events is the number of consecutive events processed at Time.
	Events int
}

// Error implements error.
func (e *LivelockError) Error() string {
	return fmt.Sprintf("sim: %s livelocked at t=%.1f: %d consecutive events without the clock moving",
		e.Algorithm, e.Time, e.Events)
}

// finishEvent is the shared tail of every processed event: re-arm the
// tentative completion, run the optional invariant sweep, and enforce the
// simulated-time ceiling.
func (s *Simulator) finishEvent() error {
	s.rescheduleCompletion()
	if s.cfg.CheckInvariants {
		if err := s.validate(); err != nil {
			return err
		}
	}
	if s.cfg.MaxSimTime > 0 && s.now > s.cfg.MaxSimTime {
		return fmt.Errorf("sim: %s exceeded max simulated time %.0f with %d jobs unfinished",
			s.sched.Name(), s.cfg.MaxSimTime, s.remainingJobs)
	}
	return nil
}

// Finalize sorts the per-job results by job ID and returns the accumulated
// Result. Step-driven callers invoke it once HasPendingJobs turns false;
// calling it earlier returns the partial result accumulated so far.
func (s *Simulator) Finalize() *Result {
	sort.Slice(s.result.Jobs, func(a, b int) bool { return s.result.Jobs[a].Job.ID < s.result.Jobs[b].Job.ID })
	return &s.result
}

// invoke runs one scheduler hook, timing it only when an observer is
// attached to receive the SchedulerInvoked report.
func (s *Simulator) invoke(hook string, fn func()) {
	if s.obs == nil {
		fn()
		return
	}
	inSystem := s.JobsInSystem()
	t0 := time.Now()
	fn()
	s.emit(Event{Kind: EvSchedulerInvoked, Hook: hook, JobsInSystem: inSystem, Elapsed: time.Since(t0)})
}

// advance moves the clock to t, accruing virtual time for running jobs and,
// on priced clusters, cost-weighted occupancy for every job holding nodes
// (frozen and yield-0 intervals included — the nodes stay occupied).
func (s *Simulator) advance(t float64) {
	if t <= s.now {
		s.now = math.Max(s.now, t)
		return
	}
	s.stalled = 0
	for _, jid := range s.running {
		j := s.jobs[jid]
		if s.hasCost {
			s.result.NodeCostSeconds += j.costRate * (t - s.now)
		}
		if j.yield <= 0 {
			continue
		}
		from := math.Max(s.now, j.frozenUntil)
		if from >= t {
			continue
		}
		progress := (t - from) * j.yield
		j.virtual += progress
		j.remaining = floats.NonNeg(j.remaining - progress)
		s.result.DeliveredCPUSeconds += progress * j.job.CPUNeed * float64(j.job.Tasks)
	}
	s.now = t
	s.activateUpTo(t)
}

// activateUpTo makes every still-pending job submitted at or before t
// visible to the scheduler-facing job listings. It first admits every
// source job submitted by t; the clock never passes an unadmitted
// submission (arrivals outrank coincident events), so no job is skipped.
// Jids follow submission order, so the sweep resumes where the previous
// one stopped and each job is considered exactly once across the whole
// run. A job cannot complete before it is activated, so the records the
// sweep reads are never recycled ones.
func (s *Simulator) activateUpTo(t float64) {
	s.admitThrough(t)
	for s.nextAct < len(s.jobs) {
		j := s.jobs[s.nextAct]
		if j.job.Submit > t {
			return
		}
		if j.state == Pending {
			s.visPending = insertJid(s.visPending, s.nextAct)
		}
		s.nextAct++
	}
}

// finishDue completes every running job whose remaining virtual time has
// reached zero and whose freeze has expired, releasing its resources, and
// returns their jids. The
// returned slice is scratch storage reused by the next sweep; callers must
// not retain it across events.
func (s *Simulator) finishDue() []int {
	// Snapshot the running set: completions mutate s.running in place.
	s.finishBuf = append(s.finishBuf[:0], s.running...)
	s.doneBuf = s.doneBuf[:0]
	for _, jid := range s.finishBuf {
		j := s.jobs[jid]
		if j.state != Running {
			continue
		}
		if j.remaining > floats.Eps {
			// A remainder below the clock's float resolution can never be
			// accrued: the tentative completion time from+remaining/yield
			// rounds to now itself, the completion event fires without
			// advancing the clock, and rescheduling would rearm it at the
			// same instant forever. Such a job is done at clock precision.
			if j.yield <= 0 || math.Max(s.now, j.frozenUntil)+j.remaining/j.yield > s.now {
				continue
			}
		}
		// A frozen job still pays its rescheduling penalty even with no
		// virtual time left (it was preempted or migrated at the brink of
		// completion): it may not finish before frozenUntil.
		if s.now < j.frozenUntil-floats.Eps {
			continue
		}
		s.releaseNodes(j)
		j.state = Done
		j.finish = s.now
		j.yield = 0
		s.running = removeJid(s.running, jid)
		s.remainingJobs--
		jr := JobResult{
			Job:        j.job,
			Start:      j.start,
			Finish:     j.finish,
			Turnaround: j.finish - j.job.Submit,
			Pauses:     j.pauses,
			Migrations: j.migrations,
		}
		if s.cfg.JobSink != nil {
			s.cfg.JobSink(jr)
		} else {
			s.result.Jobs = append(s.result.Jobs, jr)
		}
		if j.finish > s.result.Makespan {
			s.result.Makespan = j.finish
		}
		s.emit(Event{Kind: EvCompleted, JID: jid, Turnaround: j.finish - j.job.Submit})
		s.doneBuf = append(s.doneBuf, jid)
	}
	return s.doneBuf
}

// rescheduleCompletion computes the earliest tentative completion across
// running jobs and re-arms the calendar's armed slot with it (a fresh
// sequence number every time, so ties break by re-arm order), or disarms
// the slot when no running job progresses.
func (s *Simulator) rescheduleCompletion() {
	earliest := math.Inf(1)
	for _, jid := range s.running {
		j := s.jobs[jid]
		if j.yield <= 0 {
			continue
		}
		from := math.Max(s.now, j.frozenUntil)
		t := from + j.remaining/j.yield
		if t < earliest {
			earliest = t
		}
	}
	if math.IsInf(earliest, 1) {
		s.queue.Disarm()
	} else {
		s.queue.Arm(earliest)
	}
}

// resourceName names dimension k for error reporting, keeping the
// historical "cpu"/"memory" names for the paper's pair.
func resourceName(cl *cluster.Cluster, k int) string {
	switch k {
	case cluster.DimCPU:
		return "cpu"
	case cluster.DimMem:
		return "memory"
	}
	return cl.DimName(k)
}

// allocNodes returns a length-n buffer for a job's node assignment,
// reusing the most recently recycled one when it is large enough (an
// undersized buffer is simply dropped; task counts are similar across
// jobs, so churn stays marginal).
func (s *Simulator) allocNodes(n int) []int {
	if l := len(s.freeNodes); l > 0 {
		buf := s.freeNodes[l-1]
		s.freeNodes[l-1] = nil
		s.freeNodes = s.freeNodes[:l-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]int, n)
}

func (s *Simulator) occupyNodes(j *jobRT, nodes []int) {
	buf := s.allocNodes(len(nodes))
	copy(buf, nodes)
	j.nodes = buf
	if s.hasCost {
		j.costRate = 0
		for _, node := range nodes {
			j.costRate += s.cl.Nodes[node].Cost
		}
	}
	for _, node := range nodes {
		s.refreshNode(node)
		s.cpuLoad[node] += j.job.CPUNeed
		for r := range s.usedRigid {
			dem := j.job.Demand(r + 1)
			if dem == 0 {
				continue
			}
			s.usedRigid[r][node] += dem
			if s.usedRigid[r][node] > s.cl.Cap(node, r+1)+capTol {
				panic(fmt.Sprintf("sim: %s oversubscribed %s on node %d (%.6f of %.6f) at t=%.1f",
					s.sched.Name(), resourceName(s.cl, r+1), node, s.usedRigid[r][node], s.cl.Cap(node, r+1), s.now))
			}
			s.setFree(r, node)
		}
	}
}

// refreshNode marks node's tournament-tree leaf stale after a change to its
// occupancy; syncIndex re-derives it when the tree is next read. A node is
// listed once however often it changes in between.
func (s *Simulator) refreshNode(node int) {
	if !s.idxDirty[node] {
		s.idxDirty[node] = true
		s.idxDirtyList = append(s.idxDirtyList, node)
	}
}

// setFree rederives node's free amount of rigid dimension r+1 from its
// usage: capacity minus usage, rounding residue snapped to zero.
func (s *Simulator) setFree(r, node int) {
	s.freeRigid[r][node] = floats.NonNeg(s.cl.Cap(node, r+1) - s.usedRigid[r][node])
}

// leafValues derives node's tournament-tree leaf from its live occupancy,
// using exactly the expressions of the historical per-node scans
// (Controller.MaxCPULoad, FreeMem).
func (s *Simulator) leafValues(node int) (relLoad, freeMem float64) {
	return s.cpuLoad[node] / s.cl.CPUCap(node), s.freeRigid[0][node]
}

// syncIndex writes every stale leaf and returns the tree. The tree's
// aggregates are exact min/max over its leaves and every Set leaves it
// consistent, so the synced tree depends only on the final leaf values,
// not on how many changes were folded into one write or in what order.
func (s *Simulator) syncIndex() *index.NodeIndex {
	for _, node := range s.idxDirtyList {
		load, mem := s.leafValues(node)
		s.nodeIdx.Set(node, load, mem)
		s.idxDirty[node] = false
	}
	s.idxSyncs += len(s.idxDirtyList)
	s.idxDirtyList = s.idxDirtyList[:0]
	return s.nodeIdx
}

func (s *Simulator) releaseNodes(j *jobRT) {
	for _, node := range j.nodes {
		s.refreshNode(node)
		s.cpuLoad[node] -= j.job.CPUNeed
		s.usedCPU[node] -= j.job.CPUNeed * j.yield
		s.cpuLoad[node] = floats.NonNeg(s.cpuLoad[node])
		s.usedCPU[node] = floats.NonNeg(s.usedCPU[node])
		for r := range s.usedRigid {
			if dem := j.job.Demand(r + 1); dem != 0 {
				s.usedRigid[r][node] = floats.NonNeg(s.usedRigid[r][node] - dem)
				s.setFree(r, node)
			}
		}
	}
	if cap(j.nodes) > 0 {
		s.freeNodes = append(s.freeNodes, j.nodes[:0])
	}
	j.nodes = nil
	j.costRate = 0
}

// insertJid inserts jid into the ascending list, keeping it sorted. A jid
// already present is left alone, so state transitions need no pre-checks.
func insertJid(list []int, jid int) []int {
	i := sort.SearchInts(list, jid)
	if i < len(list) && list[i] == jid {
		return list
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = jid
	return list
}

// removeJid removes jid from the ascending list, a no-op if absent.
func removeJid(list []int, jid int) []int {
	i := sort.SearchInts(list, jid)
	if i >= len(list) || list[i] != jid {
		return list
	}
	return append(list[:i], list[i+1:]...)
}

// memGB returns the job's total memory footprint in gigabytes, the unit of
// Table II's bandwidth accounting.
func (s *Simulator) memGB(j *jobRT) float64 {
	return float64(j.job.Tasks) * j.job.MemReq * s.cfg.Trace.NodeMemGB
}

// validate is the paranoia check run after every event in tests.
func (s *Simulator) validate() error {
	n := len(s.usedCPU)
	d := s.cl.D()
	usedCPU := make([]float64, n)
	usedRigid := make([]float64, n*(d-1))
	remaining := 0
	for jid, j := range s.jobs {
		if j == nil {
			continue // completed and recycled
		}
		inList := func(list []int) bool {
			i := sort.SearchInts(list, jid)
			return i < len(list) && list[i] == jid
		}
		if inList(s.running) != (j.state == Running) {
			return fmt.Errorf("sim: job %d in state %v, running-index membership %v", jid, j.state, inList(s.running))
		}
		if inList(s.paused) != (j.state == Paused) {
			return fmt.Errorf("sim: job %d in state %v, paused-index membership %v", jid, j.state, inList(s.paused))
		}
		if want := j.state == Pending && j.job.Submit <= s.now; inList(s.visPending) != want {
			return fmt.Errorf("sim: job %d in state %v submit=%g now=%g, pending-index membership %v",
				jid, j.state, j.job.Submit, s.now, inList(s.visPending))
		}
		if j.state != Done {
			remaining++
		}
		switch j.state {
		case Running:
			if len(j.nodes) != j.job.Tasks {
				return fmt.Errorf("sim: job %d running with %d of %d tasks placed", jid, len(j.nodes), j.job.Tasks)
			}
			if j.yield < -floats.Eps || j.yield > 1+capTol {
				return fmt.Errorf("sim: job %d yield %g outside [0,1]", jid, j.yield)
			}
			for _, node := range j.nodes {
				usedCPU[node] += j.job.CPUNeed * j.yield
				for r := 0; r < d-1; r++ {
					usedRigid[node*(d-1)+r] += j.job.Demand(r + 1)
				}
			}
		case Pending, Paused, Done:
			if j.nodes != nil {
				return fmt.Errorf("sim: job %d in state %v still holds nodes", jid, j.state)
			}
		}
		if j.remaining < -floats.Eps {
			return fmt.Errorf("sim: job %d has negative remaining work %g", jid, j.remaining)
		}
	}
	if remaining != s.remainingJobs {
		return fmt.Errorf("sim: remaining-jobs counter %d disagrees with state scan %d", s.remainingJobs, remaining)
	}
	for node := 0; node < n; node++ {
		if usedCPU[node] > s.cl.CPUCap(node)+capTol {
			return fmt.Errorf("sim: node %d allocated CPU %.6f > capacity %.6f", node, usedCPU[node], s.cl.CPUCap(node))
		}
		for r := 0; r < d-1; r++ {
			if usedRigid[node*(d-1)+r] > s.cl.Cap(node, r+1)+capTol {
				return fmt.Errorf("sim: node %d allocated %s %.6f > capacity %.6f",
					node, resourceName(s.cl, r+1), usedRigid[node*(d-1)+r], s.cl.Cap(node, r+1))
			}
			// The free rows must hold, bit for bit, what the usage derives.
			free, want := s.freeRigid[r][node], floats.NonNeg(s.cl.Cap(node, r+1)-s.usedRigid[r][node])
			if math.Float64bits(free) != math.Float64bits(want) {
				return fmt.Errorf("sim: node %d free %s %g disagrees with capacity minus usage %g",
					node, resourceName(s.cl, r+1), free, want)
			}
		}
	}
	return s.validateIndex()
}

// validateIndex syncs the node index and checks it against the live
// occupancy: every leaf must hold exactly the values leafValues derives, and
// the root maximum must equal the historical scan, which started its
// running maximum at 0 and only took strictly larger loads.
func (s *Simulator) validateIndex() error {
	t := s.syncIndex()
	maxLoad, maxNode := 0.0, -1
	for node := range s.cpuLoad {
		load, mem := s.leafValues(node)
		if t.Load(node) != load || t.FreeMem(node) != mem {
			return fmt.Errorf("sim: node %d index leaf (load %g, free memory %g) disagrees with live (load %g, free memory %g)",
				node, t.Load(node), t.FreeMem(node), load, mem)
		}
		if load > maxLoad {
			maxLoad, maxNode = load, node
		}
	}
	if got := t.MaxLoad(); got != maxLoad {
		return fmt.Errorf("sim: node index max load %g disagrees with scan %g (node %d)", got, maxLoad, maxNode)
	}
	return nil
}
