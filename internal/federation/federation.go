// Package federation promotes the single-cluster DFRS simulator to an
// N-cluster orchestrator advancing under one shared clock, with a
// pluggable dispatch layer routing arriving jobs across the members.
//
// A Federation owns N independent sim.Simulator instances — each with its
// own node mix, scheduler family and placement objective — and advances
// them under one shared clock through the simulator's step API (Start /
// PeekNextEventTime / StepUntil / ProcessNextEvent / Finalize). Job
// admission is lifted out of per-simulator trace or Source ownership into
// a federation-level arrival feed: one workload.JobSource supplies the
// global arrival stream, and at each arrival instant a Dispatcher
// inspects a live ClusterView per member (queue depth, free capacity,
// mean node cost) and picks the member the job enters, which then admits
// it through the simulator's one admission path (sim.InjectJob).
//
// The orchestrator only decides how far each member advances — it never
// reaches into member state — so single-cluster behavior is locked by
// construction: a 1-member federation processes the identical event
// sequence as a plain run of the same trace, and its member Result is
// byte-identical to dfrs.Run's (pinned by test). Per-member Results merge
// into a federated Result with both per-cluster and aggregate metrics; the
// merged job records are a view over the members' own (Result.EachJob),
// never a copy.
//
// Three dispatch policies ship behind a registry mirroring the scheduler
// and placement layers: roundrobin (cycle the feasible members),
// queuedepth (join the shortest queue) and costaware (cheapest member
// with free capacity, falling back to the cheapest feasible — cloud
// bursting over priced inventories, reusing cluster.NodeSpec.Cost).
//
// # Execution
//
// Members only interact at dispatch instants, which makes the federation
// a conservative parallel-discrete-event simulation with the next arrival
// as the lookahead horizon: every member event strictly before the next
// arrival is independent of the routing decision. Run therefore proceeds
// in rounds. Each round advances every member with an event before the
// horizon up to it (ties defer to the arrival, as arrivals outrank
// coincident events inside one simulator), then the Dispatcher samples
// every ClusterView at the arrival instant and routes. Dispatchers that
// implement the StatelessDispatcher capability — routing independent of
// dynamic member state, like roundrobin — let a federation of more than
// one member dispatch whole arrival batches ahead of the members,
// extending the horizon across many arrivals; queuedepth and costaware
// read live views and route one arrival per round, as does a
// one-member federation, which has no barrier to amortize. Once the feed is exhausted a final round drains
// each member through its last completion; trailing timers after a
// member's last completion stay unprocessed, as in a single run.
//
// Spec.Workers only chooses who executes a round: at 1 worker the loop
// advances the members itself, in index order; above 1 a worker pool
// advances them concurrently and barriers before dispatch. The per-member
// event sequence is the same either way, so results — merged and
// per-cluster, streamed and in-memory — are byte-identical across worker
// counts under every dispatcher (pinned by test).
//
// Observer and JobSink callbacks keep each member's own order. At 1
// worker they also arrive member by member: within a round, all of member
// 0's callbacks, then member 1's, and so on. Above 1 worker they are
// serialized behind one shared lock, and their interleaving across
// members is unspecified.
package federation

import (
	"context"
	"fmt"
	"iter"
	"sync"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// MemberSpec declares one member cluster of a federation.
type MemberSpec struct {
	// Name identifies the member in results and errors; empty derives
	// "c<i>" or "c<i>-<mix>" from the position and mix.
	Name string
	// Mix is the node-mix profile name (internal/cluster); empty is the
	// uniform (homogeneous) profile.
	Mix string
	// Nodes is the member's node count; must be positive.
	Nodes int
	// Algorithm overrides the federation-level default scheduler for
	// this member when non-empty.
	Algorithm string
	// Objective overrides the federation-level default placement
	// objective for this member when non-empty ("" keeps the paper's
	// per-family rules unless the federation sets one).
	Objective string
}

// Spec configures a Federation.
type Spec struct {
	// TraceName labels results; NodeMemGB and Dims describe the global
	// workload (member clusters are extended with unit capacity to cover
	// Dims, exactly as a single run extends its cluster to the trace's
	// dimensionality).
	TraceName string
	NodeMemGB float64
	Dims      int
	// Members are the clusters; at least one is required.
	Members []MemberSpec
	// Dispatcher names the routing policy; empty means
	// DefaultDispatcher.
	Dispatcher string
	// Algorithm is the default scheduler family for members that do not
	// set their own.
	Algorithm string
	// Objective is the default placement objective for members that do
	// not set their own; empty keeps per-family defaults.
	Objective string
	// Penalty is the rescheduling penalty in seconds, applied in every
	// member.
	Penalty float64
	// MaxSimTime aborts members whose clock passes this value (0
	// disables).
	MaxSimTime float64
	// CheckInvariants enables full per-event state validation in every
	// member (tests only; expensive).
	CheckInvariants bool
	// Workers is how many goroutines advance members between dispatch
	// points (see the package doc's Execution section), capped at the
	// member count; 0 or 1 advances them inline, in index order. Results
	// are byte-identical for every value.
	Workers int
	// Observer, when non-nil, returns the per-member observer wired into
	// member i's simulator (nil return = no observer for that member).
	// Job ids in observer callbacks are member-local. Above 1 worker all
	// member observers share one lock, so callbacks never run
	// concurrently.
	Observer func(member int) sim.Observer
	// JobSink, when non-nil, receives every completed job as
	// (member index, result) and per-member Result.Jobs stay empty —
	// the bounded-memory path, mirroring sim.Config.JobSink.
	JobSink func(member int, jr sim.JobResult)
}

// ClusterResult is one member's share of a federated run.
type ClusterResult struct {
	// Name and Nodes echo the member spec; Algorithm is the resolved
	// scheduler family.
	Name      string
	Algorithm string
	Nodes     int
	// Dispatched counts the jobs routed to this member.
	Dispatched int
	// Result is the member simulator's own full result.
	Result *sim.Result
	// Summary and Costs are the member's post-hoc metrics.
	Summary metrics.InstanceSummary
	Costs   metrics.CostSummary
}

// Result is the outcome of a federated run: every member's own result
// plus the merged whole-federation view.
type Result struct {
	// Dispatcher is the routing policy that ran.
	Dispatcher string
	// Clusters holds one entry per member, in member order.
	Clusters []ClusterResult
	// Merged aggregates the members into one sim.Result — makespan the
	// maximum; capacities, delivered work, cost, operation and event
	// counts summed — labeled "federated-<dispatcher>". Its Jobs stay
	// empty: the members' Result.Jobs are the only copy of the job
	// records, and EachJob reads them in merged order.
	Merged *sim.Result
	// Summary summarizes Merged over EachJob's records.
	Summary metrics.InstanceSummary
	// Costs summarizes Merged's cost and bandwidth quantities over the
	// members' records.
	Costs metrics.CostSummary
}

// NumJobs returns the number of job records across the members: the
// length of EachJob's sequence, for sizing a copy of it.
func (r *Result) NumJobs() int {
	n := 0
	for i := range r.Clusters {
		n += len(r.Clusters[i].Result.Jobs)
	}
	return n
}

// EachJob yields every member's job records in workload job-ID order: a
// k-way merge over the members' Result.Jobs, each of which sim.Finalize
// sorted by ID. Records with equal IDs, which only a feed repeating an ID
// produces, come in member-index order. The records are the members' own;
// nothing is copied.
func (r *Result) EachJob() iter.Seq[sim.JobResult] {
	return func(yield func(sim.JobResult) bool) {
		// h is a min-heap of the members with records left, keyed by
		// (ID of the member's next record, member index); pos[m] is member
		// m's next record.
		pos := make([]int, len(r.Clusters))
		h := make([]int, 0, len(r.Clusters))
		next := func(m int) int { return r.Clusters[m].Result.Jobs[pos[m]].Job.ID }
		less := func(a, b int) bool {
			ia, ib := next(a), next(b)
			return ia < ib || ia == ib && a < b
		}
		down := func(i int) {
			for {
				c := 2*i + 1
				if c >= len(h) {
					return
				}
				if c+1 < len(h) && less(h[c+1], h[c]) {
					c++
				}
				if !less(h[c], h[i]) {
					return
				}
				h[i], h[c] = h[c], h[i]
				i = c
			}
		}
		for m := range r.Clusters {
			if len(r.Clusters[m].Result.Jobs) > 0 {
				h = append(h, m)
			}
		}
		for i := len(h)/2 - 1; i >= 0; i-- {
			down(i)
		}
		for len(h) > 0 {
			m := h[0]
			jobs := r.Clusters[m].Result.Jobs
			if !yield(jobs[pos[m]]) {
				return
			}
			if pos[m]++; pos[m] == len(jobs) {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			down(0)
		}
	}
}

// member is one cluster's runtime: its simulator plus the static facts
// the dispatcher's views are built from.
type member struct {
	spec       MemberSpec
	algorithm  string
	cl         *cluster.Cluster
	sim        *sim.Simulator
	meanCost   float64
	priced     bool
	dispatched int
}

// Federation drives N member simulators under one shared clock, routing
// the global arrival feed across them. Construct with New, run with Run.
type Federation struct {
	spec    Spec
	disp    Dispatcher
	members []*member
	src     workload.JobSource
	next    *workload.Job
	nextBuf workload.Job
	srcDone bool
	views   []ClusterView
}

// New builds a federation: the dispatcher and every member's scheduler,
// objective and cluster are resolved eagerly so configuration errors
// surface before any event runs. feed is the global arrival stream — jobs
// in nondecreasing submission order, consumed lazily.
func New(spec Spec, feed workload.JobSource) (*Federation, error) {
	if len(spec.Members) == 0 {
		return nil, fmt.Errorf("federation: no member clusters")
	}
	if feed == nil {
		return nil, fmt.Errorf("federation: nil job source")
	}
	if spec.Penalty < 0 {
		return nil, fmt.Errorf("federation: negative penalty %g", spec.Penalty)
	}
	disp, err := ByName(spec.Dispatcher)
	if err != nil {
		return nil, err
	}
	f := &Federation{
		spec:    spec,
		disp:    disp,
		src:     feed,
		members: make([]*member, len(spec.Members)),
		views:   make([]ClusterView, len(spec.Members)),
	}
	// Above 1 worker member simulators run concurrently, so their
	// callbacks must be serialized behind one shared lock.
	var cbMu *sync.Mutex
	if f.workers() > 1 &&
		(spec.Observer != nil || spec.JobSink != nil) {
		cbMu = new(sync.Mutex)
	}
	for i, ms := range spec.Members {
		m, err := newMember(i, ms, spec, cbMu)
		if err != nil {
			return nil, err
		}
		f.members[i] = m
	}
	return f, nil
}

func newMember(i int, ms MemberSpec, spec Spec, cbMu *sync.Mutex) (*member, error) {
	name := ms.Name
	if name == "" {
		name = fmt.Sprintf("c%d", i)
		if mix := cluster.NormalizeProfile(ms.Mix); mix != "" {
			name += "-" + mix
		}
	}
	if ms.Nodes <= 0 {
		return nil, fmt.Errorf("federation: member %s: node count %d", name, ms.Nodes)
	}
	algorithm := ms.Algorithm
	if algorithm == "" {
		algorithm = spec.Algorithm
	}
	if algorithm == "" {
		return nil, fmt.Errorf("federation: member %s: no algorithm (set MemberSpec.Algorithm or Spec.Algorithm)", name)
	}
	objective := ms.Objective
	if objective == "" {
		objective = spec.Objective
	}
	// The member's trace holds no jobs: the federation feeds every job
	// through InjectJob.
	cfg := sim.Config{
		Trace: &workload.Trace{
			Name:      spec.TraceName,
			Nodes:     ms.Nodes,
			NodeMemGB: spec.NodeMemGB,
		},
		Penalty:         spec.Penalty,
		MaxSimTime:      spec.MaxSimTime,
		CheckInvariants: spec.CheckInvariants,
	}
	if spec.Observer != nil {
		if obs := spec.Observer(i); obs != nil {
			if cbMu != nil {
				obs = lockedObserver(cbMu, obs)
			}
			cfg.Observer = obs
		}
	}
	if spec.JobSink != nil {
		idx := i
		if cbMu != nil {
			cfg.JobSink = func(jr sim.JobResult) {
				cbMu.Lock()
				spec.JobSink(idx, jr)
				cbMu.Unlock()
			}
		} else {
			cfg.JobSink = func(jr sim.JobResult) { spec.JobSink(idx, jr) }
		}
	}
	s, cl, err := NewSimulator(algorithm, objective, ms.Mix, spec.Dims, cfg)
	if err != nil {
		return nil, fmt.Errorf("federation: member %s: %w", name, err)
	}
	m := &member{spec: ms, algorithm: algorithm, cl: cl, sim: s, priced: cl.Priced()}
	m.spec.Name = name
	for node := 0; node < cl.N(); node++ {
		m.meanCost += cl.Cost(node)
	}
	m.meanCost /= float64(cl.N())
	return m, nil
}

// NewSimulator is the one assembly of a simulator, shared by every member
// of a federation and by the facade's single runs: it resolves the
// scheduler and the placement objective by name and, unless cfg.Cluster is
// already set, lays out the node mix over cfg.Trace.Nodes, extended with
// unit capacity to dims resource dimensions (a cluster declaring as many
// is kept as is). It returns the simulator and the cluster it runs on.
func NewSimulator(algorithm, objective, mix string, dims int, cfg sim.Config) (*sim.Simulator, *cluster.Cluster, error) {
	sch, err := sched.New(algorithm)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Objective, err = placement.ByName(objective); err != nil {
		return nil, nil, err
	}
	if cfg.Cluster == nil {
		cl, err := cluster.Profile(mix, cfg.Trace.Nodes)
		if err != nil {
			return nil, nil, err
		}
		cfg.Cluster = cl.ExtendUnit(dims)
	}
	s, err := sim.New(cfg, sch)
	if err != nil {
		return nil, nil, err
	}
	return s, cfg.Cluster, nil
}

// peek maintains the one-job lookahead into the global feed.
func (f *Federation) peek() error {
	if f.next != nil || f.srcDone {
		return nil
	}
	j, ok, err := f.src.Next()
	if err != nil {
		f.srcDone = true
		return fmt.Errorf("federation: arrival feed: %w", err)
	}
	if !ok {
		f.srcDone = true
		return nil
	}
	f.nextBuf = j
	f.next = &f.nextBuf
	return nil
}

// dispatch routes one arriving job: views are rebuilt from live member
// state, the policy picks a member, and the job is injected through the
// member's admission path.
func (f *Federation) dispatch(j workload.Job) error {
	var infeasible error
	for i, m := range f.members {
		v := ClusterView{
			Index:        i,
			Name:         m.spec.Name,
			Nodes:        m.cl.N(),
			MeanCost:     m.meanCost,
			Priced:       m.priced,
			JobsInSystem: m.sim.JobsInSystemAt(j.Submit),
			Dispatched:   m.dispatched,
		}
		if err := m.sim.CanAdmit(j); err == nil {
			v.CanRun = true
			v.FreeSlots = m.sim.FreeTaskSlots(j)
		} else if infeasible == nil {
			infeasible = fmt.Errorf("%s: %w", m.spec.Name, err)
		}
		f.views[i] = v
	}
	target := f.disp.Dispatch(j, f.views)
	if target < 0 {
		err := fmt.Errorf("federation: dispatcher %s found no feasible cluster for job %d (%d tasks)",
			f.disp.Name(), j.ID, j.Tasks)
		if infeasible != nil {
			// The lowest-index member's admission error rides along, so
			// callers can errors.As the simulator's typed capacity errors.
			err = fmt.Errorf("%w: member %w", err, infeasible)
		}
		return err
	}
	if target >= len(f.members) {
		return fmt.Errorf("federation: dispatcher %s returned member %d of %d for job %d",
			f.disp.Name(), target, len(f.members), j.ID)
	}
	m := f.members[target]
	if err := m.sim.InjectJob(j); err != nil {
		return fmt.Errorf("federation: dispatch job %d to %s: %w", j.ID, m.spec.Name, err)
	}
	m.dispatched++
	return nil
}

// Run drives the federation to completion in lookahead rounds (see the
// package doc's Execution section), checking the context between rounds
// and, inside a round, every stepChunk events of each member. On success
// every member is finalized and the results merged.
func (f *Federation) Run(ctx context.Context) (*Result, error) {
	return f.run(ctx, f.workers())
}

// workers resolves the effective worker count: Spec.Workers capped at the
// member count (extra workers would only idle), and at least 1.
func (f *Federation) workers() int {
	return max(1, min(f.spec.Workers, len(f.members)))
}

// cancelErr formats the federation's context-cancellation error.
func (f *Federation) cancelErr(ctx context.Context) error {
	return fmt.Errorf("federation: %s stopped at t=%.1f with %d jobs unfinished: %w",
		f.disp.Name(), f.clock(), f.jobsInSystem(), ctx.Err())
}

// clock returns the maximum member clock, the federation's notion of
// elapsed simulated time (used only for error reporting).
func (f *Federation) clock() float64 {
	t := 0.0
	for _, m := range f.members {
		if now := m.sim.Now(); now > t {
			t = now
		}
	}
	return t
}

func (f *Federation) jobsInSystem() int {
	n := 0
	for _, m := range f.members {
		n += m.sim.JobsInSystem()
	}
	return n
}

// finalize collects every member's Result, validates them, and merges
// them into the federated view. The merged job records are not copied:
// the summary reads them through EachJob, in ID order.
func (f *Federation) finalize() (*Result, error) {
	res := &Result{
		Dispatcher: f.disp.Name(),
		Clusters:   make([]ClusterResult, len(f.members)),
		Merged: &sim.Result{
			Algorithm: "federated-" + f.disp.Name(),
			Trace:     f.spec.TraceName,
			Penalty:   f.spec.Penalty,
		},
	}
	mg := res.Merged
	for i, m := range f.members {
		r := m.sim.Finalize()
		if err := metrics.Validate(r); err != nil {
			return nil, fmt.Errorf("federation: member %s: %w", m.spec.Name, err)
		}
		res.Clusters[i] = ClusterResult{
			Name:       m.spec.Name,
			Algorithm:  m.algorithm,
			Nodes:      m.cl.N(),
			Dispatched: m.dispatched,
			Result:     r,
			Summary:    metrics.Summarize(r),
			Costs:      metrics.Costs(r),
		}
		mg.Nodes += r.Nodes
		mg.TotalCPUCap += r.TotalCPUCap
		if r.Makespan > mg.Makespan {
			mg.Makespan = r.Makespan
		}
		mg.PreemptionOps += r.PreemptionOps
		mg.MigrationOps += r.MigrationOps
		mg.PreemptionGB += r.PreemptionGB
		mg.MigrationGB += r.MigrationGB
		mg.DeliveredCPUSeconds += r.DeliveredCPUSeconds
		mg.NodeCostSeconds += r.NodeCostSeconds
		mg.Events += r.Events
	}
	// Every record was validated with its member; this checks the summed
	// accounting.
	if err := metrics.Validate(mg); err != nil {
		return nil, fmt.Errorf("federation: merged result: %w", err)
	}
	res.Summary = metrics.SummarizeSeq(mg, res.EachJob())
	// The per-job cost counts are order-free sums: they read the members'
	// slices one after another, not through the merge.
	res.Costs = metrics.CostsSeq(mg, func(yield func(sim.JobResult) bool) {
		for i := range res.Clusters {
			for _, jr := range res.Clusters[i].Result.Jobs {
				if !yield(jr) {
					return
				}
			}
		}
	})
	return res, nil
}
