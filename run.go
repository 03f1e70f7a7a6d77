package dfrs

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/cluster"
	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/metrics/online"
	"repro/internal/sim"
	"repro/internal/workload"
)

// defaultMaxSimTime is the livelock guard for facade runs: 50 years of
// simulated time.
const defaultMaxSimTime = 50 * 365 * 24 * 3600

// Observer receives scheduling transitions live as a simulation executes:
// JobSubmitted, JobStarted, JobPreempted, JobMigrated, JobCompleted, and
// SchedulerInvoked with wall-clock timing. Attach one with WithObserver;
// see Stream for a channel-based consumer. Event sequences are
// deterministic for a fixed (trace, algorithm, cluster, penalty); only the
// Elapsed timing of scheduler invocations varies between runs.
type Observer = sim.Observer

// Event is one observer callback as a value, the element type of Stream's
// channel.
type Event = sim.Event

// EventKind labels an Event.
type EventKind = sim.EventKind

// Event kinds delivered by Stream and EventRecorder.
const (
	EvSubmitted        = sim.EvSubmitted
	EvStarted          = sim.EvStarted
	EvPreempted        = sim.EvPreempted
	EvMigrated         = sim.EvMigrated
	EvCompleted        = sim.EvCompleted
	EvSchedulerInvoked = sim.EvSchedulerInvoked
)

// EventRecorder is an Observer that collects every event in memory, useful
// for tests and post-run analysis.
type EventRecorder = sim.Recorder

// UnschedulableError reports a job whose per-task requirement for the
// binding resource exceeds every node of the materialised cluster. Run
// rejects such traces eagerly instead of letting them starve; Campaign and
// RunFederated fail when the job is dispatched, wrapping this error.
type UnschedulableError = sim.UnschedulableError

// InsufficientCapacityError reports a job whose simultaneous tasks exceed
// the empty cluster's aggregate capacity in its rigid resource dimensions
// (e.g. a 16-task GPU job on a cluster with four GPU nodes). Run rejects
// such traces eagerly instead of deadlocking mid-run; Campaign and
// RunFederated fail when the job is dispatched, wrapping this error.
type InsufficientCapacityError = sim.InsufficientCapacityError

// LivelockError reports a run whose scheduler kept processing timer and
// completion events at one simulated instant — more than 2^20 in a row —
// without the clock moving. Run, Campaign and RunFederated fail with it,
// wrapped, instead of hanging.
type LivelockError = sim.LivelockError

// JobResult records the outcome of one job of a finished run.
type JobResult = sim.JobResult

// TimelineEvent is one recorded per-job scheduling transition (see
// WithTimeline).
type TimelineEvent = sim.TimelineEvent

// Segment is one homogeneous interval of a job's recorded timeline.
type Segment = sim.Segment

// RunOption configures one simulation run.
type RunOption func(*runConfig)

type runConfig struct {
	penalty     float64
	nodeMix     string
	resources   []string
	objective   string
	check       bool
	timeline    bool
	maxSimTime  float64
	observers   []sim.Observer
	jobSink     func(JobResult)
	targetLoad  float64
	currentLoad float64
}

// WithPenalty sets the rescheduling penalty in seconds charged to every
// resume and migration (the paper evaluates 0 and 300; the default is 0).
func WithPenalty(seconds float64) RunOption {
	return func(c *runConfig) { c.penalty = seconds }
}

// WithNodeMix selects a heterogeneous node-mix profile (see NodeMixes)
// laid out over the trace's node count. The default is the paper's
// homogeneous platform.
func WithNodeMix(profile string) RunOption {
	return func(c *runConfig) { c.nodeMix = profile }
}

// WithResources names the cluster's resource dimensions, e.g. "cpu",
// "mem", "gpu". The first two must be "cpu" and "mem" (the paper's pair);
// each further name adds a rigid dimension with capacity 1.0 per node on
// top of the node-mix profile, so jobs may carry demands in those
// dimensions (Job.Extra). The names must agree with the profile's own
// dimensions where they overlap (e.g. "cpu", "mem", "gpu" with
// "gpu-bimodal", whose GPU layout is then kept); a conflicting or shorter
// list fails the run, and a trace demanding dimensions beyond the list is
// rejected rather than granted capacity the declared platform lacks. The
// default is the two-dimensional platform — or the profile's own
// dimensions for three-dimensional mixes — auto-extended when the trace
// demands more.
func WithResources(names ...string) RunOption {
	return func(c *runConfig) { c.resources = append([]string(nil), names...) }
}

// WithObjective selects the placement objective by which every scheduler
// family chooses among feasible nodes: one of Objectives ("cost",
// "bestfit", "worstfit", ...) or a name registered with RegisterObjective.
// The empty string (the default) keeps each family's published rule —
// greedy's least-relative-load placement, the batch baselines'
// first-eligible-node choice, the packing kernel's index bin order — so
// the paper's behaviour is the default objective. The feasibility
// constraints (memory, GPU, CPU capacity) are never relaxed; an objective
// only reorders the choice among feasible nodes.
func WithObjective(name string) RunOption {
	return func(c *runConfig) { c.objective = name }
}

// WithInvariantChecking enables per-event state validation (slow; for
// tests).
func WithInvariantChecking() RunOption {
	return func(c *runConfig) { c.check = true }
}

// WithTimeline records every per-job scheduling transition so the run can
// be rendered as a Gantt chart (Result.Timeline, Result.JobSegments).
func WithTimeline() RunOption {
	return func(c *runConfig) { c.timeline = true }
}

// WithMaxSimTime overrides the livelock guard: a run whose simulated clock
// passes this many seconds fails. The default is 50 simulated years; 0
// disables the guard.
func WithMaxSimTime(seconds float64) RunOption {
	return func(c *runConfig) { c.maxSimTime = seconds }
}

// WithObserver attaches an observer that receives every scheduling
// transition live. Multiple WithObserver options fan out in order; a nil
// observer is ignored. Observation never changes results: an observed run
// produces the identical Result as an unobserved one.
func WithObserver(o Observer) RunOption {
	return func(c *runConfig) {
		if o != nil {
			c.observers = append(c.observers, o)
		}
	}
}

// WithJobSink streams each completed job's outcome to fn the moment it
// completes, instead of accumulating it in the result (Result.Jobs stays
// empty; aggregate metrics are unaffected, but the per-job summaries —
// MaxStretch, AvgStretch, JobStretches — see no jobs and must be computed
// by the sink). Required for bounded-memory million-job runs, where the
// per-job result array would otherwise dominate the heap.
func WithJobSink(fn func(JobResult)) RunOption {
	return func(c *runConfig) { c.jobSink = fn }
}

// OnlineAggregator folds scheduling events and per-job outcomes into
// rolling aggregates — stretch quantile sketches, event counters, cost
// burn — with a Snapshot safe for concurrent readers. It is the
// aggregation layer behind dfrs-serve's live metrics and dfrs-sim
// -summary-only; see repro/internal/metrics/online for the sketch
// guarantees.
type OnlineAggregator = online.Aggregator

// OnlineSnapshot is a point-in-time view of an OnlineAggregator.
type OnlineSnapshot = online.Snapshot

// NewOnlineAggregator returns an empty online-metrics aggregator, ready to
// attach with WithOnlineMetrics or to fold campaign records directly
// (OnlineAggregator.ObserveRecord).
func NewOnlineAggregator() *OnlineAggregator { return online.New() }

// WithOnlineMetrics feeds the run's scheduling events and per-job outcomes
// into a (snapshot-while-running) streaming aggregator. The per-job fold
// rides the job-sink path, so — exactly as with WithJobSink — Result.Jobs
// stays empty and the post-hoc per-job summaries must be read from the
// aggregator instead; memory stays bounded for million-job runs. Composes
// with an explicit WithJobSink: both receive every outcome. A nil
// aggregator is a no-op.
func WithOnlineMetrics(a *OnlineAggregator) RunOption {
	return func(c *runConfig) {
		if a == nil {
			return
		}
		WithObserver(a.Observer())(c)
		if prev := c.jobSink; prev != nil {
			c.jobSink = func(jr JobResult) { prev(jr); a.ObserveJob(jr) }
		} else {
			c.jobSink = a.ObserveJob
		}
	}
}

// WithTargetLoad rescales the workload's inter-arrival times so its
// offered load hits target, the paper's construction of the scaled trace
// sets. Materialized runs rescale against the trace's own measured load
// (Trace.OfferedLoad). Streaming runs cannot scan the stream first, so the
// current load comes from WithCurrentLoad when given, else from the
// stream's "# offered_load:" preamble metadata; a stream with neither
// fails (measure a seekable input with MeasureStreamLoad, then reopen it).
// Scaled streaming and materialized runs of the same trace are
// bit-identical.
func WithTargetLoad(target float64) RunOption {
	return func(c *runConfig) { c.targetLoad = target }
}

// WithCurrentLoad declares the workload's present offered load for
// WithTargetLoad's streaming path, overriding any "# offered_load:"
// metadata (typically the value MeasureStreamLoad returned on a first
// pass). Materialized runs measure the trace directly and ignore it.
func WithCurrentLoad(current float64) RunOption {
	return func(c *runConfig) { c.currentLoad = current }
}

// MeasureStreamLoad drains a trace stream in the dfrs trace format and
// returns its offered load — total work over the cluster capacity across
// the submission span, the definition behind Trace.OfferedLoad — plus the
// number of jobs seen, in O(1) memory. The reader is consumed; reopen a
// seekable input to replay it through RunStream with
// WithTargetLoad+WithCurrentLoad (the two-pass scheme of dfrs-sim -stream
// -load).
func MeasureStreamLoad(r io.Reader) (load float64, jobs int, err error) {
	tr, err := workload.StreamTrace(r)
	if err != nil {
		return 0, 0, err
	}
	return workload.MeasureSourceLoad(tr, tr.Meta().Nodes)
}

// Result wraps a finished simulation.
type Result struct {
	r *sim.Result
}

// Run simulates the named algorithm over the trace. The context is checked
// between simulation events, so cancellation or a deadline stops the run at
// event granularity with an error wrapping ctx.Err(); context.Background()
// runs to completion. Options default to the paper's homogeneous platform
// with no rescheduling penalty.
//
// Run admits jobs exactly as RunStream does: each job gets its jid when
// virtual time reaches its submission instant, and its record is forgotten
// once its completion hook returns. A Scheduler may therefore address a jid
// through its Controller only between those two points (see Controller).
func Run(ctx context.Context, t Trace, algorithm string, opts ...RunOption) (Result, error) {
	return runTrace(ctx, t.t, t.t.Dims(), nil, algorithm, opts)
}

// RunStream simulates the named algorithm over a trace read lazily from r
// (the dfrs trace format, as written by Trace.Encode or dfrs-gen): jobs
// enter the simulator as virtual time reaches their submission instant and
// each job's runtime record is recycled at completion, so memory is
// bounded by jobs-in-system rather than trace length. The Result equals
// Run's on the same trace. Pair it with WithJobSink to also stream the
// per-job outcomes instead of accumulating them.
func RunStream(ctx context.Context, r io.Reader, algorithm string, opts ...RunOption) (Result, error) {
	tr, err := workload.StreamTrace(r)
	if err != nil {
		return Result{}, err
	}
	return runTrace(ctx, tr.Meta(), tr.Dims(), tr, algorithm, opts)
}

// runTrace is the shared engine of Run and RunStream: it materializes the
// platform from the options and executes the simulation. When source is
// non-nil, t carries metadata only and dims comes from the trace header
// rather than a job scan.
func runTrace(ctx context.Context, t *workload.Trace, dims int, source workload.JobSource, algorithm string, opts []RunOption) (Result, error) {
	cfg := runConfig{maxSimTime: defaultMaxSimTime}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.targetLoad != 0 {
		var err error
		if t, source, err = rescaleToTarget(t, source, cfg.targetLoad, cfg.currentLoad); err != nil {
			return Result{}, err
		}
	}
	simCfg := sim.Config{
		Trace:           t,
		Source:          source,
		JobSink:         cfg.jobSink,
		Penalty:         cfg.penalty,
		CheckInvariants: cfg.check,
		RecordTimeline:  cfg.timeline,
		MaxSimTime:      cfg.maxSimTime,
		Observer:        sim.Fanout(cfg.observers...),
	}
	// An explicit WithResources list is a declaration of the platform: the
	// cluster is laid out here and not extended, so demands beyond it are
	// rejected by the simulator's eager checks rather than granted phantom
	// capacity. Otherwise the assembly extends the mix with unit capacity
	// to the trace's dimensions (GPU jobs on a two-resource mix) — the same
	// rule the campaign engine applies.
	if len(cfg.resources) > 0 {
		cl, err := declaredCluster(cfg.nodeMix, t.Nodes, cfg.resources)
		if err != nil {
			return Result{}, err
		}
		simCfg.Cluster = cl
	}
	simulator, _, err := federation.NewSimulator(algorithm, cfg.objective, cfg.nodeMix, dims, simCfg)
	if err != nil {
		return Result{}, err
	}
	res, err := simulator.RunContext(ctx)
	if err != nil {
		return Result{}, err
	}
	if err := metrics.Validate(res); err != nil {
		return Result{}, err
	}
	return Result{r: res}, nil
}

// declaredCluster lays out the node mix over n nodes with the resource
// dimensions a WithResources list names.
func declaredCluster(mix string, n int, resources []string) (*cluster.Cluster, error) {
	cl, err := cluster.Profile(mix, n)
	if err != nil {
		return nil, err
	}
	if len(resources) < 2 || resources[0] != "cpu" || resources[1] != "mem" {
		return nil, fmt.Errorf("dfrs: resources must start with \"cpu\", \"mem\", got %v", resources)
	}
	// The names must agree with the node-mix profile's own dimensions
	// where they overlap — WithDims only adds dimensions, so silently
	// accepting e.g. "net" for a profile's "gpu" axis (with its own
	// capacity layout) would break the documented "capacity 1.0 per
	// added resource" contract.
	if cl.D() > len(resources) {
		return nil, fmt.Errorf("dfrs: node mix %q declares %d resource dimensions but WithResources names %d",
			mix, cl.D(), len(resources))
	}
	for k := 0; k < cl.D(); k++ {
		if cl.DimName(k) != resources[k] {
			return nil, fmt.Errorf("dfrs: node mix %q names dimension %d %q, WithResources names it %q",
				mix, k, cl.DimName(k), resources[k])
		}
	}
	return cl.WithDims(len(resources), 1, resources), nil
}

// rescaleToTarget applies WithTargetLoad: materialized traces rescale
// against their own measured load; streams wrap the source in a
// ScaledSource whose factor comes from WithCurrentLoad or the stream's
// declared offered load. Both paths rename the trace exactly as
// Trace.ScaleToLoad does, so result labels agree.
func rescaleToTarget(t *workload.Trace, source workload.JobSource, target, current float64) (*workload.Trace, workload.JobSource, error) {
	if !(target > 0) {
		return nil, nil, fmt.Errorf("dfrs: target load %g must be positive", target)
	}
	if source == nil {
		scaled, err := t.ScaleToLoad(target)
		if err != nil {
			return nil, nil, err
		}
		return scaled, nil, nil
	}
	cur := current
	if cur == 0 {
		if tr, ok := source.(*workload.TraceReader); ok {
			if v, declared := tr.DeclaredLoad(); declared {
				cur = v
			}
		}
	}
	if !(cur > 0) {
		return nil, nil, fmt.Errorf("dfrs: cannot rescale stream to load %g: no \"# offered_load:\" metadata and no WithCurrentLoad (measure a seekable input with MeasureStreamLoad, then reopen it)", target)
	}
	scaledSrc, err := workload.NewScaledSource(source, cur/target)
	if err != nil {
		return nil, nil, err
	}
	meta := *t
	meta.Name = fmt.Sprintf("%s-load%.2f", t.Name, target)
	return &meta, scaledSrc, nil
}

// Stream runs the simulation in a background goroutine and returns its
// scheduling transitions as a typed event channel, enabling live
// dashboards, online metrics and early termination at event granularity.
// The channel is unbuffered — the simulation advances in lockstep with the
// consumer — and is closed when the run ends. The returned wait function
// blocks until then and returns the final Result (it may be called before
// or after draining the channel; an abandoned channel is drained by wait
// itself, so `for range events` loops may break early as long as wait is
// eventually called). Cancelling the context stops the run between two
// events.
func Stream(ctx context.Context, t Trace, algorithm string, opts ...RunOption) (<-chan Event, func() (Result, error)) {
	ch := make(chan Event)
	bridge := &chanObserver{ch: ch, abandoned: make(chan struct{})}
	done := make(chan struct{})
	var (
		res Result
		err error
	)
	go func() {
		defer close(done)
		defer close(ch)
		res, err = Run(ctx, t, algorithm, append(opts, WithObserver(sim.ObserverFunc(bridge.send)))...)
	}()
	wait := func() (Result, error) {
		bridge.abandon() // unblock the producer if the consumer stopped reading
		<-done
		return res, err
	}
	return ch, wait
}

// chanObserver hands Stream's events to its channel (send runs as a
// sim.ObserverFunc). After abandon, events are discarded so the simulation
// can finish even when the consumer stopped reading.
type chanObserver struct {
	ch        chan Event
	abandoned chan struct{}
	once      sync.Once
}

func (c *chanObserver) abandon() {
	c.once.Do(func() { close(c.abandoned) })
}

func (c *chanObserver) send(e Event) {
	select {
	case c.ch <- e:
	case <-c.abandoned:
	}
}

// Algorithm returns the algorithm that produced this result.
func (r Result) Algorithm() string { return r.r.Algorithm }

// Makespan returns the completion time of the last job, in seconds.
func (r Result) Makespan() float64 { return r.r.Makespan }

// MaxStretch returns the maximum bounded stretch over all jobs, the
// paper's headline metric.
func (r Result) MaxStretch() float64 { return metrics.Summarize(r.r).MaxStretch }

// Utilization returns the fraction of cluster CPU capacity that delivered
// useful work over the makespan (Section II-B2's platform-utilization
// view).
func (r Result) Utilization() float64 { return r.r.Utilization() }

// AvgStretch returns the average bounded stretch over all jobs.
func (r Result) AvgStretch() float64 { return metrics.Summarize(r.r).AvgStretch }

// Events returns the number of simulation events processed.
func (r Result) Events() int { return r.r.Events }

// Preemptions returns the number of preemption operations charged to the
// run (Table II occurrences).
func (r Result) Preemptions() int { return r.r.PreemptionOps }

// Migrations returns the number of migration operations charged to the
// run.
func (r Result) Migrations() int { return r.r.MigrationOps }

// Jobs returns a copy of the per-job outcomes, ordered by job ID.
func (r Result) Jobs() []JobResult { return append([]JobResult(nil), r.r.Jobs...) }

// Timeline returns the recorded per-job scheduling transitions; empty
// unless the run used WithTimeline.
func (r Result) Timeline() []TimelineEvent {
	return append([]TimelineEvent(nil), r.r.Timeline...)
}

// JobSegments reconstructs job jid's life as contiguous
// waiting/running/frozen/paused segments from the recorded timeline; nil
// unless the run used WithTimeline.
func (r Result) JobSegments(jid int) []Segment { return r.r.JobSegments(jid) }

// JobStretches returns the bounded stretch of every job, indexed as in
// Trace.Jobs ordering by job ID.
func (r Result) JobStretches() []float64 {
	out := make([]float64, len(r.r.Jobs))
	for i, jr := range r.r.Jobs {
		out[i] = metrics.BoundedStretch(jr.Turnaround, jr.Job.ExecTime)
	}
	return out
}

// Cost returns the run's cost-weighted occupancy in price units: the
// hosting node's cost rate (see NodeSpec.Cost and the priced node mixes)
// times the occupied seconds, accrued once per task placement and summed
// over the run. Always 0 on unpriced platforms, including the paper's.
func (r Result) Cost() float64 { return r.r.NodeCostSeconds }

// Costs summarizes preemption/migration bandwidth and operation rates as in
// Table II, plus the cost accounting of priced platforms.
func (r Result) Costs() CostSummary {
	c := metrics.Costs(r.r)
	return CostSummary{
		PreemptionGBps:     c.PmtnGBps,
		MigrationGBps:      c.MigGBps,
		PreemptionsPerHour: c.PmtnPerHour,
		MigrationsPerHour:  c.MigPerHour,
		PreemptionsPerJob:  c.PmtnPerJob,
		MigrationsPerJob:   c.MigPerJob,
		NodeCost:           c.NodeCost,
		NodeCostPerJob:     c.NodeCostPerJob,
	}
}

// CostSummary mirrors one row of the paper's Table II for one run, plus
// the monetary cost accounting of priced platforms (NodeCost fields; zero
// on unpriced clusters).
type CostSummary struct {
	PreemptionGBps     float64
	MigrationGBps      float64
	PreemptionsPerHour float64
	MigrationsPerHour  float64
	PreemptionsPerJob  float64
	MigrationsPerJob   float64
	NodeCost           float64
	NodeCostPerJob     float64
}
