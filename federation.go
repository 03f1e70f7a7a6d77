package dfrs

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"

	"repro/internal/federation"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ClusterSpec declares one member cluster of a federated run.
type ClusterSpec struct {
	// Name identifies the cluster in results; empty derives one from the
	// position and mix.
	Name string
	// NodeMix is the cluster's node-mix profile (see NodeMixes); empty
	// inherits the run's WithNodeMix (itself defaulting to the paper's
	// homogeneous platform).
	NodeMix string
	// Nodes is the cluster's node count; 0 inherits the trace's node
	// count.
	Nodes int
	// Algorithm overrides the federation's default scheduler for this
	// cluster when non-empty.
	Algorithm string
	// Objective overrides the run's WithObjective for this cluster when
	// non-empty.
	Objective string
}

// FederationSpec declares a federated run: the member clusters and the
// dispatch policy routing arriving jobs across them.
type FederationSpec struct {
	// Clusters are the members; at least one is required.
	Clusters []ClusterSpec
	// Dispatcher names the routing policy — one of Dispatchers(), or a
	// name registered with RegisterDispatcher. Empty means
	// DefaultDispatcher (round-robin).
	Dispatcher string
	// Algorithm is the default scheduler family for clusters that do not
	// set their own. RunFederated's algorithm argument is this field; set
	// per-cluster Algorithm for heterogeneous federations.
	Algorithm string
	// Workers is how many goroutines advance the clusters between
	// dispatch points: 0 (the default) picks GOMAXPROCS for federations of
	// two or more clusters; 1 advances them inline, one after another in
	// cluster order; higher values run that many goroutines concurrently
	// (capped at the cluster count). Results are byte-identical across
	// every value — every worker count processes the identical
	// per-cluster event sequence (see internal/federation's package doc).
	Workers int
}

// Dispatcher decides which member cluster each arriving job of a federated
// run enters; see RegisterDispatcher for custom policies.
type Dispatcher = federation.Dispatcher

// ClusterView is the live per-cluster snapshot a Dispatcher routes on.
type ClusterView = federation.ClusterView

// DefaultDispatcher is the dispatch policy used when FederationSpec leaves
// Dispatcher empty.
const DefaultDispatcher = federation.DefaultDispatcher

// RegisterDispatcher adds a dispatch policy under a unique name, making it
// available to FederationSpec.Dispatcher, the campaign Dispatchers axis
// and the CLIs' -dispatch flag. Each federated run gets a fresh instance
// from the factory, so policies may keep per-run state. Like
// RegisterAlgorithm, registration must happen before the runs that use it
// (typically from init).
func RegisterDispatcher(name string, factory func() Dispatcher) error {
	return federation.Register(name, factory)
}

// Dispatchers lists the registered dispatch policy names, sorted.
func Dispatchers() []string { return federation.Names() }

// ParseClusters parses the compact topology notation of the -clusters CLI
// flag into a cluster list: either a bare count "N" (N copies of defNodes
// nodes of the defMix profile) or a "+"-separated member list of
// "mix:nodes" terms, e.g. "uniform:128+bimodal-priced:64". defMix and
// defNodes fill omitted fields.
func ParseClusters(spec string, defNodes int, defMix string) ([]ClusterSpec, error) {
	members, err := federation.ParseTopology(spec, defNodes, defMix)
	if err != nil {
		return nil, err
	}
	out := make([]ClusterSpec, len(members))
	for i, m := range members {
		out[i] = ClusterSpec{NodeMix: m.Mix, Nodes: m.Nodes}
	}
	return out, nil
}

// FederatedResult wraps a finished federated run: per-cluster results plus
// the merged whole-federation view.
type FederatedResult struct {
	r *federation.Result
}

// FederatedClusterResult summarizes one member cluster of a federated run.
type FederatedClusterResult struct {
	// Name, Algorithm and Nodes echo the resolved member spec.
	Name      string
	Algorithm string
	Nodes     int
	// Dispatched counts the jobs routed to this cluster.
	Dispatched int
	// MaxStretch, AvgStretch and Makespan summarize the cluster's own
	// jobs (bounded stretch, as everywhere).
	MaxStretch float64
	AvgStretch float64
	Makespan   float64
	// Utilization is the fraction of the cluster's CPU capacity that
	// delivered useful work over its makespan.
	Utilization float64
	// Cost is the cluster's cost-weighted occupancy in price units
	// (always 0 on unpriced mixes).
	Cost float64
	// Finished counts the cluster's completed jobs; Events its processed
	// simulation events.
	Finished int
	Events   int
}

// RunFederated simulates a federation of clusters over the trace: one
// global arrival feed, routed across the member clusters by the spec's
// dispatch policy, every member advancing under one shared clock. Each
// member runs its own scheduler (spec.Algorithm, or per-cluster
// overrides) on its own node mix. Options apply federation-wide: penalty
// and max-sim-time in every member, WithNodeMix/WithObjective as member
// defaults, WithTargetLoad on the feed, observers on every member,
// WithJobSink/WithOnlineMetrics on every completion.
// WithResources and WithTimeline do not extend to federations and are
// rejected.
//
// A single-cluster federation is behaviourally identical to Run on the
// same trace — the per-cluster result matches field for field, any
// dispatcher — which pins federated semantics to the single-cluster
// engine.
//
// Multi-cluster federations execute in parallel by default
// (FederationSpec.Workers), advancing members concurrently between
// dispatch points with results byte-identical to a 1-worker run.
func RunFederated(ctx context.Context, t Trace, spec FederationSpec, opts ...RunOption) (FederatedResult, error) {
	return runFederated(ctx, t.t, t.t.Dims(), nil, spec, opts)
}

// RunFederatedStream is RunFederated over a trace read lazily from r (the
// dfrs trace format): the global feed pulls jobs as virtual time reaches
// them, and member memory stays bounded by jobs-in-system. Results equal
// RunFederated's on the same trace.
func RunFederatedStream(ctx context.Context, r io.Reader, spec FederationSpec, opts ...RunOption) (FederatedResult, error) {
	tr, err := workload.StreamTrace(r)
	if err != nil {
		return FederatedResult{}, err
	}
	return runFederated(ctx, tr.Meta(), tr.Dims(), tr, spec, opts)
}

// runFederated is the shared engine of RunFederated and RunFederatedStream,
// mirroring runTrace: resolve options, build the federation spec, run.
func runFederated(ctx context.Context, t *workload.Trace, dims int, source workload.JobSource, spec FederationSpec, opts []RunOption) (FederatedResult, error) {
	cfg := runConfig{maxSimTime: defaultMaxSimTime}
	for _, opt := range opts {
		opt(&cfg)
	}
	if len(cfg.resources) > 0 {
		return FederatedResult{}, fmt.Errorf("dfrs: WithResources is not supported for federated runs; per-cluster dimensions come from the node mixes")
	}
	if cfg.timeline {
		return FederatedResult{}, fmt.Errorf("dfrs: WithTimeline is not supported for federated runs")
	}
	if len(spec.Clusters) == 0 {
		return FederatedResult{}, fmt.Errorf("dfrs: FederationSpec needs at least one cluster")
	}
	if cfg.targetLoad != 0 {
		var err error
		if t, source, err = rescaleToTarget(t, source, cfg.targetLoad, cfg.currentLoad); err != nil {
			return FederatedResult{}, err
		}
	}
	members := make([]federation.MemberSpec, len(spec.Clusters))
	for i, cs := range spec.Clusters {
		nodes := cs.Nodes
		if nodes <= 0 {
			nodes = t.Nodes
		}
		mix := cs.NodeMix
		if mix == "" {
			mix = cfg.nodeMix
		}
		members[i] = federation.MemberSpec{
			Name:      cs.Name,
			Mix:       mix,
			Nodes:     nodes,
			Algorithm: cs.Algorithm,
			Objective: cs.Objective,
		}
	}
	workers := spec.Workers
	if workers < 0 {
		return FederatedResult{}, fmt.Errorf("dfrs: negative FederationSpec.Workers %d", workers)
	}
	if workers == 0 && len(spec.Clusters) > 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	fspec := federation.Spec{
		TraceName:       t.Name,
		NodeMemGB:       t.NodeMemGB,
		Dims:            dims,
		Members:         members,
		Dispatcher:      spec.Dispatcher,
		Algorithm:       spec.Algorithm,
		Objective:       cfg.objective,
		Penalty:         cfg.penalty,
		MaxSimTime:      cfg.maxSimTime,
		CheckInvariants: cfg.check,
		Workers:         workers,
	}
	if obs := sim.Fanout(cfg.observers...); obs != nil {
		fspec.Observer = func(int) sim.Observer { return obs }
	}
	if cfg.jobSink != nil {
		sink := cfg.jobSink
		fspec.JobSink = func(_ int, jr JobResult) { sink(jr) }
	}
	if source == nil {
		source = workload.NewSliceSource(t)
	}
	fed, err := federation.New(fspec, source)
	if err != nil {
		return FederatedResult{}, err
	}
	res, err := fed.Run(ctx)
	if err != nil {
		return FederatedResult{}, err
	}
	return FederatedResult{r: res}, nil
}

// Dispatcher returns the dispatch policy that routed the run.
func (r FederatedResult) Dispatcher() string { return r.r.Dispatcher }

// Clusters returns the number of member clusters.
func (r FederatedResult) Clusters() int { return len(r.r.Clusters) }

// Cluster summarizes member i.
func (r FederatedResult) Cluster(i int) FederatedClusterResult {
	c := r.r.Clusters[i]
	return FederatedClusterResult{
		Name:        c.Name,
		Algorithm:   c.Algorithm,
		Nodes:       c.Nodes,
		Dispatched:  c.Dispatched,
		MaxStretch:  c.Summary.MaxStretch,
		AvgStretch:  c.Summary.AvgStretch,
		Makespan:    c.Summary.Makespan,
		Utilization: c.Result.Utilization(),
		Cost:        c.Result.NodeCostSeconds,
		Finished:    len(c.Result.Jobs),
		Events:      c.Result.Events,
	}
}

// Dispatched returns how many jobs each cluster received, in cluster
// order.
func (r FederatedResult) Dispatched() []int {
	out := make([]int, len(r.r.Clusters))
	for i, c := range r.r.Clusters {
		out[i] = c.Dispatched
	}
	return out
}

// MaxStretch returns the maximum bounded stretch across all clusters.
func (r FederatedResult) MaxStretch() float64 { return r.r.Summary.MaxStretch }

// AvgStretch returns the average bounded stretch over all jobs of the
// federation.
func (r FederatedResult) AvgStretch() float64 { return r.r.Summary.AvgStretch }

// Makespan returns the completion time of the federation's last job.
func (r FederatedResult) Makespan() float64 { return r.r.Merged.Makespan }

// Utilization returns the delivered fraction of the federation's
// aggregate CPU capacity over the makespan.
func (r FederatedResult) Utilization() float64 { return r.r.Merged.Utilization() }

// Cost returns the federation's total cost-weighted occupancy in price
// units — the cloud-bursting headline number on priced remote mixes.
func (r FederatedResult) Cost() float64 { return r.r.Merged.NodeCostSeconds }

// Events returns the total number of simulation events processed across
// all clusters.
func (r FederatedResult) Events() int { return r.r.Merged.Events }

// Jobs returns a copy of the per-job outcomes across all clusters,
// ordered by job ID, with equal IDs in cluster order (empty when the run
// used WithJobSink or WithOnlineMetrics).
func (r FederatedResult) Jobs() []JobResult {
	n := r.r.NumJobs()
	if n == 0 {
		return nil
	}
	return slices.AppendSeq(make([]JobResult, 0, n), r.r.EachJob())
}
