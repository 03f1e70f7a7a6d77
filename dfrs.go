// Package dfrs is the public API of this reproduction of Stillwell, Vivien
// and Casanova, "Dynamic Fractional Resource Scheduling for HPC Workloads"
// (IPDPS 2010). It exposes, as a facade over the internal packages:
//
//   - workload construction: the Lublin–Feitelson synthetic model, an
//     HPC2N-like real-world stand-in, SWF ingestion, trace-file reading,
//     and load scaling;
//   - the nine scheduling algorithms of the paper (FCFS, EASY, GREEDY,
//     GREEDY-PMTN, GREEDY-PMTN-MIGR, DYNMCB8, DYNMCB8-PER,
//     DYNMCB8-ASAP-PER, DYNMCB8-STRETCH-PER), selected by name, plus open
//     registration of out-of-tree schedulers (RegisterAlgorithm);
//   - pluggable placement objectives (WithObjective, RegisterObjective):
//     every family's node selection is split into feasibility filtering
//     and scoring, the paper's rules are the default scores, and the
//     built-in cost/bestfit/worstfit objectives open cost-aware scheduling
//     on priced platforms (NodeSpec.Cost, the bimodal-priced mix,
//     LoadNodeMix inventories) with per-run cost accounting (Result.Cost);
//   - context-aware, observable simulation of a fractionally shared
//     cluster: Run takes a context and cancels at event granularity,
//     WithObserver taps every scheduling transition, and Stream turns the
//     hooks into a typed event channel for live consumers;
//   - full evaluation campaigns (Campaign): declarative scenario grids
//     executed on a bounded worker pool, streamed as JSONL records that
//     double as resumable checkpoints;
//   - the paper's metrics: bounded stretch, degradation factors, and
//     preemption/migration costs — both post hoc (Result) and as rolling
//     aggregates computed while a run executes (NewOnlineAggregator,
//     WithOnlineMetrics: quantile-sketched stretch percentiles, event
//     counters and cost burn with concurrent-safe snapshots, the layer
//     behind the dfrs-serve daemon's live metrics).
//
// The simulator also runs as a service: cmd/dfrs-serve (internal/serve)
// is an HTTP daemon that accepts campaign grids and trace uploads, runs
// them on a bounded pool, streams records, scheduling events and online
// snapshots over SSE, and resumes interrupted campaigns at cell
// granularity after a restart.
//
// A minimal run:
//
//	trace, _ := dfrs.SyntheticTrace(dfrs.SyntheticOptions{Seed: 1, Nodes: 128, Jobs: 200})
//	res, _ := dfrs.Run(ctx, trace, "dynmcb8-asap-per", dfrs.WithPenalty(300))
//	fmt.Println(res.MaxStretch())
//
// # Observable simulations
//
// Run is a blocking call, but every scheduling transition inside it —
// submission, dispatch, preemption, migration, completion, and each
// scheduler invocation with its wall-clock timing — can be observed
// live through the Observer interface (WithObserver) or consumed as a
// typed event channel:
//
//	events, wait := dfrs.Stream(ctx, trace, "greedy-pmtn")
//	for ev := range events {
//		fmt.Println(ev) // live progress, online metrics, dashboards
//	}
//	res, err := wait()
//
// Observation is zero-cost when absent: an unobserved run executes the
// identical hot path as before the hooks existed. Event sequences are a
// deterministic function of (trace, algorithm, cluster, penalty); only the
// wall-clock Elapsed field of scheduler invocations varies between runs.
// Cancelling the context stops a run between two simulation events and
// returns an error wrapping ctx.Err(), which is what makes long
// simulations safe to embed in servers: deadlines, SIGINT handlers and
// early termination all fall out of standard context plumbing.
//
// # Cluster resource model
//
// Every layer works against a shared cluster resource model
// (internal/cluster): each node has its own capacity vector over named
// resource dimensions in units of the paper's reference node. Dimensions
// 0 and 1 are always CPU and memory — the paper's pair — and further
// rigid dimensions (GPU, ...) are optional: WithResources("cpu", "mem",
// "gpu") adds them, SyntheticOptions.GPUFrac decorates synthetic
// workloads with GPU demands (Job.Extra), and the gpu-uniform/gpu-bimodal
// node mixes model partially GPU-equipped platforms. By default a trace
// runs on the paper's homogeneous platform — Trace.Nodes reference nodes
// of capacity 1.0 x 1.0 — and reproduces the published algorithms
// exactly. Heterogeneous platforms are selected with WithNodeMix, one of
// the deterministic named profiles listed by NodeMixes (for example
// "bimodal": alternating double-capacity fat nodes and reference nodes).
// A job whose per-task requirement in any dimension exceeds every node of
// the materialised cluster can never be placed; such traces are rejected
// up front with a typed UnschedulableError naming the job and the binding
// resource instead of starving at run time (and, similarly, with
// InsufficientCapacityError when a job's simultaneous tasks exceed the
// cluster's aggregate rigid capacity).
//
// # Placement objectives and cost-aware scheduling
//
// Every scheduling family answers "which nodes get this job?" in two
// steps: a feasibility filter (the paper's hard memory/GPU/CPU
// constraints, never relaxed) and a score over the feasible candidates.
// The paper hard-codes one score per family — greedy's least relative
// CPU load, the batch baselines' first-eligible-node rule, the MCB8
// kernel's index bin order — and those remain the defaults, locked
// bit-for-bit. WithObjective(name) swaps the score everywhere at once:
//
//	res, _ := dfrs.Run(ctx, trace, "greedy-pmtn",
//	    dfrs.WithNodeMix("bimodal-priced"), dfrs.WithObjective("cost"))
//	fmt.Println(res.Cost()) // cost-weighted occupancy, price units
//
// Built-ins: "cost" places tasks on the cheapest feasible nodes
// (per-node-type pricing via NodeSpec.Cost; the bimodal-priced mix and
// LoadNodeMix inventories with cost= fields declare prices), "bestfit"
// packs densely, "worstfit" spreads, and "loadbalance"/"first" spell out
// the family defaults. Campaign grids sweep objectives through the
// Objectives axis (cell keys gain an obj= segment; default-objective
// cells keep their historical keys), and out-of-tree objectives register
// with RegisterObjective, mirroring RegisterAlgorithm.
//
// # Campaigns
//
// Campaign runs the paper's nine-algorithm scenario grid — algorithms x
// workload families x loads x seeds x penalties x cluster sizes x node
// mixes — on the campaign engine: a declarative Grid expands into cells,
// executes on a bounded worker pool with deterministic per-cell RNG
// substreams (the key-sorted record set is byte-identical for any worker
// count), and streams each finished cell as a JSONL record that doubles as
// a checkpoint for resumable runs. Every cell runs on the federation
// orchestrator behind RunFederated: a single-cluster cell is a one-member
// federation, whose results equal a plain Run's. CampaignRun.Records
// delivers records live as cells finish; cancelling the campaign context
// stops within one cell per worker and leaves the checkpoint valid, so a
// resumed campaign completes exactly the missing cells. The dfrs-campaign command exposes
// this API directly, dfrs-exp renders the paper's tables and figures from
// the same engine, and examples/campaign and examples/streaming are
// runnable end-to-end walkthroughs.
//
// # Federated simulations
//
// RunFederated promotes the engine to N clusters advancing under one
// shared clock: each member of a FederationSpec is an independent
// simulator with its own node mix, scheduler, and objective, and a
// Dispatcher routes every arriving job to one member before it enters
// that cluster's queue. Built-in policies are "roundrobin" (the
// default), "queuedepth" (fewest jobs in system), and "costaware"
// (cheapest cluster with free capacity, falling back to the cheapest
// feasible one) — the cloud-bursting shape, keeping a priced elastic
// remote mix idle until the on-prem cluster saturates:
//
//	res, _ := dfrs.RunFederated(ctx, trace, dfrs.FederationSpec{
//	    Clusters: []dfrs.ClusterSpec{
//	        {Name: "onprem", NodeMix: "uniform", Nodes: 64},
//	        {Name: "cloud", NodeMix: "bimodal-priced", Nodes: 64},
//	    },
//	    Dispatcher: "costaware",
//	    Algorithm:  "greedy-pmtn",
//	})
//	fmt.Println(res.Dispatched(), res.Cost()) // per-cluster job counts, price units
//
// The orchestrator only decides which member advances next (events fire
// in global timestamp order; arrivals win ties), so a one-cluster
// federation is byte-identical to Run on the same trace under every
// dispatch policy — pinned by test. RunFederatedStream is the streaming
// counterpart, ParseClusters parses the CLI topology notation
// ("uniform:64+bimodal-priced:64", or a bare count for identical
// members), RegisterDispatcher adds out-of-tree policies, and campaign
// grids sweep Topologies x Dispatchers axes (cell keys gain fed= and
// disp= segments; non-federated cells keep their historical keys). The
// dfrs-sim -clusters/-dispatch flags and examples/federation exercise
// the cloud-bursting scenario end to end.
package dfrs

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/hpc2n"
	"repro/internal/lublin"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/swf"
	"repro/internal/workload"

	// Register every scheduling algorithm.
	_ "repro/internal/sched/batch"
	_ "repro/internal/sched/gang"
	_ "repro/internal/sched/greedy"
	_ "repro/internal/sched/mcb"
)

// Trace is a workload destined for a homogeneous cluster. It wraps the
// internal representation; construct one with SyntheticTrace,
// HPC2NLikeTraces, FromSWF, ReadTrace or FromJobs.
type Trace struct {
	t *workload.Trace
}

// Job describes one job: Tasks parallel tasks submitted at Submit seconds,
// each needing the CPUNeed fraction of a node's CPU and the MemReq fraction
// of its memory, running for ExecTime seconds at full speed.
type Job = workload.Job

// Name returns the trace's name.
func (t Trace) Name() string { return t.t.Name }

// Nodes returns the cluster size the trace targets.
func (t Trace) Nodes() int { return t.t.Nodes }

// Jobs returns a copy of the trace's jobs.
func (t Trace) Jobs() []Job { return append([]Job(nil), t.t.Jobs...) }

// OfferedLoad returns the trace's offered load (total work over cluster
// capacity across the submission span).
func (t Trace) OfferedLoad() float64 { return t.t.OfferedLoad() }

// Encode writes the trace in the dfrs text format. The output round-trips
// through ReadTrace and RunStream, so a trace can be generated once, stored,
// and later replayed without rematerializing its job list in memory.
func (t Trace) Encode(w io.Writer) error { return t.t.Encode(w) }

// ScaleToLoad returns a copy of the trace with inter-arrival times rescaled
// so its offered load matches target, as in the paper's construction of the
// load-0.1 through load-0.9 instances.
func (t Trace) ScaleToLoad(target float64) (Trace, error) {
	scaled, err := t.t.ScaleToLoad(target)
	if err != nil {
		return Trace{}, err
	}
	return Trace{t: scaled}, nil
}

// SyntheticOptions configures the Lublin–Feitelson generator.
type SyntheticOptions struct {
	Seed  uint64
	Nodes int // cluster size (the paper uses 128)
	Jobs  int // number of jobs (the paper uses 1000)
	Name  string
	// GPUFrac, when positive, gives that fraction of the jobs a per-task
	// GPU demand (resource dimension 2) drawn uniformly from [0.1, 0.5] of
	// a reference node's GPU capacity, from a dedicated deterministic
	// substream of Seed. Zero keeps the paper's two-resource workload.
	GPUFrac float64
	// GPUCorr, in [-1, 1], correlates the GPU demands drawn by GPUFrac
	// with each job's per-task memory requirement
	// (workload.AttachGPUDemandCorrelated): positive values make
	// memory-hungry jobs GPU-hungry, negative values invert the relation,
	// and the magnitude is the mixing weight. Zero keeps the independent
	// draws, byte-identical to earlier releases.
	GPUCorr float64
}

// SyntheticTrace draws a synthetic trace from the Lublin–Feitelson model
// annotated with the paper's CPU needs and memory requirements, and
// optionally with a GPU-demand axis (SyntheticOptions.GPUFrac).
func SyntheticTrace(opt SyntheticOptions) (Trace, error) {
	if opt.Nodes <= 0 {
		opt.Nodes = 128
	}
	if opt.Jobs <= 0 {
		opt.Jobs = 1000
	}
	if opt.Name == "" {
		opt.Name = fmt.Sprintf("lublin-seed%d", opt.Seed)
	}
	tr, err := lublin.GenerateTrace(rng.New(opt.Seed), lublin.DefaultParams(opt.Nodes), opt.Jobs, opt.Name)
	if err != nil {
		return Trace{}, err
	}
	if opt.GPUFrac > 0 {
		tr, err = workload.AttachGPUDemandCorrelated(tr, rng.New(opt.Seed).Split("gpu"),
			opt.GPUFrac, opt.GPUCorr, workload.GPUDemandLo, workload.GPUDemandHi)
		if err != nil {
			return Trace{}, err
		}
	} else if opt.GPUCorr != 0 {
		return Trace{}, fmt.Errorf("dfrs: GPUCorr %g requires GPUFrac > 0", opt.GPUCorr)
	}
	return Trace{t: tr}, nil
}

// HPC2NLikeTraces synthesizes the real-world stand-in workload (see
// DESIGN.md section 4) and returns it split into 1-week instances, as the
// paper splits the HPC2N log.
func HPC2NLikeTraces(seed uint64, weeks int) ([]Trace, error) {
	p := hpc2n.DefaultSynthParams()
	if weeks > 0 {
		p.Weeks = weeks
	}
	ws, _, err := hpc2n.WeeklyTraces(rng.New(seed), p)
	if err != nil {
		return nil, err
	}
	out := make([]Trace, len(ws))
	for i, w := range ws {
		out[i] = Trace{t: w}
	}
	return out, nil
}

// FromSWF parses a Standard Workload Format stream and applies the paper's
// HPC2N preprocessing rules (Section IV-C), so a genuine archive log can be
// replayed through the simulator.
func FromSWF(r io.Reader, name string) (Trace, error) {
	log, err := swf.Parse(r)
	if err != nil {
		return Trace{}, err
	}
	tr, _, err := hpc2n.Preprocess(log, name)
	if err != nil {
		return Trace{}, err
	}
	return Trace{t: tr}, nil
}

// ReadTrace parses the dfrs trace text format (the output of dfrs-gen and
// Trace encoding) from r.
func ReadTrace(r io.Reader) (Trace, error) {
	tr, err := workload.ReadTrace(r)
	if err != nil {
		return Trace{}, err
	}
	return Trace{t: tr}, nil
}

// FromJobs builds a trace from explicit jobs for a cluster of the given
// size; nodeMemGB is used only for migration-bandwidth accounting.
func FromJobs(name string, nodes int, nodeMemGB float64, jobs []Job) (Trace, error) {
	tr := &workload.Trace{Name: name, Nodes: nodes, NodeMemGB: nodeMemGB, Jobs: append([]Job(nil), jobs...)}
	tr.SortBySubmit()
	if err := tr.Validate(); err != nil {
		return Trace{}, err
	}
	return Trace{t: tr}, nil
}

// Algorithms lists every registered scheduling algorithm name, including
// schedulers added through RegisterAlgorithm.
func Algorithms() []string { return sched.Names() }

// KnownAlgorithm reports whether name is a registered algorithm.
func KnownAlgorithm(name string) bool { return sched.Registered(name) }

// NodeMixes lists the named node-mix profiles accepted by WithNodeMix
// ("uniform", "bimodal", "powerlaw", ...).
func NodeMixes() []string { return cluster.ProfileNames() }

// ValidNodeMix reports whether name is a known node-mix profile; the empty
// string and "uniform" both select the paper's homogeneous platform.
func ValidNodeMix(name string) bool { return cluster.ValidProfile(name) }

// BoundedStretch exposes the paper's bounded-stretch metric:
// max(turnaround, 30s) / max(execTime, 30s).
func BoundedStretch(turnaround, execTime float64) float64 {
	return metrics.BoundedStretch(turnaround, execTime)
}

// DegradationFactors converts per-algorithm maximum stretches measured on
// the same instance into degradation factors (ratio to the instance's best
// algorithm), the quantity plotted in Figure 1 and tabulated in Table I.
func DegradationFactors(maxStretchByAlgorithm map[string]float64) (map[string]float64, error) {
	return metrics.DegradationFactors(maxStretchByAlgorithm)
}
