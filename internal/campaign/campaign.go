// Package campaign is the experiment-orchestration engine behind every
// evaluation in this repository. A campaign is a declarative Grid — the
// cross product of algorithms, workload families, offered-load levels,
// seeds, rescheduling penalties, cluster sizes and node-mix profiles
// (heterogeneous platforms; internal/cluster) — that expands into
// independent Cells, each naming exactly one simulation. A Runner executes
// the cells on a bounded worker pool, materialising each cell's trace from
// a deterministic RNG substream (rng.Source.Split keyed by seed and trace
// index) so that results are bit-identical regardless of worker count or
// scheduling order, and streams each finished cell as one JSONL Record to a
// pluggable Sink.
//
// Because every cell has a canonical Key and every record carries it,
// campaigns checkpoint for free: re-running a grid with the keys of an
// existing output file in Runner.Skip completes only the missing cells.
// The paper's figures and tables (internal/experiments) and the
// dfrs-campaign CLI are thin grid definitions plus record aggregation on
// top of this package.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/federation"
	"repro/internal/hpc2n"
	"repro/internal/placement"
)

// Family kinds understood by the trace materialiser.
const (
	// FamilyLublin is the Lublin–Feitelson synthetic workload model, the
	// paper's 100-trace campaign family.
	FamilyLublin = "lublin"
	// FamilyHPC2N is the HPC2N-like real-world stand-in, split into
	// weekly segments as in Section IV-C. Its cluster size is fixed by
	// the model, so grid Nodes values are ignored for this family.
	FamilyHPC2N = "hpc2n"
)

// defaultNodes is the cluster size of lublin cells when the grid's Nodes
// axis is empty: the paper's 128-node platform.
const defaultNodes = 128

// Size limits of a grid. A grid is untrusted input (dfrs-serve takes it
// over HTTP) and is expanded, then run, in memory, so every size it names
// is bounded. Each limit sits far above the paper-scale presets (Figure 1
// at paper scale is 100 traces x 9 loads x 9 algorithms = 8,100 cells of
// 1,000-job traces).
const (
	// MaxCells bounds the cells a grid may expand to.
	MaxCells = 1 << 20
	// MaxJobsPerTrace bounds JobsPerTrace.
	MaxJobsPerTrace = 1 << 20
)

// Unscaled is the Load value meaning "do not rescale the trace" (the
// paper's unscaled instances of Table I).
const Unscaled = 0.0

// Family selects one workload family and its per-family sweep dimensions.
type Family struct {
	// Kind is FamilyLublin or FamilyHPC2N.
	Kind string `json:"kind"`
	// Count is the number of traces (lublin) or weekly segments (hpc2n).
	Count int `json:"count"`
	// Loads optionally overrides Grid.Loads for this family; an entry of
	// Unscaled (0) keeps the trace at its natural offered load.
	Loads []float64 `json:"loads,omitempty"`
}

// Grid declares a campaign: the full cross product of its dimensions.
// Empty dimensions fall back to single-element defaults (see Cells) so a
// minimal grid needs only Algorithms and one Family.
type Grid struct {
	// Name labels the campaign in logs and reports.
	Name string `json:"name"`
	// Seeds are the root seeds; every seed yields an independent set of
	// base traces. Empty means {42}.
	Seeds []uint64 `json:"seeds"`
	// Algorithms are registered scheduler names (internal/sched).
	Algorithms []string `json:"algorithms"`
	// Families are the workload families to sweep.
	Families []Family `json:"families"`
	// Loads are the offered-load levels applied to families without their
	// own; empty means {Unscaled}.
	Loads []float64 `json:"loads"`
	// Penalties are rescheduling penalties in seconds; empty means {0}.
	Penalties []float64 `json:"penalties"`
	// Nodes are cluster sizes for the lublin family; empty means {128},
	// the paper's platform.
	Nodes []int `json:"nodes"`
	// NodeMixes are node-mix profile names (internal/cluster.Profile)
	// giving each cell's per-node capacities; empty means the homogeneous
	// platform. "uniform" and "" are aliases for homogeneous and expand to
	// the same cell keys as grids predating the heterogeneity axis, so old
	// checkpoints stay resumable. Three-dimensional profiles ("gpu-uniform",
	// "gpu-bimodal") give every cell a GPU capacity axis.
	NodeMixes []string `json:"node_mixes,omitempty"`
	// GPUFrac, when positive, gives that fraction of each cell's jobs a
	// per-task GPU demand (resource dimension 2) drawn from the cell's
	// deterministic RNG substream. Cells with a two-dimensional node mix
	// are extended with a unit GPU capacity per node so the demand is
	// satisfiable. Zero keeps the paper's two-resource workloads and the
	// pre-GPU cell keys.
	GPUFrac float64 `json:"gpu_frac,omitempty"`
	// GPUCorr correlates the GPU demands drawn by GPUFrac with each job's
	// memory requirement (workload.AttachGPUDemandCorrelated): positive
	// values make memory-hungry jobs GPU-hungry, negative values invert
	// the relation, magnitude is the mixing weight. Zero keeps the
	// independent draws — and the pre-correlation cell keys — and is the
	// only valid value when GPUFrac is zero.
	GPUCorr float64 `json:"gpu_corr,omitempty"`
	// Objectives are placement-objective names (internal/placement) to
	// sweep: each cell's schedulers choose among feasible nodes by the
	// cell's objective instead of their family defaults. The empty string
	// is the per-family default (the paper's published rules) and expands
	// to the same cell keys as grids predating the objective axis, so old
	// checkpoints stay resumable. Empty means {""}.
	Objectives []string `json:"objectives,omitempty"`
	// Topologies are federated-cluster topology specs
	// (federation.ParseTopology notation: a bare count like "2", or a
	// member list like "uniform:128+bimodal-priced:64"). Each named
	// topology runs every cell as a federation of those clusters — the
	// cell's trace becomes the global arrival feed, its node count and
	// mix the defaults for count-form specs — crossed with Dispatchers.
	// Empty means single-cluster cells only, with the pre-federation
	// keys.
	Topologies []string `json:"topologies,omitempty"`
	// Dispatchers are federation dispatch-policy names routing arrivals
	// across a topology's clusters; empty means the default policy.
	// Ignored (and rejected) without Topologies.
	Dispatchers []string `json:"dispatchers,omitempty"`
	// JobsPerTrace is the lublin trace length; 0 means 1000 (the paper's).
	JobsPerTrace int `json:"jobs_per_trace"`
	// Check enables per-event simulator invariant validation (slow).
	Check bool `json:"check"`
	// Timing records wall-clock scheduler timing aggregates in each
	// record (Record.Timing). Hook times are sampled through an observer
	// of the cell's SchedulerInvoked events, which is the only path that
	// times hooks. Timing data is inherently nondeterministic;
	// leave it off for campaigns whose output must be reproducible
	// byte-for-byte.
	Timing bool `json:"timing"`
}

// ParseGrid decodes and validates a JSON grid declaration, the submission
// format of the dfrs-serve daemon. Unknown fields are rejected so that a
// typoed dimension name fails the submission instead of silently running
// the default sweep.
func ParseGrid(data []byte) (*Grid, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("campaign: parse grid: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// Remaining counts the cells a resumed run still has to execute: the
// grid's cells whose keys are not in the skip set (typically the keys read
// back from a JSONL checkpoint by OpenCheckpoint or ReadKeys).
func (g *Grid) Remaining(skip map[string]bool) int {
	n := 0
	for _, c := range g.Cells() {
		if !skip[c.Key()] {
			n++
		}
	}
	return n
}

// Cell is one point of an expanded grid: exactly one simulation.
type Cell struct {
	Seed     uint64  `json:"seed"`
	Family   string  `json:"family"`
	TraceIdx int     `json:"trace_idx"`
	Load     float64 `json:"load"` // Unscaled (0) or the target offered load
	Nodes    int     `json:"nodes"`
	Jobs     int     `json:"jobs"`
	// NodeMix is the canonical node-mix profile name; empty means the
	// homogeneous platform.
	NodeMix string `json:"node_mix,omitempty"`
	// GPUFrac is the fraction of the cell's jobs carrying a GPU demand;
	// zero means the paper's two-resource workload.
	GPUFrac float64 `json:"gpu_frac,omitempty"`
	// GPUCorr is the memory correlation of those GPU demands; zero means
	// independent draws.
	GPUCorr float64 `json:"gpu_corr,omitempty"`
	// Objective is the cell's placement-objective name; empty means every
	// scheduler family's default rule (the paper's behaviour).
	Objective string `json:"objective,omitempty"`
	// Topology, when non-empty, runs the cell as a federation of the
	// clusters it describes (federation.ParseTopology notation), with
	// Dispatch naming the routing policy. Empty means one cluster of the
	// cell's node mix (run as a one-member federation).
	Topology string `json:"topology,omitempty"`
	// Dispatch is the federation dispatch policy; empty outside
	// federated cells.
	Dispatch  string  `json:"dispatch,omitempty"`
	Penalty   float64 `json:"penalty"`
	Algorithm string  `json:"algorithm"`
}

// Key returns the cell's canonical identity, the string used for
// checkpoint/resume matching. It is stable across runs and versions of the
// expansion order; homogeneous two-resource cells keep the
// pre-heterogeneity, pre-GPU key format so existing checkpoints remain
// valid.
func (c Cell) Key() string {
	return fmt.Sprintf("seed=%d/family=%s/trace=%d/load=%s/nodes=%d/jobs=%d%s%s%s%s%s/pen=%s/alg=%s",
		c.Seed, c.Family, c.TraceIdx, ftoa(c.Load), c.Nodes, c.Jobs,
		mixKey(c.NodeMix), gpuKey(c.GPUFrac, c.GPUCorr), objKey(c.Objective),
		fedKey(c.Topology), dispKey(c.Dispatch), ftoa(c.Penalty), c.Algorithm)
}

// mixKey renders the node-mix key segment; homogeneous cells contribute
// nothing so their keys match grids predating the heterogeneity axis.
func mixKey(mix string) string {
	if mix == "" {
		return ""
	}
	return "/mix=" + mix
}

// gpuKey renders the GPU-axis key segment; two-resource cells contribute
// nothing so their keys match grids predating the GPU axis, and
// uncorrelated GPU cells keep the pre-correlation format.
func gpuKey(frac, corr float64) string {
	if frac == 0 {
		return ""
	}
	key := "/gpu=" + ftoa(frac)
	if corr != 0 {
		key += "/corr=" + ftoa(corr)
	}
	return key
}

// objKey renders the objective-axis key segment; default-objective cells
// contribute nothing so their keys match grids predating the objective
// axis.
func objKey(obj string) string {
	if obj == "" {
		return ""
	}
	return "/obj=" + obj
}

// fedKey renders the federation-topology key segment; single-cluster
// cells contribute nothing so their keys match grids predating the
// federation axis.
func fedKey(topology string) string {
	if topology == "" {
		return ""
	}
	return "/fed=" + topology
}

// dispKey renders the dispatch-policy key segment, present exactly when
// the cell is federated.
func dispKey(dispatch string) string {
	if dispatch == "" {
		return ""
	}
	return "/disp=" + dispatch
}

// ftoa formats a float with the shortest exact representation so keys are
// canonical.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Validate checks the grid's declarative consistency (family kinds, counts
// and load ranges); algorithm names are resolved at run time against the
// scheduler registry.
func (g *Grid) Validate() error {
	if len(g.Algorithms) == 0 {
		return fmt.Errorf("campaign: grid %q has no algorithms", g.Name)
	}
	if len(g.Families) == 0 {
		return fmt.Errorf("campaign: grid %q has no workload families", g.Name)
	}
	for _, f := range g.Families {
		switch f.Kind {
		case FamilyLublin, FamilyHPC2N:
		default:
			return fmt.Errorf("campaign: unknown workload family %q", f.Kind)
		}
		if f.Count <= 0 {
			return fmt.Errorf("campaign: family %s has count %d", f.Kind, f.Count)
		}
		for _, l := range f.Loads {
			if l < 0 || l > 1 {
				return fmt.Errorf("campaign: family %s load %g outside [0,1]", f.Kind, l)
			}
		}
	}
	for _, l := range g.Loads {
		if l < 0 || l > 1 {
			return fmt.Errorf("campaign: load %g outside [0,1]", l)
		}
	}
	for _, p := range g.Penalties {
		if p < 0 {
			return fmt.Errorf("campaign: negative penalty %g", p)
		}
	}
	for _, n := range g.Nodes {
		if n <= 0 {
			return fmt.Errorf("campaign: non-positive cluster size %d", n)
		}
		if n > cluster.MaxNodes {
			return fmt.Errorf("campaign: cluster size %d above the limit of %d", n, cluster.MaxNodes)
		}
	}
	for _, mix := range g.NodeMixes {
		if !cluster.ValidProfile(mix) {
			return fmt.Errorf("campaign: unknown node-mix profile %q (known: %v)", mix, cluster.ProfileNames())
		}
	}
	if !(g.GPUFrac >= 0 && g.GPUFrac <= 1) { // negated so NaN is rejected too
		return fmt.Errorf("campaign: gpu job fraction %g outside [0,1]", g.GPUFrac)
	}
	if !(g.GPUCorr >= -1 && g.GPUCorr <= 1) { // negated so NaN is rejected too
		return fmt.Errorf("campaign: gpu memory correlation %g outside [-1,1]", g.GPUCorr)
	}
	if g.GPUCorr != 0 && g.GPUFrac == 0 {
		return fmt.Errorf("campaign: gpu_corr %g requires gpu_frac > 0", g.GPUCorr)
	}
	for _, obj := range g.Objectives {
		if !placement.Known(obj) {
			return fmt.Errorf("campaign: unknown placement objective %q (known: %v)", obj, placement.Names())
		}
	}
	if len(g.Topologies) > 0 {
		// A bare member count ("4") and members without a count take the
		// cell's cluster size. ParseTopology's checks only tighten as that
		// size grows (member and total node counts rise with it), so a
		// topology that parses at the largest size a cell can get parses
		// at every one, and one parse per topology decides.
		n := g.maxCellNodes()
		for _, topo := range g.Topologies {
			if _, err := federation.ParseTopology(topo, n, ""); err != nil {
				return fmt.Errorf("campaign: topology %q on %d-node cells: %w", topo, n, err)
			}
		}
	}
	for _, disp := range g.Dispatchers {
		if !federation.Known(disp) {
			return fmt.Errorf("campaign: unknown dispatcher %q (known: %v)", disp, federation.Names())
		}
	}
	if len(g.Dispatchers) > 0 && len(g.Topologies) == 0 {
		return fmt.Errorf("campaign: dispatchers %v without topologies", g.Dispatchers)
	}
	if g.JobsPerTrace < 0 {
		return fmt.Errorf("campaign: negative jobs per trace %d", g.JobsPerTrace)
	}
	if g.JobsPerTrace > MaxJobsPerTrace {
		return fmt.Errorf("campaign: %d jobs per trace, above the limit of %d", g.JobsPerTrace, MaxJobsPerTrace)
	}
	if n := g.cellBound(); n > MaxCells {
		return fmt.Errorf("campaign: grid %q expands to up to %d cells, above the limit of %d", g.Name, n, MaxCells)
	}
	return nil
}

// maxCellNodes returns the largest cluster size a cell of g can get: the
// Nodes axis (defaultNodes when empty) for lublin families, hpc2n.Nodes
// for hpc2n ones.
func (g *Grid) maxCellNodes() int {
	n := 0
	for _, f := range g.Families {
		switch {
		case f.Kind == FamilyHPC2N:
			n = max(n, hpc2n.Nodes)
		case len(g.Nodes) == 0:
			n = max(n, defaultNodes)
		default:
			n = max(n, slices.Max(g.Nodes))
		}
	}
	return n
}

// cellBound bounds len(g.Cells()) from above without expanding the grid:
// the product of the axis lengths as Cells expands them (an empty axis
// expands to one default value), summed over families, saturating at
// math.MaxInt. Deduplication only lowers the real count.
func (g *Grid) cellBound() int {
	axis := func(n int) int { return max(n, 1) }
	perTrace := satMul(axis(len(g.NodeMixes)), axis(len(g.Objectives)), axis(len(g.Penalties)), len(g.Algorithms))
	if len(g.Topologies) > 0 {
		perTrace = satMul(perTrace, len(g.Topologies), axis(len(g.Dispatchers)))
	}
	traces := 0
	for _, f := range g.Families {
		loads, nodes := axis(len(g.Loads)), axis(len(g.Nodes))
		if len(f.Loads) > 0 {
			loads = len(f.Loads)
		}
		if f.Kind == FamilyHPC2N {
			nodes = 1
		}
		if c := satMul(f.Count, loads, nodes); c > math.MaxInt-traces {
			traces = math.MaxInt
		} else {
			traces += c
		}
	}
	return satMul(axis(len(g.Seeds)), traces, perTrace)
}

// satMul multiplies non-negative factors, saturating at math.MaxInt.
func satMul(xs ...int) int {
	p := 1
	for _, x := range xs {
		if x != 0 && p > math.MaxInt/x {
			return math.MaxInt
		}
		p *= x
	}
	return p
}

// Cells expands the grid into its cells in a deterministic order:
// seed-major, then family, trace index, load, nodes, node mix, objective,
// penalty, algorithm.
func (g *Grid) Cells() []Cell {
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{42}
	}
	defLoads := g.Loads
	if len(defLoads) == 0 {
		defLoads = []float64{Unscaled}
	}
	penalties := g.Penalties
	if len(penalties) == 0 {
		penalties = []float64{0}
	}
	nodes := g.Nodes
	if len(nodes) == 0 {
		nodes = []int{defaultNodes}
	}
	mixes := make([]string, 0, len(g.NodeMixes))
	for _, mix := range g.NodeMixes {
		mixes = append(mixes, cluster.NormalizeProfile(mix))
	}
	if len(mixes) == 0 {
		mixes = []string{""}
	}
	objectives := g.Objectives
	if len(objectives) == 0 {
		objectives = []string{""}
	}
	// The federation axis: single-cluster cells pair the empty topology
	// with the empty dispatch (keeping pre-federation keys); named
	// topologies cross with the dispatch policies, which are named
	// explicitly in keys (the default stands in when none are given).
	topologies := g.Topologies
	if len(topologies) == 0 {
		topologies = []string{""}
	}
	dispatchers := g.Dispatchers
	if len(dispatchers) == 0 {
		dispatchers = []string{federation.DefaultDispatcher}
	}
	jobs := g.JobsPerTrace
	if jobs == 0 {
		jobs = 1000
	}
	// Overlapping families (e.g. the same lublin traces swept scaled and
	// unscaled) may expand to identical cells; keep the first occurrence so
	// every key names exactly one simulation.
	seen := map[string]bool{}
	var cells []Cell
	for _, seed := range seeds {
		for _, fam := range g.Families {
			loads := fam.Loads
			if len(loads) == 0 {
				loads = defLoads
			}
			// The HPC2N-like model fixes its own cluster size and trace
			// length; collapse both dimensions to 0 so identical
			// simulations never expand under distinct keys.
			famNodes, famJobs := nodes, jobs
			if fam.Kind == FamilyHPC2N {
				famNodes, famJobs = []int{0}, 0
			}
			for idx := 0; idx < fam.Count; idx++ {
				for _, load := range loads {
					for _, n := range famNodes {
						for _, mix := range mixes {
							for _, obj := range objectives {
								for _, topo := range topologies {
									cellDisps := dispatchers
									if topo == "" {
										cellDisps = []string{""}
									}
									for _, disp := range cellDisps {
										for _, pen := range penalties {
											for _, alg := range g.Algorithms {
												c := Cell{
													Seed:      seed,
													Family:    fam.Kind,
													TraceIdx:  idx,
													Load:      load,
													Nodes:     n,
													Jobs:      famJobs,
													NodeMix:   mix,
													GPUFrac:   g.GPUFrac,
													GPUCorr:   g.GPUCorr,
													Objective: obj,
													Topology:  topo,
													Dispatch:  disp,
													Penalty:   pen,
													Algorithm: alg,
												}
												if key := c.Key(); !seen[key] {
													seen[key] = true
													cells = append(cells, c)
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// InstanceKey identifies the instance a cell belongs to: everything except
// the algorithm. Records sharing an instance key ran identical traces on
// identical clusters under the same placement objective, so their
// stretches are comparable — this is the grouping behind degradation
// factors (cells swept across objectives compare algorithms within each
// objective, never a cost-constrained run against an unconstrained one).
func (c Cell) InstanceKey() string {
	return fmt.Sprintf("seed=%d/family=%s/trace=%d/load=%s/nodes=%d/jobs=%d%s%s%s%s%s/pen=%s",
		c.Seed, c.Family, c.TraceIdx, ftoa(c.Load), c.Nodes, c.Jobs,
		mixKey(c.NodeMix), gpuKey(c.GPUFrac, c.GPUCorr), objKey(c.Objective),
		fedKey(c.Topology), dispKey(c.Dispatch), ftoa(c.Penalty))
}

// TimingAgg aggregates the Section V scheduler-timing samples of one run so
// that exact campaign-wide statistics can be merged from per-cell records.
// All wall-clock quantities are in seconds. Timing data is nondeterministic.
type TimingAgg struct {
	Samples   int     `json:"samples"`
	Sum       float64 `json:"sum"`
	SumSq     float64 `json:"sum_sq"`
	Min       float64 `json:"min"`
	Max       float64 `json:"max"`
	LargeN    int     `json:"large_n"` // samples with more than 10 jobs in system
	LargeSum  float64 `json:"large_sum"`
	LargeSqSm float64 `json:"large_sum_sq"`
	LargeMin  float64 `json:"large_min"`
	LargeMax  float64 `json:"large_max"`
	SmallFast int     `json:"small_fast"` // <=10 jobs and <1ms
	MaxJobs   int     `json:"max_jobs"`
}

// Record is the JSONL checkpoint unit: one finished cell plus the metrics
// every report in this repository aggregates from. All fields except Timing
// are deterministic functions of the cell.
type Record struct {
	Key      string  `json:"key"`
	Seed     uint64  `json:"seed"`
	Family   string  `json:"family"`
	Trace    string  `json:"trace"`
	TraceIdx int     `json:"trace_idx"`
	Load     float64 `json:"load"`
	Nodes    int     `json:"nodes"`
	Jobs     int     `json:"jobs"`
	// NodeMix is the cell's node-mix profile; omitted for homogeneous
	// cells so pre-heterogeneity outputs are byte-identical.
	NodeMix string `json:"node_mix,omitempty"`
	// GPUFrac is the cell's GPU-demand fraction; omitted for two-resource
	// cells so pre-GPU outputs are byte-identical.
	GPUFrac float64 `json:"gpu_frac,omitempty"`
	// GPUCorr is the cell's GPU/memory demand correlation; omitted for
	// uncorrelated cells so earlier outputs are byte-identical.
	GPUCorr float64 `json:"gpu_corr,omitempty"`
	// Objective is the cell's placement objective; omitted for
	// default-objective cells so pre-objective outputs are byte-identical.
	Objective string  `json:"objective,omitempty"`
	Penalty   float64 `json:"penalty"`
	Algorithm string  `json:"algorithm"`
	// Topology and Dispatch identify federated cells (the parsed cluster
	// topology and the dispatch policy); omitted for single-cluster cells
	// so pre-federation outputs are byte-identical.
	Topology string `json:"topology,omitempty"`
	Dispatch string `json:"dispatch,omitempty"`

	MaxStretch  float64 `json:"max_stretch"`
	AvgStretch  float64 `json:"avg_stretch"`
	Makespan    float64 `json:"makespan"`
	Utilization float64 `json:"utilization"`
	Finished    int     `json:"finished"`
	Events      int     `json:"events"`
	// Cost is the run's cost-weighted occupancy (hosting node's cost rate
	// x occupied seconds, accrued once per task placement; see
	// sim.Result.NodeCostSeconds). Omitted on unpriced clusters so
	// pre-pricing outputs are byte-identical.
	Cost float64 `json:"cost,omitempty"`
	// Dispatched counts the jobs routed to each member cluster of a
	// federated cell, in cluster order; omitted for single-cluster cells.
	Dispatched []int `json:"dispatched,omitempty"`

	PmtnGBps    float64 `json:"pmtn_gbps"`
	MigGBps     float64 `json:"mig_gbps"`
	PmtnPerHour float64 `json:"pmtn_per_hour"`
	MigPerHour  float64 `json:"mig_per_hour"`
	PmtnPerJob  float64 `json:"pmtn_per_job"`
	MigPerJob   float64 `json:"mig_per_job"`

	Timing *TimingAgg `json:"timing,omitempty"`
}

// InstanceKey groups records that ran the same trace under different
// algorithms; see Cell.InstanceKey.
func (r Record) InstanceKey() string {
	return Cell{Seed: r.Seed, Family: r.Family, TraceIdx: r.TraceIdx, Load: r.Load,
		Nodes: r.Nodes, Jobs: r.Jobs, NodeMix: r.NodeMix, GPUFrac: r.GPUFrac,
		GPUCorr: r.GPUCorr, Objective: r.Objective, Penalty: r.Penalty,
		Topology: r.Topology, Dispatch: r.Dispatch}.InstanceKey()
}

// SortRecords orders records by cell key, the canonical presentation order.
func SortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
}
