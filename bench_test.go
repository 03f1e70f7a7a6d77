// Benchmarks regenerating every table and figure of the paper, plus the
// ablation studies of DESIGN.md. Each benchmark executes the corresponding
// experiment at a reduced-but-representative scale (full-paper scale is
// CPU-hours; use cmd/dfrs-exp with -traces 100 -jobs 1000 for that) and
// reports the experiment's headline quantities as custom benchmark metrics.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
package dfrs_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	dfrs "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/lublin"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/vectorpack"
)

// benchConfig is the shared reduced-scale campaign configuration.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Traces = 1
	cfg.JobsPerTrace = 100
	cfg.Nodes = 128
	cfg.Loads = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	cfg.HPC2NWeeks = 2
	return cfg
}

// BenchmarkFigure1a regenerates Figure 1(a): average degradation factor vs
// load with no rescheduling penalty. The reported metrics are the mean
// degradation of the batch baseline (EASY) and the periodic DFRS winner
// (DYNMCB8-ASAP-PER) averaged over all loads — the paper's headline gap.
func BenchmarkFigure1a(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(context.Background(), cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(meanOf(res.Mean["easy"]), "easy-deg")
		b.ReportMetric(meanOf(res.Mean["dynmcb8-asap-per"]), "asapper-deg")
		b.ReportMetric(meanOf(res.Mean["dynmcb8"]), "dynmcb8-deg")
	}
}

// BenchmarkFigure1b regenerates Figure 1(b): the same sweep under the
// 5-minute rescheduling penalty.
func BenchmarkFigure1b(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(context.Background(), cfg, experiments.PaperPenalty)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(meanOf(res.Mean["easy"]), "easy-deg")
		b.ReportMetric(meanOf(res.Mean["dynmcb8-asap-per"]), "asapper-deg")
		b.ReportMetric(meanOf(res.Mean["dynmcb8"]), "dynmcb8-deg")
	}
}

// BenchmarkTableI regenerates Table I: degradation statistics over scaled
// synthetic, unscaled synthetic, and HPC2N-like workloads at the 5-minute
// penalty. Reported metrics are the average degradation of EASY and
// DYNMCB8-ASAP-PER on the scaled set.
func BenchmarkTableI(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableI(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Scaled["easy"].Mean, "easy-scaled-deg")
		b.ReportMetric(res.Scaled["dynmcb8-asap-per"].Mean, "asapper-scaled-deg")
		b.ReportMetric(res.RealWorld["greedy-pmtn"].Mean, "gpmtn-real-deg")
	}
}

// BenchmarkTableII regenerates Table II: preemption/migration bandwidth and
// operation rates on high-load scaled traces. Reported metrics are
// DYNMCB8-PER's average preemption bandwidth (GB/s) and migrations per
// hour, the two quantities the paper discusses.
func BenchmarkTableII(b *testing.B) {
	cfg := benchConfig()
	cfg.Algorithms = experiments.PreemptingAlgorithms
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableII(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		row := res.Streams["dynmcb8-per"]
		b.ReportMetric(row[0].Mean, "per-pmtn-GBps")
		b.ReportMetric(row[3].Mean, "per-mig-perhour")
	}
}

// BenchmarkTimingStudy regenerates the Section V measurement: time for
// DYNMCB8 to compute an allocation per scheduling event.
func BenchmarkTimingStudy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.TimingStudy(context.Background(), cfg, "dynmcb8")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.All.Mean*1e3, "alloc-ms-avg")
		b.ReportMetric(res.All.Max*1e3, "alloc-ms-max")
		b.ReportMetric(100*res.SmallFastFrac, "small-fast-%")
	}
}

// BenchmarkMCB8Allocation measures one min-yield maximization (binary
// search over MCB8 packings) on a representative high-load job mix — the
// inner loop of every DYNMCB8 scheduling event, reported per allocation.
func BenchmarkMCB8Allocation(b *testing.B) {
	tr, err := lublin.GenerateTrace(rng.New(1), lublin.DefaultParams(128), 60, "bench")
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]core.JobSpec, len(tr.Jobs))
	for i, j := range tr.Jobs {
		specs[i] = core.JobSpec{ID: i, Tasks: j.Tasks, CPUNeed: j.CPUNeed, MemReq: j.MemReq}
	}
	// A random 60-job slice may be memory-infeasible on 128 nodes; shed
	// jobs from the tail until the packing exists, exactly as the
	// DYNMCB8 schedulers do.
	for len(specs) > 0 {
		if _, ok := core.MaxMinYield(specs, cluster.Homogeneous(128), vectorpack.MCB8{}); ok {
			break
		}
		specs = specs[:len(specs)-1]
	}
	if len(specs) == 0 {
		b.Fatal("no feasible job subset")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := core.MaxMinYield(specs, cluster.Homogeneous(128), vectorpack.MCB8{}); !ok {
			b.Fatal("bench instance infeasible")
		}
	}
}

// BenchmarkAblationPriorityPower regenerates ablation A1: the squared
// priority function against the linear variant (the paper reports the
// linear one is markedly worse).
func BenchmarkAblationPriorityPower(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationPriorityPower(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Stats["greedy-pmtn"].Mean, "squared-deg")
		b.ReportMetric(res.Stats["greedy-pmtn-linprio"].Mean, "linear-deg")
	}
}

// BenchmarkAblationPeriod regenerates ablation A2: the scheduling period
// sweep T in {60, 600, 3600} for DYNMCB8-ASAP-PER.
func BenchmarkAblationPeriod(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationPeriod(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Stats["dynmcb8-asap-per-60"].Mean, "T60-deg")
		b.ReportMetric(res.Stats["dynmcb8-asap-per"].Mean, "T600-deg")
		b.ReportMetric(res.Stats["dynmcb8-asap-per-3600"].Mean, "T3600-deg")
	}
}

// BenchmarkAblationPacker regenerates ablation A3: MCB8 against first-fit
// and best-fit decreasing inside DYNMCB8-PER.
func BenchmarkAblationPacker(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationPacker(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Stats["dynmcb8-per"].Mean, "mcb8-deg")
		b.ReportMetric(res.Stats["dynmcb8-per-ffd"].Mean, "ffd-deg")
		b.ReportMetric(res.Stats["dynmcb8-per-bfd"].Mean, "bfd-deg")
	}
}

// BenchmarkExtensionFairness regenerates experiment A4: the Section VII
// fairness extension (long-running jobs excluded from the average-yield
// improvement).
func BenchmarkExtensionFairness(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.ExtensionFairness(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Stats["dynmcb8-per"].Mean, "base-deg")
		b.ReportMetric(res.Stats["dynmcb8-per-fair"].Mean, "fair-deg")
	}
}

// benchState is a flat-array placement.State over a 128-node bimodal
// priced platform, the shape every selection scan presents to an
// objective.
type benchState struct {
	d          int
	caps, free []float64
	load, cost []float64
}

func (s *benchState) Dims() int                { return s.d }
func (s *benchState) Cap(node, k int) float64  { return s.caps[node*s.d+k] }
func (s *benchState) Free(node, k int) float64 { return s.free[node*s.d+k] }
func (s *benchState) CPULoad(node int) float64 { return s.load[node] }
func (s *benchState) Cost(node int) float64    { return s.cost[node] }

// BenchmarkObjectiveScore measures one full selection scan — scoring all
// 128 candidates of a bimodal priced platform through the objective
// indirection and picking the argmin — for each built-in objective. This
// is the per-task cost of greedy placement under a configured objective,
// and of its default LoadBalance on platforms beyond two resources; only
// the two-resource default answers from the node index instead. Under
// First, Pick skips scoring and returns the first feasible node.
func BenchmarkObjectiveScore(b *testing.B) {
	const n, d = 128, 3
	st := &benchState{
		d:    d,
		caps: make([]float64, n*d),
		free: make([]float64, n*d),
		load: make([]float64, n),
		cost: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		scale := 1.0
		if i%2 == 0 {
			scale, st.cost[i] = 2, 3
		} else {
			st.cost[i] = 1
		}
		for k := 0; k < d; k++ {
			st.caps[i*d+k] = scale
			st.free[i*d+k] = scale * float64(1+i%7) / 7
		}
		st.load[i] = scale - st.free[i*d]
	}
	dem := func(k int) float64 { return 0.1 }
	feasible := func(node int) bool { return st.free[node*d+1] >= 0.1 }
	for _, obj := range []placement.Objective{
		placement.LoadBalance{}, placement.Cost{}, placement.BestFit{}, placement.WorstFit{},
	} {
		b.Run(obj.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if placement.Pick(n, dem, st, feasible, obj) < 0 {
					b.Fatal("no feasible node")
				}
			}
		})
	}
}

// BenchmarkCostObjectiveSimulation measures a full greedy-pmtn simulation
// on the priced bimodal mix under the cost objective — the end-to-end
// price of routing every placement through the objective layer, to be
// read against BenchmarkSingleSimulation/greedy-pmtn-like baselines.
func BenchmarkCostObjectiveSimulation(b *testing.B) {
	tr, err := dfrs.SyntheticTrace(dfrs.SyntheticOptions{Seed: 2, Nodes: 128, Jobs: 150})
	if err != nil {
		b.Fatal(err)
	}
	tr, err = tr.ScaleToLoad(0.7)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := dfrs.Run(context.Background(), tr, "greedy-pmtn",
			dfrs.WithPenalty(experiments.PaperPenalty),
			dfrs.WithNodeMix("bimodal-priced"), dfrs.WithObjective("cost"))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Cost(), "cost-units")
	}
}

// BenchmarkSingleSimulation measures the simulator's raw event-processing
// throughput for each algorithm family on one mid-load trace.
func BenchmarkSingleSimulation(b *testing.B) {
	tr, err := dfrs.SyntheticTrace(dfrs.SyntheticOptions{Seed: 2, Nodes: 128, Jobs: 150, Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	scaled, err := tr.ScaleToLoad(0.7)
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range []string{"fcfs", "easy", "greedy", "greedy-pmtn", "dynmcb8", "dynmcb8-asap-per"} {
		b.Run(alg, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := dfrs.Run(context.Background(), scaled, alg, dfrs.WithPenalty(experiments.PaperPenalty))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Events()), "events")
			}
		})
	}
}

// BenchmarkStreamReplay replays one encoded 20k-job, 128-node synthetic
// trace from bytes through RunStream with a job sink, as the repository
// benchmark's stream-replay workload does at 80k jobs: greedy-pmtn (the
// greedy placement and preemption layer) and easy (the batch baseline over
// the same engine and parser). `make profile-greedy` profiles the
// greedy-pmtn row.
func BenchmarkStreamReplay(b *testing.B) {
	const jobs = 20_000
	tr, err := dfrs.SyntheticTrace(dfrs.SyntheticOptions{Seed: 1, Nodes: 128, Jobs: jobs})
	if err != nil {
		b.Fatal(err)
	}
	var data bytes.Buffer
	if err := tr.Encode(&data); err != nil {
		b.Fatal(err)
	}
	for _, alg := range []string{"greedy-pmtn", "easy"} {
		b.Run(alg, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sunk := 0
				res, err := dfrs.RunStream(context.Background(), bytes.NewReader(data.Bytes()), alg,
					dfrs.WithPenalty(experiments.PaperPenalty),
					dfrs.WithJobSink(func(dfrs.JobResult) { sunk++ }))
				if err != nil {
					b.Fatal(err)
				}
				if sunk != jobs {
					b.Fatalf("%d of %d jobs reached the sink", sunk, jobs)
				}
				b.ReportMetric(float64(res.Events()), "events")
			}
		})
	}
}

// BenchmarkFederationDispatch measures the shared-clock orchestrator's
// overhead per dispatch policy: a 2-cluster cloud-bursting federation
// (free on-prem + priced remote) over one mid-load trace, to be read
// against BenchmarkSingleSimulation (the single-cluster engine processes
// the same kind of event stream without the dispatch layer).
func BenchmarkFederationDispatch(b *testing.B) {
	tr, err := dfrs.SyntheticTrace(dfrs.SyntheticOptions{Seed: 2, Nodes: 64, Jobs: 150})
	if err != nil {
		b.Fatal(err)
	}
	tr, err = tr.ScaleToLoad(0.9)
	if err != nil {
		b.Fatal(err)
	}
	spec := dfrs.FederationSpec{
		Clusters: []dfrs.ClusterSpec{
			{Name: "onprem", Nodes: 64},
			{Name: "remote", NodeMix: "bimodal-priced", Nodes: 64},
		},
		Algorithm: "greedy-pmtn",
	}
	for _, dispatcher := range dfrs.Dispatchers() {
		spec.Dispatcher = dispatcher
		b.Run(dispatcher, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := dfrs.RunFederated(context.Background(), tr, spec,
					dfrs.WithPenalty(experiments.PaperPenalty))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Events()), "events")
				b.ReportMetric(res.Cost(), "cost-units")
				b.ReportMetric(float64(res.Dispatched()[1]), "burst-jobs")
			}
		})
	}
}

// BenchmarkFederationParallel measures the conservative-lookahead parallel
// federation loop on a members × workers grid: identical uniform members
// under round-robin dispatch (the stateless policy, so arrival batches
// stretch the lookahead horizon), with the per-member MCB scheduler
// supplying real work between barriers. workers=1 rows advance the
// members inline, with no pool, and are the speedup baseline. On
// single-core hosts the rows collapse to parity (the pool cannot run
// concurrently); results are byte-identical across rows either way.
func BenchmarkFederationParallel(b *testing.B) {
	for _, members := range []int{4, 8} {
		tr, err := dfrs.SyntheticTrace(dfrs.SyntheticOptions{
			Seed: 5, Nodes: 64, Jobs: 300 * members,
		})
		if err != nil {
			b.Fatal(err)
		}
		tr, err = tr.ScaleToLoad(0.9)
		if err != nil {
			b.Fatal(err)
		}
		clusters := make([]dfrs.ClusterSpec, members)
		for i := range clusters {
			clusters[i] = dfrs.ClusterSpec{Nodes: 64}
		}
		spec := dfrs.FederationSpec{
			Clusters:   clusters,
			Dispatcher: "roundrobin",
			Algorithm:  "dynmcb8-asap-per",
		}
		for _, workers := range []int{1, 2, 4} {
			spec.Workers = workers
			b.Run(fmt.Sprintf("members=%d/workers=%d", members, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := dfrs.RunFederated(context.Background(), tr, spec,
						dfrs.WithPenalty(experiments.PaperPenalty))
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Events()), "events")
				}
			})
		}
	}
}

// BenchmarkFederatedCampaign regenerates a Figure-1-shaped sweep on the
// federated engine: a load sweep of the cloud-bursting topology across all
// three dispatch policies through the campaign layer, reporting the mean
// stretch and total burst cost — the federated counterpart of the
// Figure 1 benchmarks above.
func BenchmarkFederatedCampaign(b *testing.B) {
	g := dfrs.Grid{
		Name:         "fed-bench",
		Seeds:        []uint64{42},
		Algorithms:   []string{"greedy-pmtn"},
		Families:     []dfrs.CampaignFamily{{Kind: dfrs.FamilyLublin, Count: 1}},
		Loads:        []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		Penalties:    []float64{experiments.PaperPenalty},
		Nodes:        []int{64},
		Topologies:   []string{"uniform:64+bimodal-priced:64"},
		Dispatchers:  []string{"roundrobin", "queuedepth", "costaware"},
		JobsPerTrace: 100,
	}
	for i := 0; i < b.N; i++ {
		run, err := dfrs.Campaign(context.Background(), g, dfrs.CampaignOptions{})
		if err != nil {
			b.Fatal(err)
		}
		recs, err := run.Wait()
		if err != nil {
			b.Fatal(err)
		}
		var avg, cost float64
		for _, rec := range recs {
			avg += rec.AvgStretch
			cost += rec.Cost
		}
		b.ReportMetric(avg/float64(len(recs)), "avg-stretch")
		b.ReportMetric(cost, "cost-units")
	}
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Ensure the bench file's package compiles alongside the facade even when
// benchmarks are filtered out.
var _ = fmt.Sprintf
