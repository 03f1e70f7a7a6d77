// Package experiments defines the paper's evaluation campaigns (Figure 1,
// Table I, Table II, the Section V timing study) and the ablation studies
// listed in DESIGN.md as thin grid definitions over the public campaign
// API (dfrs.Campaign): each experiment declares a campaign.Grid, runs it
// on the engine's worker pool, and aggregates the resulting records into
// the paper's tables and figures. Every experiment takes a context —
// cancellation stops the campaign within one cell per worker — and is
// deterministic given its seed, scaling from quick smoke runs to the
// paper's full 100-trace campaigns via Config.
package experiments

import (
	"context"
	"fmt"

	dfrs "repro"
	"repro/internal/campaign"
	"repro/internal/lublin"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Algorithms is the paper's nine algorithms in the order of Figure 1's
// legend and Table I's rows.
var Algorithms = []string{
	"fcfs",
	"easy",
	"greedy",
	"greedy-pmtn",
	"greedy-pmtn-migr",
	"dynmcb8",
	"dynmcb8-per",
	"dynmcb8-asap-per",
	"dynmcb8-stretch-per",
}

// PreemptingAlgorithms are the six Table II rows (algorithms that pause or
// migrate).
var PreemptingAlgorithms = []string{
	"greedy-pmtn",
	"greedy-pmtn-migr",
	"dynmcb8",
	"dynmcb8-per",
	"dynmcb8-asap-per",
	"dynmcb8-stretch-per",
}

// PaperPenalty is the 5-minute rescheduling penalty in seconds.
const PaperPenalty = 300.0

// Config sets the scale of an experiment campaign.
type Config struct {
	Seed         uint64
	Traces       int       // number of base synthetic traces (paper: 100)
	JobsPerTrace int       // jobs per synthetic trace (paper: 1000)
	Nodes        int       // cluster size (paper: 128)
	Loads        []float64 // offered-load levels (paper: 0.1..0.9)
	Algorithms   []string
	Workers      int  // parallel simulations; <=0 means GOMAXPROCS
	Check        bool // enable simulator invariant checking
	HPC2NWeeks   int  // weekly segments for the real-world leg (paper: 182)
}

// DefaultConfig returns a laptop-scale campaign that preserves the paper's
// platform (128 nodes, loads 0.1–0.9, all nine algorithms) while keeping
// trace counts small enough for CI; scale Traces/JobsPerTrace up to the
// paper's 100/1000 for the full reproduction.
func DefaultConfig() Config {
	return Config{
		Seed:         42,
		Traces:       3,
		JobsPerTrace: 150,
		Nodes:        128,
		Loads:        []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		Algorithms:   Algorithms,
		HPC2NWeeks:   4,
	}
}

// grid translates the config into a campaign grid over the synthetic
// family with the given loads and penalty; pass campaign.Unscaled as the
// only load for unscaled runs.
func (c Config) grid(name string, algs []string, loads []float64, penalty float64) *campaign.Grid {
	return &campaign.Grid{
		Name:         name,
		Seeds:        []uint64{c.Seed},
		Algorithms:   algs,
		Families:     []campaign.Family{{Kind: campaign.FamilyLublin, Count: c.Traces}},
		Loads:        loads,
		Penalties:    []float64{penalty},
		Nodes:        []int{c.Nodes},
		JobsPerTrace: c.JobsPerTrace,
		Check:        c.Check,
	}
}

// run executes the grid through the public campaign API with the config's
// worker budget; cancelling the context stops within one cell per worker.
func (c Config) run(ctx context.Context, g *campaign.Grid) ([]campaign.Record, error) {
	run, err := dfrs.Campaign(ctx, *g, dfrs.CampaignOptions{Workers: c.Workers})
	if err != nil {
		return nil, err
	}
	return run.Wait()
}

// BaseTraces generates the campaign's synthetic traces (the "unscaled"
// traces of Table I's middle column). The campaign engine materialises the
// identical traces from the same substream labels.
func (c Config) BaseTraces() ([]*workload.Trace, error) {
	root := rng.New(c.Seed)
	traces := make([]*workload.Trace, c.Traces)
	for i := range traces {
		r := root.Split(fmt.Sprintf("trace-%d", i))
		tr, err := lublin.GenerateTrace(r, lublin.DefaultParams(c.Nodes), c.JobsPerTrace,
			fmt.Sprintf("lublin-%03d", i))
		if err != nil {
			return nil, err
		}
		traces[i] = tr
	}
	return traces, nil
}

// Instance is the outcome of running a set of algorithms on one trace: the
// per-algorithm maximum bounded stretch, the derived degradation factors,
// and the Table II cost summaries.
type Instance struct {
	Trace       string
	Load        float64
	MaxStretch  map[string]float64
	Degradation map[string]float64
	Costs       map[string]metrics.CostSummary
}

// instancesFromRecords groups flat campaign records by instance (same
// trace, load, penalty — every algorithm ran the identical workload) and
// derives per-instance degradation factors. Records must cover every
// algorithm in algs for every instance.
func instancesFromRecords(recs []campaign.Record, algs []string) ([]*Instance, error) {
	byInstance := map[string]*Instance{}
	var order []string
	for _, rec := range recs {
		key := rec.InstanceKey()
		inst, ok := byInstance[key]
		if !ok {
			inst = &Instance{
				Trace:       rec.Trace,
				Load:        rec.Load,
				MaxStretch:  map[string]float64{},
				Degradation: map[string]float64{},
				Costs:       map[string]metrics.CostSummary{},
			}
			byInstance[key] = inst
			order = append(order, key)
		}
		inst.MaxStretch[rec.Algorithm] = rec.MaxStretch
		inst.Costs[rec.Algorithm] = metrics.CostSummary{
			Algorithm: rec.Algorithm, Trace: rec.Trace,
			PmtnGBps: rec.PmtnGBps, MigGBps: rec.MigGBps,
			PmtnPerHour: rec.PmtnPerHour, MigPerHour: rec.MigPerHour,
			PmtnPerJob: rec.PmtnPerJob, MigPerJob: rec.MigPerJob,
		}
	}
	out := make([]*Instance, 0, len(byInstance))
	for _, key := range order {
		inst := byInstance[key]
		for _, alg := range algs {
			if _, ok := inst.MaxStretch[alg]; !ok {
				return nil, fmt.Errorf("experiments: instance %s missing algorithm %s", key, alg)
			}
		}
		deg, err := metrics.DegradationFactors(inst.MaxStretch)
		if err != nil {
			return nil, err
		}
		inst.Degradation = deg
		out = append(out, inst)
	}
	return out, nil
}

// degradationStats folds a record set into per-algorithm degradation
// statistics, the aggregation behind Table I and the ablations.
func degradationStats(recs []campaign.Record, algs []string) (map[string]stats.Summary, error) {
	instances, err := instancesFromRecords(recs, algs)
	if err != nil {
		return nil, err
	}
	streams := map[string]*stats.Stream{}
	for _, alg := range algs {
		streams[alg] = &stats.Stream{}
	}
	for _, inst := range instances {
		for _, alg := range algs {
			streams[alg].Add(inst.Degradation[alg])
		}
	}
	out := map[string]stats.Summary{}
	for alg, s := range streams {
		out[alg] = s.Summary()
	}
	return out, nil
}
