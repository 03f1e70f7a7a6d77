// Package metrics computes the paper's evaluation quantities from raw
// simulation results: the bounded stretch of Section II-B2, per-instance
// maximum/average stretch, the degradation factor of Section V (ratio to
// the best algorithm on the same instance), and the preemption/migration
// cost summaries of Table II.
package metrics

import (
	"fmt"
	"iter"
	"math"
	"slices"

	"repro/internal/sim"
	"repro/internal/stats"
)

// StretchBound is the 30-second threshold of the bounded stretch.
const StretchBound = 30.0

// BoundedStretch returns max(turnaround, 30) / max(execTime, 30), the
// bounded-slowdown variant the paper adopts so that short (often failing)
// jobs do not dominate the metric. It is always >= 1 for feasible
// schedules (turnaround >= execTime).
func BoundedStretch(turnaround, execTime float64) float64 {
	return math.Max(turnaround, StretchBound) / math.Max(execTime, StretchBound)
}

// InstanceSummary aggregates one simulation run.
type InstanceSummary struct {
	Algorithm  string
	Trace      string
	MaxStretch float64
	AvgStretch float64
	Makespan   float64
	Jobs       int
}

// Summarize computes per-instance stretch statistics over res.Jobs: it is
// SummarizeSeq over the result's own records.
func Summarize(res *sim.Result) InstanceSummary {
	return SummarizeSeq(res, slices.Values(res.Jobs))
}

// SummarizeSeq computes per-instance stretch statistics over the given job
// records, in their order (the stretch sum runs in it); res supplies the
// labels and the makespan. It serves views whose records live elsewhere,
// such as a federation's merge of its members' records. A sequence with
// zero jobs yields zero stretches rather than the NaN an empty stream
// would produce — NaN is unmarshalable by encoding/json and would poison
// any JSONL record sink mid-run; callers that must distinguish "no jobs"
// from "stretch 0" check the Jobs count.
func SummarizeSeq(res *sim.Result, jobs iter.Seq[sim.JobResult]) InstanceSummary {
	sum := InstanceSummary{
		Algorithm: res.Algorithm,
		Trace:     res.Trace,
		Makespan:  res.Makespan,
	}
	var s stats.Stream
	for jr := range jobs {
		s.Add(BoundedStretch(jr.Turnaround, jr.Job.ExecTime))
	}
	if sum.Jobs = s.N(); sum.Jobs == 0 {
		return sum
	}
	sum.MaxStretch = s.Max()
	sum.AvgStretch = s.Mean()
	return sum
}

// DegradationFactors converts per-algorithm maximum stretches on one
// instance into degradation factors: each value divided by the instance's
// best (smallest) maximum stretch. The best algorithm scores exactly 1.
// A NaN input is rejected with an error naming the offending algorithm
// (NaN would otherwise slip through every comparison and surface much
// later as an unmarshalable record).
func DegradationFactors(maxStretch map[string]float64) (map[string]float64, error) {
	if len(maxStretch) == 0 {
		return nil, fmt.Errorf("metrics: no algorithms to compare")
	}
	best := math.Inf(1)
	for alg, v := range maxStretch {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("metrics: algorithm %q reports NaN maximum stretch", alg)
		}
		if v < best {
			best = v
		}
	}
	if !(best > 0) || math.IsInf(best, 1) {
		return nil, fmt.Errorf("metrics: invalid best maximum stretch %g", best)
	}
	out := make(map[string]float64, len(maxStretch))
	for alg, v := range maxStretch {
		out[alg] = v / best
	}
	return out, nil
}

// CostSummary is one row of Table II for one instance: bandwidth in GB/s,
// occurrences per hour, and occurrences per job, split between preemptions
// and migrations — plus, beyond the paper, the monetary cost accounting of
// priced platforms.
type CostSummary struct {
	Algorithm   string
	Trace       string
	PmtnGBps    float64
	MigGBps     float64
	PmtnPerHour float64
	MigPerHour  float64
	PmtnPerJob  float64
	MigPerJob   float64
	// NodeCost is the run's cost-weighted occupancy in price units
	// (hosting node's cost rate x occupied seconds, accrued once per task
	// placement; see sim.Result.NodeCostSeconds). Always 0 on unpriced
	// clusters, where the paper's model is the exact special case.
	NodeCost float64
	// NodeCostPerJob is NodeCost divided by the number of finished jobs —
	// the average price of running one job under the schedule.
	NodeCostPerJob float64
}

// Costs derives Table II quantities from a run: it is CostsSeq over the
// result's own records.
func Costs(res *sim.Result) CostSummary {
	return CostsSeq(res, slices.Values(res.Jobs))
}

// CostsSeq derives Table II quantities from a run's aggregates and the
// given job records. Rates use the instance makespan; per-job counts use
// the records, in any order.
func CostsSeq(res *sim.Result, jobs iter.Seq[sim.JobResult]) CostSummary {
	c := CostSummary{Algorithm: res.Algorithm, Trace: res.Trace, NodeCost: res.NodeCostSeconds}
	if res.Makespan > 0 {
		c.PmtnGBps = res.PreemptionGB / res.Makespan
		c.MigGBps = res.MigrationGB / res.Makespan
		hours := res.Makespan / 3600
		c.PmtnPerHour = float64(res.PreemptionOps) / hours
		c.MigPerHour = float64(res.MigrationOps) / hours
	}
	var n, pmtn, mig int
	for jr := range jobs {
		n++
		pmtn += jr.Pauses
		mig += jr.Migrations
	}
	if n > 0 {
		c.PmtnPerJob = float64(pmtn) / float64(n)
		c.MigPerJob = float64(mig) / float64(n)
		c.NodeCostPerJob = res.NodeCostSeconds / float64(n)
	}
	return c
}

// Validate sanity-checks a result against the scheduling model: every job
// finished after submission, no job finished before its dedicated execution
// time, and counters are non-negative. Tests run it on every simulation.
func Validate(res *sim.Result) error {
	for _, jr := range res.Jobs {
		if jr.Finish < jr.Job.Submit {
			return fmt.Errorf("metrics: job %d finished before submission", jr.Job.ID)
		}
		// A job cannot run faster than with yield 1.0 from submission.
		if jr.Turnaround < jr.Job.ExecTime-1e-6 {
			return fmt.Errorf("metrics: job %d turnaround %.3f below execution time %.3f",
				jr.Job.ID, jr.Turnaround, jr.Job.ExecTime)
		}
		if jr.Pauses < 0 || jr.Migrations < 0 {
			return fmt.Errorf("metrics: job %d has negative operation counts", jr.Job.ID)
		}
	}
	if res.PreemptionOps < 0 || res.MigrationOps < 0 ||
		res.PreemptionGB < -1e-9 || res.MigrationGB < -1e-9 {
		return fmt.Errorf("metrics: negative cost accounting in %s/%s", res.Algorithm, res.Trace)
	}
	if res.NodeCostSeconds < -1e-9 || math.IsNaN(res.NodeCostSeconds) {
		return fmt.Errorf("metrics: invalid node-cost accounting %g in %s/%s", res.NodeCostSeconds, res.Algorithm, res.Trace)
	}
	return nil
}
