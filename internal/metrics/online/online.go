// Package online computes the paper's evaluation quantities as streaming
// aggregates, without post-hoc Result walks: rolling bounded-stretch
// quantiles (p50/p95/p99) over per-job outcomes the moment each job
// completes, event counters (submissions, dispatches, preemptions,
// migrations) over sim.Observer streams, and campaign-level folds (cells,
// cost burn, utilization, provisional degradation factors) over
// campaign.Record streams.
//
// The package exists for the serving layer (internal/serve, cmd/dfrs-serve)
// and for -summary-only CLI runs: both need "how is this run doing right
// now?" answered while millions of jobs stream through bounded memory, so
// nothing here retains per-job state. One Aggregator accepts concurrent
// writers (several campaign workers feeding one aggregator) and concurrent
// readers (Snapshot is safe to call from HTTP handlers mid-run).
//
// Quantiles come from a fixed log-spaced binning sketch (Quantile): O(bins)
// memory, deterministic, and exact to within one bin. With the default
// 2048 bins over [1, 1e6] a bin spans a ratio of 1e6^(1/2048) ≈ 1.0068, so
// a reported quantile is within ~0.7% (relative) of the empirical
// nearest-rank quantile — the documented sketch tolerance against the
// post-hoc metrics.Summarize / stats.Percentile numbers. Mean, max, min and
// all counters are exact (the mean is summed in completion order, so it can
// differ from a sorted post-hoc fold in the last float bits).
package online

import (
	"math"
	"sync"

	"repro/internal/campaign"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Quantile sketch defaults: the stretch range [1, 1e6) covers every
// bounded stretch this simulator can produce short of a livelock (the
// bounded stretch of a 30-second job waiting 50 simulated years is ~5e7;
// values beyond the range clamp into the edge bins and are still bracketed
// by the exact min/max).
const (
	defaultLo   = 1.0
	defaultHi   = 1e6
	defaultBins = 2048
)

// Quantile is a fixed log-spaced binning quantile sketch: values are
// counted into bins whose edges grow geometrically from Lo to Hi, so a
// quantile query walks the cumulative counts and reports the geometric
// midpoint of the target bin. Memory is O(bins), independent of the number
// of observations; the reported value is within one bin — a relative error
// of (Hi/Lo)^(1/bins) — of the empirical nearest-rank quantile. Values
// outside [Lo, Hi) clamp into the edge bins, and the exact min/max are
// tracked so clamped quantiles never leave the observed range.
//
// Quantile is not safe for concurrent use; Aggregator serialises access.
type Quantile struct {
	lo, hi      float64
	invWidth    float64 // bins / ln(hi/lo)
	counts      []int64
	under, over int64 // observations below lo / at or above hi
	n           int64
	min, max    float64
}

// newQuantile returns a sketch with the given number of log-spaced bins
// over [lo, hi). It panics if lo <= 0, hi <= lo, or bins <= 0 (programming
// errors).
func newQuantile(lo, hi float64, bins int) *Quantile {
	if lo <= 0 || hi <= lo || bins <= 0 {
		panic("online: newQuantile requires 0 < lo < hi and bins > 0")
	}
	return &Quantile{
		lo:       lo,
		hi:       hi,
		invWidth: float64(bins) / math.Log(hi/lo),
		counts:   make([]int64, bins),
	}
}

// Add records one observation. NaN observations are dropped (they carry no
// rank); infinities clamp into the edge bins.
func (q *Quantile) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if q.n == 0 {
		q.min, q.max = x, x
	} else if x < q.min {
		q.min = x
	} else if x > q.max {
		q.max = x
	}
	switch {
	case x >= q.hi:
		q.over++
	case x < q.lo:
		q.under++
	default:
		idx := int(math.Log(x/q.lo) * q.invWidth)
		if idx >= len(q.counts) { // float round-up at the top edge
			idx = len(q.counts) - 1
		}
		q.counts[idx]++
	}
	q.n++
}

// N returns the number of observations recorded.
func (q *Quantile) N() int64 { return q.n }

// Value returns the p-quantile (0 <= p <= 1) as the geometric midpoint of
// the bin holding the nearest-rank order statistic, clamped to the exact
// observed [min, max]. With no observations it returns 0 (not NaN — the
// snapshot is JSON-marshalled mid-run, and encoding/json rejects NaN).
func (q *Quantile) Value(p float64) float64 {
	if q.n == 0 || math.IsNaN(p) || p < 0 || p > 1 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(q.n)))
	if rank < 1 {
		rank = 1
	}
	// Observations outside [lo, hi) carry no in-range position; quantiles
	// landing among them report the exact observed extremum, the tightest
	// bound the sketch has.
	if rank <= q.under {
		return q.min
	}
	if rank > q.n-q.over {
		return q.max
	}
	cum := q.under
	for i, c := range q.counts {
		cum += c
		if cum >= rank {
			// Geometric midpoint of bin i: lo * ratio^(i+1/2).
			v := q.lo * math.Exp((float64(i)+0.5)/q.invWidth)
			if v < q.min {
				v = q.min
			}
			if v > q.max {
				v = q.max
			}
			return v
		}
	}
	return q.max
}

// Snapshot is a point-in-time view of an Aggregator, safe to hand to
// concurrent readers and to marshal as JSON (no NaN: empty aggregates
// report zeros, distinguished by the Jobs/Cells counts). The stretch
// quantiles carry the sketch tolerance documented on Quantile (~0.7%
// relative with the default binning); everything else is exact.
type Snapshot struct {
	// Jobs is the number of completed jobs folded into the stretch
	// aggregates (ObserveJob calls).
	Jobs int64 `json:"jobs"`
	// MaxStretch and AvgStretch are the exact running max/mean bounded
	// stretch over those jobs.
	MaxStretch float64 `json:"max_stretch"`
	AvgStretch float64 `json:"avg_stretch"`
	// StretchP50/P95/P99 are sketched bounded-stretch quantiles.
	StretchP50 float64 `json:"stretch_p50"`
	StretchP95 float64 `json:"stretch_p95"`
	StretchP99 float64 `json:"stretch_p99"`

	// Event counters, fed by the sim.Observer returned by Observer.
	// Preemptions counts raw JobPreempted transitions, which can exceed
	// the net Table II accounting (see sim.Observer).
	Submitted   int64 `json:"submitted"`
	Started     int64 `json:"started"`
	Preemptions int64 `json:"preemptions"`
	Migrations  int64 `json:"migrations"`

	// Campaign-level folds, fed by ObserveRecord.
	Cells int64 `json:"cells"`
	// FinishedJobs is the total finished-job count summed over records
	// (available even when per-job outcomes were not streamed).
	FinishedJobs int64 `json:"finished_jobs"`
	// Cost is the cost burn so far: the sum of cost-weighted occupancy
	// over finished cells, in price units (0 on unpriced platforms).
	Cost float64 `json:"cost"`
	// Utilization is the makespan-weighted mean utilization over finished
	// cells (a per-record simulated-time weighting, so long cells count
	// proportionally).
	Utilization float64 `json:"utilization"`
	// DegradationP50/P99/Max summarise provisional degradation factors:
	// each record's MaxStretch divided by the best MaxStretch seen so far
	// on the same instance (Cell.InstanceKey grouping). Factors are
	// provisional upper bounds — the instance's true best may not have
	// completed yet — and tighten as the campaign fills in; after all of
	// an instance's algorithms finish they match the post-hoc
	// metrics.DegradationFactors of the arrival order.
	DegradationP50 float64 `json:"degradation_p50"`
	DegradationP99 float64 `json:"degradation_p99"`
	DegradationMax float64 `json:"degradation_max"`
}

// Aggregator folds per-job outcomes, scheduling events and campaign
// records into a Snapshot. All methods are safe for concurrent use; one
// aggregator can be shared by several campaign workers and read by HTTP
// handlers mid-run. The zero value is not ready — use New.
type Aggregator struct {
	mu sync.Mutex

	stretch    *Quantile
	jobs       int64
	stretchSum float64
	stretchMax float64

	submitted, started, preempted, migrated int64

	cells        int64
	finishedJobs int64
	cost         float64
	utilWeighted float64 // sum of utilization x makespan over records
	makespanSum  float64
	degr         *Quantile
	degrMax      float64
	bestStretch  map[string]float64 // instance key -> best max stretch so far
}

// New returns an empty aggregator with the default stretch binning (2048
// log-spaced bins over [1, 1e6), ~0.7% relative tolerance).
func New() *Aggregator {
	return &Aggregator{
		stretch:     newQuantile(defaultLo, defaultHi, defaultBins),
		degr:        newQuantile(defaultLo, defaultHi, defaultBins),
		bestStretch: map[string]float64{},
	}
}

// ObserveJob folds one completed job's bounded stretch into the rolling
// aggregates. Its signature matches sim.Config.JobSink (and the facade's
// WithJobSink), so an aggregator plugs directly into streaming runs.
func (a *Aggregator) ObserveJob(jr sim.JobResult) {
	s := metrics.BoundedStretch(jr.Turnaround, jr.Job.ExecTime)
	a.mu.Lock()
	a.jobs++
	a.stretchSum += s
	if s > a.stretchMax {
		a.stretchMax = s
	}
	a.stretch.Add(s)
	a.mu.Unlock()
}

// ObserveRecord folds one finished campaign cell: cell count, finished
// jobs, cost burn, makespan-weighted utilization, and a provisional
// degradation factor against the best max stretch seen so far on the
// record's instance.
func (a *Aggregator) ObserveRecord(rec campaign.Record) {
	a.mu.Lock()
	a.cells++
	a.finishedJobs += int64(rec.Finished)
	a.cost += rec.Cost
	a.utilWeighted += rec.Utilization * rec.Makespan
	a.makespanSum += rec.Makespan
	if rec.MaxStretch > 0 {
		key := rec.InstanceKey()
		best, ok := a.bestStretch[key]
		if !ok || rec.MaxStretch < best {
			best = rec.MaxStretch
			a.bestStretch[key] = best
		}
		f := rec.MaxStretch / best
		a.degr.Add(f)
		if f > a.degrMax {
			a.degrMax = f
		}
	}
	a.mu.Unlock()
}

// Observer returns a sim.Observer that feeds the event counters. Completed
// jobs are not counted here — ObserveJob owns completions, so wiring both
// (as the facade's WithOnlineMetrics does) never double-counts.
func (a *Aggregator) Observer() sim.Observer { return sim.ObserverFunc(a.countEvent) }

// countEvent is the Observer's body. It takes the lock only for the four
// kinds it counts: completions and scheduler invocations, one or more per
// event on the simulator's hot path, return without it.
func (a *Aggregator) countEvent(e sim.Event) {
	var n *int64
	switch e.Kind {
	case sim.EvSubmitted:
		n = &a.submitted
	case sim.EvStarted:
		n = &a.started
	case sim.EvPreempted:
		n = &a.preempted
	case sim.EvMigrated:
		n = &a.migrated
	default:
		return
	}
	a.mu.Lock()
	*n++
	a.mu.Unlock()
}

// Snapshot returns a consistent point-in-time view of every aggregate.
func (a *Aggregator) Snapshot() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := Snapshot{
		Jobs:        a.jobs,
		MaxStretch:  a.stretchMax,
		StretchP50:  a.stretch.Value(0.50),
		StretchP95:  a.stretch.Value(0.95),
		StretchP99:  a.stretch.Value(0.99),
		Submitted:   a.submitted,
		Started:     a.started,
		Preemptions: a.preempted,
		Migrations:  a.migrated,

		Cells:          a.cells,
		FinishedJobs:   a.finishedJobs,
		Cost:           a.cost,
		DegradationP50: a.degr.Value(0.50),
		DegradationP99: a.degr.Value(0.99),
		DegradationMax: a.degrMax,
	}
	if a.jobs > 0 {
		s.AvgStretch = a.stretchSum / float64(a.jobs)
	}
	if a.makespanSum > 0 {
		s.Utilization = a.utilWeighted / a.makespanSum
	}
	return s
}
