package online

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/lublin"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"

	// Register schedulers for the end-to-end agreement test.
	_ "repro/internal/sched/greedy"
	_ "repro/internal/sched/mcb"
)

// quantileTol is the test tolerance against exact percentiles: one sketch
// bin (~0.7% relative with the default binning) plus slack for the
// difference between nearest-rank and interpolated percentile definitions
// on small samples.
const quantileTol = 0.02

// TestQuantileAgainstExact checks the sketch against stats.Percentile on a
// deterministic heavy-tailed sample, the shape stretch distributions take.
func TestQuantileAgainstExact(t *testing.T) {
	r := rng.New(99)
	q := newQuantile(1, 1e6, 2048)
	xs := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-normal-ish: 1 + exp(3u) spans [2, ~21] with a long tail.
		x := 1 + math.Exp(3*r.Float64())
		q.Add(x)
		xs = append(xs, x)
	}
	for _, p := range []float64{0.50, 0.95, 0.99} {
		got := q.Value(p)
		want := stats.Percentile(xs, p*100)
		if rel := math.Abs(got-want) / want; rel > quantileTol {
			t.Errorf("p%g: sketch %.4f vs exact %.4f (rel err %.4f > %.4f)", 100*p, got, want, rel, quantileTol)
		}
	}
}

// TestQuantileEdges pins the empty, single-value, and clamping behaviour.
func TestQuantileEdges(t *testing.T) {
	q := newQuantile(1, 1e6, 64)
	if v := q.Value(0.5); v != 0 {
		t.Fatalf("empty sketch quantile = %g, want 0", v)
	}
	q.Add(3.5)
	for _, p := range []float64{0, 0.5, 1} {
		if v := q.Value(p); v != 3.5 {
			t.Fatalf("single-value sketch p%g = %g, want exactly 3.5 (min/max clamp)", p, v)
		}
	}
	// Out-of-range values clamp into the edge bins but quantiles stay
	// inside the observed range.
	q2 := newQuantile(1, 10, 8)
	q2.Add(0.25)
	q2.Add(1e9)
	if lo := q2.Value(0.25); lo != 0.25 {
		t.Fatalf("below-range quantile = %g, want exact min 0.25", lo)
	}
	if hi := q2.Value(1.0); hi != 1e9 {
		t.Fatalf("above-range quantile = %g, want exact max 1e9", hi)
	}
	q2.Add(math.NaN())
	if q2.N() != 2 {
		t.Fatalf("NaN was counted: n=%d, want 2", q2.N())
	}
}

// runOnce simulates one contended synthetic trace, returning the retained
// per-job results.
func runOnce(t *testing.T) *sim.Result {
	t.Helper()
	tr, err := lublin.GenerateTrace(rng.New(5), lublin.DefaultParams(32), 250, "online-test")
	if err != nil {
		t.Fatal(err)
	}
	if tr, err = tr.ScaleToLoad(0.8); err != nil {
		t.Fatal(err)
	}
	s, err := sched.New("greedy-pmtn")
	if err != nil {
		t.Fatal(err)
	}
	simulator, err := sim.New(sim.Config{
		Trace:   tr,
		Cluster: cluster.Homogeneous(tr.Nodes),
		Penalty: 300,
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAggregatorMatchesSummarize is the acceptance check: the online
// aggregates must match the post-hoc metrics.Summarize fold exactly for
// mean/max (modulo summation order) and within the documented sketch
// tolerance for quantiles.
func TestAggregatorMatchesSummarize(t *testing.T) {
	res := runOnce(t)
	a := New()
	stretches := make([]float64, 0, len(res.Jobs))
	for _, jr := range res.Jobs {
		a.ObserveJob(jr)
		stretches = append(stretches, metrics.BoundedStretch(jr.Turnaround, jr.Job.ExecTime))
	}
	snap := a.Snapshot()
	sum := metrics.Summarize(res)

	if snap.Jobs != int64(sum.Jobs) {
		t.Fatalf("jobs: online %d vs post-hoc %d", snap.Jobs, sum.Jobs)
	}
	if snap.MaxStretch != sum.MaxStretch {
		t.Errorf("max stretch: online %g vs post-hoc %g (must be exact)", snap.MaxStretch, sum.MaxStretch)
	}
	if rel := math.Abs(snap.AvgStretch-sum.AvgStretch) / sum.AvgStretch; rel > 1e-9 {
		t.Errorf("avg stretch: online %g vs post-hoc %g (rel err %g)", snap.AvgStretch, sum.AvgStretch, rel)
	}
	for _, c := range []struct {
		name string
		got  float64
		p    float64
	}{
		{"p50", snap.StretchP50, 50},
		{"p95", snap.StretchP95, 95},
		{"p99", snap.StretchP99, 99},
	} {
		want := stats.Percentile(stretches, c.p)
		if rel := math.Abs(c.got-want) / want; rel > quantileTol {
			t.Errorf("%s: online %.4f vs post-hoc %.4f (rel err %.4f > %.4f)", c.name, c.got, want, rel, quantileTol)
		}
	}
}

// TestObserverCounters checks the event-counting observer against the
// run's own accounting, and that completions are not double-counted.
func TestObserverCounters(t *testing.T) {
	tr, err := lublin.GenerateTrace(rng.New(5), lublin.DefaultParams(32), 150, "online-obs")
	if err != nil {
		t.Fatal(err)
	}
	if tr, err = tr.ScaleToLoad(0.8); err != nil {
		t.Fatal(err)
	}
	s, err := sched.New("greedy-pmtn-migr")
	if err != nil {
		t.Fatal(err)
	}
	a := New()
	simulator, err := sim.New(sim.Config{
		Trace:    tr,
		Cluster:  cluster.Homogeneous(tr.Nodes),
		Penalty:  300,
		Observer: a.Observer(),
		JobSink:  a.ObserveJob,
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulator.Run(); err != nil {
		t.Fatal(err)
	}
	snap := a.Snapshot()
	if snap.Submitted != int64(len(tr.Jobs)) {
		t.Errorf("submitted %d, want %d", snap.Submitted, len(tr.Jobs))
	}
	if snap.Jobs != int64(len(tr.Jobs)) {
		t.Errorf("completed %d jobs, want %d", snap.Jobs, len(tr.Jobs))
	}
	if snap.Started < snap.Jobs {
		t.Errorf("started %d below completions %d", snap.Started, snap.Jobs)
	}
	// Raw preemption transitions can exceed the net Table II accounting
	// (same-event refunds) but never undercount it.
	if snap.Preemptions == 0 {
		t.Error("contended preempting run reported zero preemption events")
	}
}

// TestObserverLocksOnlyCountedKinds: completions and scheduler
// invocations, the most frequent callbacks, never take the aggregator's
// lock; the four counted kinds do, and count.
func TestObserverLocksOnlyCountedKinds(t *testing.T) {
	a := New()
	obs := a.Observer()
	a.mu.Lock()
	done := make(chan struct{})
	go func() {
		obs.JobCompleted(1, 0, 5)
		obs.SchedulerInvoked(1, "completion", 0, time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("an uncounted callback waited for the aggregator lock")
	}
	a.mu.Unlock()

	obs.JobSubmitted(0, 0)
	obs.JobStarted(0, 0, []int{0})
	obs.JobPreempted(1, 0)
	obs.JobStarted(2, 0, []int{1})
	obs.JobMigrated(3, 0, []int{0})
	snap := a.Snapshot()
	if snap.Submitted != 1 || snap.Started != 2 || snap.Preemptions != 1 || snap.Migrations != 1 || snap.Jobs != 0 {
		t.Errorf("counters %+v, want 1 submitted, 2 started, 1 preemption, 1 migration, 0 jobs", snap)
	}
}

// TestObserveRecordFolds checks the campaign-level folds: cells, cost,
// weighted utilization, and provisional degradation grouping by instance.
func TestObserveRecordFolds(t *testing.T) {
	a := New()
	mk := func(alg string, maxStretch, makespan, util, cost float64) campaign.Record {
		c := campaign.Cell{Seed: 1, Family: campaign.FamilyLublin, Load: 0.7, Nodes: 16, Jobs: 100, Penalty: 0, Algorithm: alg}
		return campaign.Record{
			Key: c.Key(), Seed: c.Seed, Family: c.Family, Load: c.Load, Nodes: c.Nodes,
			Jobs: c.Jobs, Algorithm: alg, MaxStretch: maxStretch, Makespan: makespan,
			Utilization: util, Finished: 100, Cost: cost,
		}
	}
	// Worst algorithm first: its provisional factor is 1 until the better
	// run lands, then new factors divide by the improved best.
	a.ObserveRecord(mk("fcfs", 40, 1000, 0.5, 3))
	a.ObserveRecord(mk("greedy", 10, 3000, 0.7, 1))
	snap := a.Snapshot()
	if snap.Cells != 2 || snap.FinishedJobs != 200 {
		t.Fatalf("cells=%d finished=%d, want 2/200", snap.Cells, snap.FinishedJobs)
	}
	if snap.Cost != 4 {
		t.Errorf("cost burn %g, want 4", snap.Cost)
	}
	wantUtil := (0.5*1000 + 0.7*3000) / 4000
	if math.Abs(snap.Utilization-wantUtil) > 1e-12 {
		t.Errorf("weighted utilization %g, want %g", snap.Utilization, wantUtil)
	}
	// Both records scored factor 1 at arrival (each was the best seen on
	// its instance so far); a third, worse run now scores 40/10 = 4.
	a.ObserveRecord(mk("easy", 40, 1000, 0.5, 0))
	if snap = a.Snapshot(); snap.DegradationMax != 4 {
		t.Errorf("degradation max %g, want 4", snap.DegradationMax)
	}
}

// TestConcurrentReaders exercises Snapshot under concurrent writers — the
// serving layer's access pattern — and relies on -race for the verdict.
func TestConcurrentReaders(t *testing.T) {
	a := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				a.ObserveJob(sim.JobResult{Turnaround: float64(100 + i), Job: jobWithExec(50)})
				if i%100 == 0 {
					a.ObserveRecord(campaign.Record{Key: "k", MaxStretch: 2, Makespan: 1, Utilization: 0.5, Finished: 1})
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			snap := a.Snapshot()
			if snap.MaxStretch < 0 || snap.StretchP95 < 0 {
				t.Error("negative aggregate")
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if snap := a.Snapshot(); snap.Jobs != 8000 {
		t.Fatalf("jobs %d, want 8000", snap.Jobs)
	}
}

func jobWithExec(exec float64) workload.Job {
	return workload.Job{Tasks: 1, CPUNeed: 0.5, MemReq: 0.5, ExecTime: exec}
}
