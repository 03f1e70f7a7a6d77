package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// obsTrace builds a small contended trace that forces preemptions under
// greedy-style schedulers.
func obsTrace(t *testing.T) *workload.Trace {
	t.Helper()
	var jobs []workload.Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, workload.Job{
			ID: i, Submit: float64(i * 10), Tasks: 1 + i%2,
			CPUNeed: 1.0, MemReq: 0.45, ExecTime: 200,
		})
	}
	tr := &workload.Trace{Name: "obs", Nodes: 2, NodeMemGB: 8, Jobs: jobs}
	tr.SortBySubmit()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// stripElapsed zeroes the only nondeterministic event field so sequences
// compare exactly.
func stripElapsed(evs []Event) []Event {
	out := append([]Event(nil), evs...)
	for i := range out {
		out[i].Elapsed = 0
	}
	return out
}

// testGreedy is a minimal self-contained preempting scheduler: arrivals
// start greedily by free memory, an unplaceable arrival preempts the
// youngest running job, and completions resume paused jobs before starting
// pending ones. It exists to exercise every observer event kind without
// depending on the real algorithm packages (which would import-cycle).
type testGreedy struct{}

func newTestGreedy() *testGreedy { return &testGreedy{} }

func (g *testGreedy) Name() string               { return "test-greedy" }
func (g *testGreedy) Init(*Controller)           {}
func (g *testGreedy) OnTimer(*Controller, int64) {}

func (g *testGreedy) OnArrival(ctl *Controller, jid int) {
	if nodes, ok := g.place(ctl, jid); ok {
		ctl.Start(jid, nodes)
	} else if running := ctl.JobsInState(Running); len(running) > 0 {
		victim := running[len(running)-1]
		ctl.Pause(victim)
		if nodes, ok := g.place(ctl, jid); ok {
			ctl.Start(jid, nodes)
		} else if back, ok := g.place(ctl, victim); ok {
			ctl.Resume(victim, back)
		}
	}
	g.applyYields(ctl)
}

func (g *testGreedy) OnCompletion(ctl *Controller, jid int) {
	for _, paused := range ctl.JobsInState(Paused) {
		if nodes, ok := g.place(ctl, paused); ok {
			ctl.Resume(paused, nodes)
		}
	}
	for _, pending := range ctl.JobsInState(Pending) {
		if nodes, ok := g.place(ctl, pending); ok {
			ctl.Start(pending, nodes)
		}
	}
	g.applyYields(ctl)
}

// place puts each task on the node with the most free memory, accounting
// for tasks already placed in this call.
func (g *testGreedy) place(ctl *Controller, jid int) ([]int, bool) {
	ji := ctl.Job(jid)
	extra := make([]float64, ctl.NumNodes())
	nodes := make([]int, 0, ji.Job.Tasks)
	for task := 0; task < ji.Job.Tasks; task++ {
		best, bestFree := -1, 0.0
		for n := 0; n < ctl.NumNodes(); n++ {
			if free := ctl.FreeMem(n) - extra[n]; free >= ji.Job.MemReq && free > bestFree {
				best, bestFree = n, free
			}
		}
		if best < 0 {
			return nil, false
		}
		nodes = append(nodes, best)
		extra[best] += ji.Job.MemReq
	}
	return nodes, true
}

// applyYields gives every running job the uniform greedy yield, zeroing
// first so no node transiently oversubscribes.
func (g *testGreedy) applyYields(ctl *Controller) {
	running := ctl.JobsInState(Running)
	y := 1.0 / max(1, ctl.MaxCPULoad())
	for _, jid := range running {
		ctl.SetYield(jid, 0)
	}
	for _, jid := range running {
		ctl.SetYield(jid, y)
	}
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// runObserved runs the test scheduler over the trace with a fresh recorder.
func runObserved(t *testing.T, tr *workload.Trace) []Event {
	t.Helper()
	rec := &Recorder{}
	s, err := New(Config{Trace: tr, Observer: rec, MaxSimTime: 1e9}, newTestGreedy())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

// TestObserverSequenceDeterministic runs the same simulation twice and
// demands byte-identical event sequences modulo wall-clock timing.
func TestObserverSequenceDeterministic(t *testing.T) {
	tr := obsTrace(t)
	a := stripElapsed(runObserved(t, tr))
	b := stripElapsed(runObserved(t, tr))
	if len(a) == 0 {
		t.Fatal("no events recorded")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("event sequences differ across identical runs:\n%v\nvs\n%v", a, b)
	}
}

// TestObserverDoesNotPerturbResults checks that an observed run produces
// the identical Result as an unobserved one.
func TestObserverDoesNotPerturbResults(t *testing.T) {
	tr := obsTrace(t)
	run := func(obs Observer) *Result {
		s, err := New(Config{Trace: tr, Observer: obs, MaxSimTime: 1e9}, newTestGreedy())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	observed := run(&Recorder{})
	if plain.Makespan != observed.Makespan || plain.Events != observed.Events ||
		plain.PreemptionOps != observed.PreemptionOps || plain.MigrationOps != observed.MigrationOps {
		t.Fatalf("observation perturbed the run: %+v vs %+v", plain, observed)
	}
}

// TestJobsInSystemCountsArrivedJobsOnly: the source lookahead admits job B
// (submitted at 1000) while job A (submitted at 0, 100 s long) is still
// running, but B has not arrived when A completes, so A's completion hook
// must see an empty system.
// A job counts from its submission instant (A already at the init hook).
func TestJobsInSystemCountsArrivedJobsOnly(t *testing.T) {
	tr := &workload.Trace{Name: "lookahead", Nodes: 1, NodeMemGB: 8, Jobs: []workload.Job{
		{ID: 0, Submit: 0, Tasks: 1, CPUNeed: 1, MemReq: 0.5, ExecTime: 100},
		{ID: 1, Submit: 1000, Tasks: 1, CPUNeed: 1, MemReq: 0.5, ExecTime: 100},
	}}
	rec := &Recorder{}
	s, err := New(Config{Trace: tr, Observer: rec, MaxSimTime: 1e9}, newTestGreedy())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	type hook struct {
		time  float64
		name  string
		inSys int
	}
	var got []hook
	for _, e := range rec.Events() {
		if e.Kind == EvSchedulerInvoked {
			got = append(got, hook{e.Time, e.Hook, e.JobsInSystem})
		}
	}
	want := []hook{{0, "init", 1}, {0, "arrival", 1}, {100, "completion", 0}, {1000, "arrival", 1}, {1100, "completion", 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scheduler invocations = %v, want %v", got, want)
	}
}

// TestObserverEventCoverage checks the lifecycle events appear with sane
// shape: one submit and one completion per job, starts with node lists.
func TestObserverEventCoverage(t *testing.T) {
	tr := obsTrace(t)
	evs := runObserved(t, tr)
	counts := map[EventKind]int{}
	for _, e := range evs {
		counts[e.Kind]++
		if e.Kind == EvStarted && len(e.Nodes) == 0 {
			t.Errorf("started event without nodes: %+v", e)
		}
		if e.Kind == EvSchedulerInvoked && e.Hook == "" {
			t.Errorf("scheduler invocation without hook name: %+v", e)
		}
	}
	if counts[EvSubmitted] != len(tr.Jobs) {
		t.Errorf("%d submitted events, want %d", counts[EvSubmitted], len(tr.Jobs))
	}
	if counts[EvCompleted] != len(tr.Jobs) {
		t.Errorf("%d completed events, want %d", counts[EvCompleted], len(tr.Jobs))
	}
	if counts[EvSchedulerInvoked] == 0 {
		t.Error("no scheduler invocations observed")
	}
}

// cancelObserver cancels a context after a fixed number of completions.
type cancelObserver struct {
	Recorder
	cancel context.CancelFunc
	after  int
	seen   int
}

func (c *cancelObserver) JobCompleted(now float64, jid int, turnaround float64) {
	c.Recorder.JobCompleted(now, jid, turnaround)
	c.seen++
	if c.seen == c.after {
		c.cancel()
	}
}

// TestRunContextCancelsAtEventGranularity cancels mid-run from an observer
// hook and checks the simulator stops with an error wrapping
// context.Canceled after at most one further event.
func TestRunContextCancelsAtEventGranularity(t *testing.T) {
	tr := obsTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	obs := &cancelObserver{cancel: cancel, after: 2}
	s, err := New(Config{Trace: tr, Observer: obs, MaxSimTime: 1e9}, newTestGreedy())
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	done := 0
	for _, e := range obs.Events() {
		if e.Kind == EvCompleted {
			done++
		}
	}
	if done != obs.after {
		t.Errorf("%d completions observed after cancel, want exactly %d", done, obs.after)
	}
}

// TestRunContextPreCancelled runs nothing when the context is already
// cancelled.
func TestRunContextPreCancelled(t *testing.T) {
	tr := obsTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := New(Config{Trace: tr, MaxSimTime: 1e9}, newTestGreedy())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestUnschedulableJobRejectedEagerly checks the typed up-front rejection:
// a job too big for every node of a thin cluster must fail at construction
// with an UnschedulableError naming the job and the binding resource.
func TestUnschedulableJobRejectedEagerly(t *testing.T) {
	thin := cluster.New([]cluster.NodeSpec{cluster.Spec(0.5, 0.5), cluster.Spec(0.6, 0.6)})
	mk := func(cpu, mem float64) *workload.Trace {
		tr := &workload.Trace{Name: "thin", Nodes: 2, NodeMemGB: 8, Jobs: []workload.Job{
			{ID: 7, Submit: 0, Tasks: 1, CPUNeed: cpu, MemReq: mem, ExecTime: 10},
		}}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	_, err := New(Config{Trace: mk(0.1, 0.8), Cluster: thin}, newTestGreedy())
	var ue *UnschedulableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UnschedulableError", err)
	}
	if ue.JobID != 7 || ue.Resource != "memory" || ue.MaxCap != 0.6 {
		t.Errorf("memory rejection wrong: %+v", ue)
	}

	_, err = New(Config{Trace: mk(0.9, 0.1), Cluster: thin}, newTestGreedy())
	ue = nil
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UnschedulableError", err)
	}
	if ue.JobID != 7 || ue.Resource != "cpu" || ue.MaxCap != 0.6 {
		t.Errorf("cpu rejection wrong: %+v", ue)
	}

	// A job that fits the fattest node passes the eager check.
	if _, err := New(Config{Trace: mk(0.6, 0.6), Cluster: thin}, newTestGreedy()); err != nil {
		t.Errorf("schedulable job rejected: %v", err)
	}
}
