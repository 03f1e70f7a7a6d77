package sim_test

// Source equivalence battery: every algorithm of the paper runs the same
// trace twice — as an in-memory trace (Config.Trace.Jobs, checked up front
// by New) and as an explicit Config.Source over a metadata-only trace
// (jobs checked as they are admitted) — and the Results must match field
// for field, job for job, with the same number of events. Both runs admit
// jobs through the one source path; this pins that the up-front checks
// and the per-job checks agree and change nothing else.

import (
	"math"
	"testing"

	"repro/internal/lublin"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// streamTrace builds a contentious trace on a small cluster so preempting
// algorithms pause, migrate and reschedule while the stream drains.
func streamTrace(t *testing.T, jobs int) *workload.Trace {
	t.Helper()
	tr, err := lublin.GenerateTrace(rng.New(23), lublin.DefaultParams(16), jobs, "stream-eq")
	if err != nil {
		t.Fatal(err)
	}
	tr.NodeMemGB = 8
	tr, err = tr.ScaleToLoad(1.4)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// metaOnly strips the job list, as streaming callers pass the trace.
func metaOnly(tr *workload.Trace) *workload.Trace {
	return &workload.Trace{Name: tr.Name, Nodes: tr.Nodes, NodeMemGB: tr.NodeMemGB}
}

func sameResults(t *testing.T, alg string, mat, str *sim.Result) {
	t.Helper()
	if mat.Events != str.Events {
		t.Errorf("%s: events %d materialized vs %d streamed", alg, mat.Events, str.Events)
	}
	if mat.Makespan != str.Makespan {
		t.Errorf("%s: makespan %g vs %g", alg, mat.Makespan, str.Makespan)
	}
	if mat.PreemptionOps != str.PreemptionOps || mat.MigrationOps != str.MigrationOps {
		t.Errorf("%s: ops %d/%d vs %d/%d", alg, mat.PreemptionOps, mat.MigrationOps, str.PreemptionOps, str.MigrationOps)
	}
	if mat.PreemptionGB != str.PreemptionGB || mat.MigrationGB != str.MigrationGB {
		t.Errorf("%s: GB %g/%g vs %g/%g", alg, mat.PreemptionGB, mat.MigrationGB, str.PreemptionGB, str.MigrationGB)
	}
	if mat.DeliveredCPUSeconds != str.DeliveredCPUSeconds {
		t.Errorf("%s: delivered %g vs %g", alg, mat.DeliveredCPUSeconds, str.DeliveredCPUSeconds)
	}
	if mat.NodeCostSeconds != str.NodeCostSeconds {
		t.Errorf("%s: node cost %g vs %g", alg, mat.NodeCostSeconds, str.NodeCostSeconds)
	}
	if len(mat.Jobs) != len(str.Jobs) {
		t.Fatalf("%s: %d jobs materialized vs %d streamed", alg, len(mat.Jobs), len(str.Jobs))
	}
	for i := range mat.Jobs {
		a, b := mat.Jobs[i], str.Jobs[i]
		if a.Job.ID != b.Job.ID || a.Start != b.Start || a.Finish != b.Finish ||
			a.Turnaround != b.Turnaround || a.Pauses != b.Pauses || a.Migrations != b.Migrations {
			t.Errorf("%s: job %d differs: %+v vs %+v", alg, a.Job.ID, a, b)
		}
	}
}

func TestStreamingMatchesMaterialized(t *testing.T) {
	tr := streamTrace(t, 60)
	for _, alg := range nineAlgorithms {
		s1, err := sched.New(alg)
		if err != nil {
			t.Fatal(err)
		}
		mat, err := mustSim(t, sim.Config{Trace: tr, CheckInvariants: true}, s1)
		if err != nil {
			t.Fatalf("%s materialized: %v", alg, err)
		}
		s2, err := sched.New(alg)
		if err != nil {
			t.Fatal(err)
		}
		str, err := mustSim(t, sim.Config{
			Trace:           metaOnly(tr),
			Source:          workload.NewSliceSource(tr),
			CheckInvariants: true,
		}, s2)
		if err != nil {
			t.Fatalf("%s streamed: %v", alg, err)
		}
		sameResults(t, alg, mat, str)
	}
}

func mustSim(t *testing.T, cfg sim.Config, s sim.Scheduler) (*sim.Result, error) {
	t.Helper()
	simulator, err := sim.New(cfg, s)
	if err != nil {
		return nil, err
	}
	return simulator.Run()
}

// TestStreamingJobSink pins that a sink receives exactly the JobResults a
// materialized run accumulates, while Result.Jobs stays empty.
func TestStreamingJobSink(t *testing.T) {
	tr := streamTrace(t, 40)
	s1, _ := sched.New("dynmcb8")
	mat, err := mustSim(t, sim.Config{Trace: tr}, s1)
	if err != nil {
		t.Fatal(err)
	}
	var sunk []sim.JobResult
	s2, _ := sched.New("dynmcb8")
	str, err := mustSim(t, sim.Config{
		Trace:   metaOnly(tr),
		Source:  workload.NewSliceSource(tr),
		JobSink: func(jr sim.JobResult) { sunk = append(sunk, jr) },
	}, s2)
	if err != nil {
		t.Fatal(err)
	}
	if len(str.Jobs) != 0 {
		t.Fatalf("Result.Jobs holds %d entries despite sink", len(str.Jobs))
	}
	if len(sunk) != len(mat.Jobs) {
		t.Fatalf("sink saw %d jobs, want %d", len(sunk), len(mat.Jobs))
	}
	// The sink sees completion order; compare as sets keyed by job ID.
	byID := make(map[int]sim.JobResult, len(sunk))
	for _, jr := range sunk {
		byID[jr.Job.ID] = jr
	}
	for _, want := range mat.Jobs {
		got, ok := byID[want.Job.ID]
		if !ok {
			t.Fatalf("job %d missing from sink", want.Job.ID)
		}
		if got.Start != want.Start || got.Finish != want.Finish || got.Pauses != want.Pauses {
			t.Errorf("job %d differs via sink: %+v vs %+v", want.Job.ID, got, want)
		}
	}
	if math.Abs(mat.Makespan-str.Makespan) != 0 {
		t.Errorf("makespan %g vs %g", mat.Makespan, str.Makespan)
	}
}

// errSource yields jobs then fails, pinning mid-stream error surfacing.
type errSource struct {
	jobs []workload.Job
	err  error
	pos  int
}

func (s *errSource) Next() (workload.Job, bool, error) {
	if s.pos < len(s.jobs) {
		j := s.jobs[s.pos]
		s.pos++
		return j, true, nil
	}
	return workload.Job{}, false, s.err
}

func TestStreamingSourceErrorSurfaces(t *testing.T) {
	s, _ := sched.New("fcfs")
	simulator, err := sim.New(sim.Config{
		Trace: &workload.Trace{Name: "bad", Nodes: 4, NodeMemGB: 8},
		Source: &errSource{
			jobs: []workload.Job{{ID: 0, Submit: 1, Tasks: 1, CPUNeed: 0.5, MemReq: 0.25, ExecTime: 10}},
			err:  errBoom,
		},
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulator.Run(); err == nil {
		t.Fatal("source failure did not fail the run")
	}
}

// TestStreamingRejectsDisorder pins the admission-time ordering guard: a
// source violating the nondecreasing-submit contract fails the run.
func TestStreamingRejectsDisorder(t *testing.T) {
	s, _ := sched.New("fcfs")
	simulator, err := sim.New(sim.Config{
		Trace: &workload.Trace{Name: "disorder", Nodes: 4, NodeMemGB: 8},
		Source: &errSource{jobs: []workload.Job{
			{ID: 0, Submit: 10, Tasks: 1, CPUNeed: 0.5, MemReq: 0.25, ExecTime: 5},
			{ID: 1, Submit: 3, Tasks: 1, CPUNeed: 0.5, MemReq: 0.25, ExecTime: 5},
		}},
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulator.Run(); err == nil {
		t.Fatal("out-of-order stream accepted")
	}
}

var errBoom = errBoomType{}

type errBoomType struct{}

func (errBoomType) Error() string { return "boom" }
