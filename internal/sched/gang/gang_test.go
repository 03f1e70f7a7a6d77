package gang

import (
	"math"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

func jb(id int, submit float64, tasks int, cpu, mem, exec float64) workload.Job {
	return workload.Job{ID: id, Submit: submit, Tasks: tasks, CPUNeed: cpu, MemReq: mem, ExecTime: exec}
}

func run(t *testing.T, quantum float64, nodes int, jobs ...workload.Job) *sim.Result {
	t.Helper()
	tr := &workload.Trace{Name: "gang-test", Nodes: nodes, NodeMemGB: 8, Jobs: jobs}
	simulator, err := sim.New(sim.Config{Trace: tr, CheckInvariants: true}, New(quantum))
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.Validate(res); err != nil {
		t.Fatal(err)
	}
	return res
}

func byID(res *sim.Result) map[int]sim.JobResult {
	out := map[int]sim.JobResult{}
	for _, jr := range res.Jobs {
		out[jr.Job.ID] = jr
	}
	return out
}

func TestSingleJobRunsAtFullSpeed(t *testing.T) {
	res := run(t, 60, 2, jb(0, 0, 1, 1.0, 0.2, 100))
	jr := byID(res)
	if math.Abs(jr[0].Turnaround-100) > 1e-6 {
		t.Errorf("turnaround = %v, want 100 (only row always current)", jr[0].Turnaround)
	}
}

func TestTwoRowsAlternate(t *testing.T) {
	// Two CPU-bound jobs that cannot share a row on one node: they time-
	// slice 50/50, so each takes ~2x its execution time.
	res := run(t, 60, 1,
		jb(0, 0, 1, 1.0, 0.2, 600),
		jb(1, 0, 1, 1.0, 0.2, 600),
	)
	for _, jr := range res.Jobs {
		// Alternating 60s slices: each job accrues 600s of virtual time
		// in roughly 1200s of wall clock (plus at most one quantum skew).
		if jr.Turnaround < 1100 || jr.Turnaround > 1300 {
			t.Errorf("job %d turnaround %v, want ~1200", jr.Job.ID, jr.Turnaround)
		}
	}
}

func TestRowSharingWithinSlice(t *testing.T) {
	// Two half-CPU jobs fit in ONE row on one node: no alternation, both
	// run at full need simultaneously.
	res := run(t, 60, 1,
		jb(0, 0, 1, 0.5, 0.2, 100),
		jb(1, 0, 1, 0.5, 0.2, 100),
	)
	for _, jr := range res.Jobs {
		if math.Abs(jr.Turnaround-100) > 1e-6 {
			t.Errorf("job %d turnaround %v, want 100 (same row)", jr.Job.ID, jr.Turnaround)
		}
	}
}

func TestMemoryPressureBlocksAdmission(t *testing.T) {
	// Section VI: gang scheduling is limited by memory. Two 0.7-memory
	// jobs cannot stack on one node even in different rows; the second
	// waits for the first to complete.
	res := run(t, 60, 1,
		jb(0, 0, 1, 1.0, 0.7, 120),
		jb(1, 10, 1, 1.0, 0.7, 120),
	)
	jr := byID(res)
	if jr[1].Start < jr[0].Finish-1e-9 {
		t.Errorf("job 1 started at %v before job 0 finished at %v despite memory",
			jr[1].Start, jr[0].Finish)
	}
}

func TestGangNeverPausesOrMigrates(t *testing.T) {
	// Context switches are yield changes, not VM save/restore cycles: the
	// Table II counters stay zero even with many slices.
	res := run(t, 30, 2,
		jb(0, 0, 2, 1.0, 0.3, 300),
		jb(1, 15, 1, 1.0, 0.3, 300),
		jb(2, 45, 2, 1.0, 0.3, 300),
	)
	if res.PreemptionOps != 0 || res.MigrationOps != 0 {
		t.Errorf("gang charged pause/migration ops: %d/%d", res.PreemptionOps, res.MigrationOps)
	}
}

func TestMultiTaskGang(t *testing.T) {
	// A 3-task job and a 2-task job on 3 nodes, both CPU-bound: they land
	// in different rows and alternate; a 1-task light job shares a row.
	res := run(t, 60, 3,
		jb(0, 0, 3, 1.0, 0.2, 300),
		jb(1, 0, 2, 1.0, 0.2, 300),
		jb(2, 0, 1, 0.5, 0.2, 60),
	)
	if len(res.Jobs) != 3 {
		t.Fatalf("%d jobs finished", len(res.Jobs))
	}
	for _, jr := range res.Jobs {
		if jr.Turnaround < jr.Job.ExecTime-1e-9 {
			t.Errorf("job %d impossibly fast", jr.Job.ID)
		}
	}
}

// TestRowFilterCumulativeRule: a row takes another task on a node while
// the task's demand fits the node's capacity net of the tasks already
// there (cluster.NodeSlots' rule), not while the running sum plus the
// demand stays within capacity. The two differ a rounding step above a
// divisor of the capacity, where the sum form lets one task more share the
// node. First-fit puts the spilled tasks on node 1.
func TestRowFilterCumulativeRule(t *testing.T) {
	for _, c := range []struct {
		name string
		job  workload.Job
		want []int
	}{
		{"memory above a half", jb(0, 0, 2, 0.1, 0.5000000005, 10), []int{0, 1}},
		{"memory above a quarter", jb(0, 0, 4, 0.1, 0.25000000025, 10), []int{0, 0, 0, 1}},
		{"cpu above a half", jb(0, 0, 2, 0.5000000005, 0.1, 10), []int{0, 1}},
	} {
		tr := &workload.Trace{Name: "gang-rule", Nodes: 4, NodeMemGB: 8, Jobs: []workload.Job{c.job}}
		var rec sim.Recorder
		simulator, err := sim.New(sim.Config{Trace: tr, CheckInvariants: true, Observer: &rec}, New(60))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := simulator.Run(); err != nil {
			t.Fatal(err)
		}
		var started [][]int
		for _, e := range rec.Events() {
			if e.Kind == sim.EvStarted {
				started = append(started, e.Nodes)
			}
		}
		if len(started) != 1 || !slices.Equal(started[0], c.want) {
			t.Errorf("%s: started on %v, want once on %v", c.name, started, c.want)
		}
	}
}

func TestQuantumNaming(t *testing.T) {
	if got := New(60).Name(); got != "gang" {
		t.Errorf("default name = %q", got)
	}
	if got := New(120).Name(); got != "gang-120" {
		t.Errorf("custom name = %q", got)
	}
	if got := New(-5).Name(); got != "gang" {
		t.Errorf("invalid quantum name = %q (should fall back to default)", got)
	}
}

func TestRowCompaction(t *testing.T) {
	// Jobs arriving and completing must not leave ghost rows: after a
	// heavy churn, everything still completes.
	var jobs []workload.Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, jb(i, float64(i*20), 1+i%3, 1.0, 0.2, 100+float64(i%5)*40))
	}
	res := run(t, 30, 4, jobs...)
	if len(res.Jobs) != 12 {
		t.Fatalf("%d of 12 jobs finished", len(res.Jobs))
	}
}
