package mcb

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vectorpack"
	"repro/internal/workload"
)

func jb(id int, submit float64, tasks int, cpu, mem, exec float64) workload.Job {
	return workload.Job{ID: id, Submit: submit, Tasks: tasks, CPUNeed: cpu, MemReq: mem, ExecTime: exec}
}

func run(t *testing.T, opt Options, penalty float64, nodes int, jobs ...workload.Job) *sim.Result {
	t.Helper()
	tr := &workload.Trace{Name: "mcb-test", Nodes: nodes, NodeMemGB: 8, Jobs: jobs}
	simulator, err := sim.New(sim.Config{Trace: tr, Penalty: penalty, CheckInvariants: true}, New(opt))
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

func TestNames(t *testing.T) {
	cases := map[string]Options{
		"dynmcb8":                 {},
		"dynmcb8-per-600":         {Period: 600},
		"dynmcb8-asap-per-600":    {Period: 600, ASAP: true},
		"dynmcb8-stretch-per-600": {Period: 600, Stretch: true},
		"dynmcb8-per-fair-600":    {Period: 600, FairnessAge: 3600},
		"custom":                  {Period: 600, NameOverride: "custom"},
	}
	for want, opt := range cases {
		if got := New(opt).Name(); got != want {
			t.Errorf("New(%+v).Name() = %q, want %q", opt, got, want)
		}
	}
}

func TestDynMCB8StartsImmediately(t *testing.T) {
	// Plain DYNMCB8 reschedules at every event: a job arriving on an
	// empty cluster starts at its submit time with yield 1.
	res := run(t, Options{}, 0, 2, jb(0, 5, 1, 0.5, 0.2, 100))
	jr := byID(res)
	if jr[0].Start != 5 || math.Abs(jr[0].Turnaround-100) > 1e-6 {
		t.Errorf("job: %+v", jr[0])
	}
}

func TestDynMCB8SharesOptimally(t *testing.T) {
	// Two CPU-bound single-task jobs, two nodes: the vector packer puts
	// them on separate nodes at yield 1 — no sharing needed.
	res := run(t, Options{}, 0, 2,
		jb(0, 0, 1, 1.0, 0.2, 100),
		jb(1, 0, 1, 1.0, 0.2, 100),
	)
	for _, jr := range res.Jobs {
		if math.Abs(jr.Turnaround-100) > 1e-6 {
			t.Errorf("job %d turnaround %v, want 100 (separate nodes)", jr.Job.ID, jr.Turnaround)
		}
	}
}

func TestDynMCB8BinarySearchYield(t *testing.T) {
	// Three CPU-bound jobs on one node (memory allows): max-min yield is
	// 1/3, so each takes ~300s (within the 0.01 search accuracy).
	res := run(t, Options{}, 0, 1,
		jb(0, 0, 1, 1.0, 0.2, 100),
		jb(1, 0, 1, 1.0, 0.2, 100),
		jb(2, 0, 1, 1.0, 0.2, 100),
	)
	for _, jr := range res.Jobs {
		if jr.Turnaround < 290 || jr.Turnaround > 310 {
			t.Errorf("job %d turnaround %v, want ~300", jr.Job.ID, jr.Turnaround)
		}
	}
}

func TestPeriodicQueuesUntilTick(t *testing.T) {
	// DYNMCB8-PER-600: a job arriving at t=5 waits for the first tick at
	// t=600.
	res := run(t, Options{Period: 600}, 0, 2, jb(0, 5, 1, 0.5, 0.2, 100))
	jr := byID(res)
	if jr[0].Start != 600 {
		t.Errorf("start = %v, want 600 (first tick)", jr[0].Start)
	}
}

func TestASAPStartsBetweenTicks(t *testing.T) {
	res := run(t, Options{Period: 600, ASAP: true}, 0, 2, jb(0, 5, 1, 0.5, 0.2, 100))
	jr := byID(res)
	if jr[0].Start != 5 {
		t.Errorf("start = %v, want 5 (ASAP admission)", jr[0].Start)
	}
}

func TestASAPFallsBackToTickOnMemoryPressure(t *testing.T) {
	// Node full of memory until t=700: the ASAP arrival at t=5 cannot be
	// placed greedily and waits for a tick after memory frees.
	res := run(t, Options{Period: 600, ASAP: true}, 0, 1,
		jb(0, 0, 1, 0.5, 0.9, 700),
		jb(1, 5, 1, 0.5, 0.5, 10),
	)
	jr := byID(res)
	if jr[1].Start < 600 {
		t.Errorf("start = %v; expected to wait for a scheduling event", jr[1].Start)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("only %d jobs finished", len(res.Jobs))
	}
}

func TestStretchVariantProtectsLaggards(t *testing.T) {
	// Stretch-driven allocation gives more CPU to the job with the worse
	// flow/virtual-time ratio. Start one job late so it lags, then check
	// it is not starved relative to the min-yield variant.
	jobs := []workload.Job{
		jb(0, 0, 1, 1.0, 0.2, 2000),
		jb(1, 0, 1, 1.0, 0.2, 2000),
		jb(2, 1200, 1, 1.0, 0.2, 2000),
	}
	res := run(t, Options{Period: 600, Stretch: true}, 0, 1, jobs...)
	if len(res.Jobs) != 3 {
		t.Fatalf("only %d jobs finished", len(res.Jobs))
	}
	for _, jr := range res.Jobs {
		if jr.Turnaround < jr.Job.ExecTime-1e-6 {
			t.Errorf("job %d impossibly fast: %v", jr.Job.ID, jr.Turnaround)
		}
	}
}

func TestMemoryBoundRemovesLowestPriority(t *testing.T) {
	// One node; two jobs each needing 0.9 memory cannot coexist. The
	// repack must shed one (the lowest-priority) and still finish both
	// eventually.
	res := run(t, Options{}, 0, 1,
		jb(0, 0, 1, 0.5, 0.9, 100),
		jb(1, 10, 1, 0.5, 0.9, 100),
	)
	if len(res.Jobs) != 2 {
		t.Fatalf("only %d jobs finished", len(res.Jobs))
	}
	jr := byID(res)
	// Hand-computed schedule: job 0 runs 0-10 (vt=10, finite priority);
	// job 1 arrives at t=10 with infinite priority (vt=0), so job 0 is
	// shed and paused. Job 1 runs 10-110; job 0 resumes and finishes its
	// remaining 90 virtual seconds by t=200.
	if jr[0].Pauses == 0 {
		t.Error("job 0 (lowest priority) was not shed")
	}
	if math.Abs(jr[1].Finish-110) > 1e-6 {
		t.Errorf("job 1 finish = %v, want 110", jr[1].Finish)
	}
	if math.Abs(jr[0].Finish-200) > 1e-6 {
		t.Errorf("job 0 finish = %v, want 200", jr[0].Finish)
	}
}

func TestRepackMigrationAccounting(t *testing.T) {
	// Force a migration: job 0 alone, then job 1 arrives whose packing
	// displaces job 0's task. With every-event repacks and MCB8's
	// deterministic order, node assignments can change; we only assert
	// consistency: any migration implies the counters agree.
	res := run(t, Options{}, 300, 2,
		jb(0, 0, 1, 0.6, 0.5, 400),
		jb(1, 100, 1, 0.9, 0.7, 400),
		jb(2, 200, 1, 0.3, 0.4, 400),
	)
	var pauses, migs int
	for _, jr := range res.Jobs {
		pauses += jr.Pauses
		migs += jr.Migrations
	}
	if pauses != res.PreemptionOps || migs != res.MigrationOps {
		t.Errorf("per-job (%d,%d) vs global (%d,%d) operation counts disagree",
			pauses, migs, res.PreemptionOps, res.MigrationOps)
	}
}

func TestFairnessVariantLimitsOldJobs(t *testing.T) {
	res := run(t, Options{Period: 600, FairnessAge: 600}, 0, 1,
		jb(0, 0, 1, 1.0, 0.2, 3000),
		jb(1, 1200, 1, 1.0, 0.2, 300),
	)
	if len(res.Jobs) != 2 {
		t.Fatalf("only %d jobs finished", len(res.Jobs))
	}
	jr := byID(res)
	// The young job shares fairly and must finish well before the old one.
	if jr[1].Finish >= jr[0].Finish {
		t.Errorf("young job finished at %v, old at %v", jr[1].Finish, jr[0].Finish)
	}
}

func TestCustomPackerOption(t *testing.T) {
	res := run(t, Options{Period: 600, Packer: vectorpack.FirstFitDecreasing{}, NameOverride: "ffd-variant"},
		0, 2,
		jb(0, 0, 1, 0.5, 0.2, 100),
		jb(1, 0, 1, 0.5, 0.2, 100),
	)
	if res.Algorithm != "ffd-variant" {
		t.Errorf("algorithm name = %q", res.Algorithm)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("only %d jobs finished", len(res.Jobs))
	}
}

func TestPeriodicTicksDoNotLeakAfterCompletion(t *testing.T) {
	// A short workload under a periodic scheduler must terminate (the
	// simulator stops at the last completion even with timers pending).
	res := run(t, Options{Period: 600}, 0, 2, jb(0, 0, 1, 1.0, 0.2, 50))
	if res.Makespan != 650 {
		t.Errorf("makespan = %v, want 650 (start at tick 600 + 50s)", res.Makespan)
	}
}

// seq returns n node ids, each node i appearing i%3+1 times in a block, the
// blocks rotated by rot.
func seq(n, rot int) []int {
	var s []int
	for i := 0; len(s) < n; i++ {
		for k := 0; k <= i%3 && len(s) < n; k++ {
			s = append(s, i)
		}
	}
	rot %= n
	return append(s[rot:], s[:rot]...)
}

func TestSameMultiset(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{[]int{1, 2}, []int{2, 1}, true},
		{[]int{1, 1, 2}, []int{1, 2, 2}, false},
		{[]int{}, []int{}, true},
		{[]int{1}, []int{1, 1}, false},
		{[]int{3, 3}, []int{3, 3}, true},
		{seq(10, 3), seq(10, 4), true},
		{seq(10, 3), append(seq(9, 3), 3), false},
		{seq(300, 3), seq(300, 4), true},
		{seq(300, 3), append(seq(299, 3), 3), false},
	}
	for _, c := range cases {
		if got := sim.SameMultiset(c.a, c.b); got != c.want {
			t.Errorf("SameMultiset(%v, %v) = %v", c.a, c.b, got)
		}
	}
}
