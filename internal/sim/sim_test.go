package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// script is a programmable scheduler for driving hand-computed scenarios.
type script struct {
	name         string
	onInit       func(ctl *Controller)
	onArrival    func(ctl *Controller, jid int)
	onCompletion func(ctl *Controller, jid int)
	onTimer      func(ctl *Controller, tag int64)
}

func (s *script) Name() string {
	if s.name == "" {
		return "script"
	}
	return s.name
}
func (s *script) Init(ctl *Controller) {
	if s.onInit != nil {
		s.onInit(ctl)
	}
}
func (s *script) OnArrival(ctl *Controller, jid int) {
	if s.onArrival != nil {
		s.onArrival(ctl, jid)
	}
}
func (s *script) OnCompletion(ctl *Controller, jid int) {
	if s.onCompletion != nil {
		s.onCompletion(ctl, jid)
	}
}
func (s *script) OnTimer(ctl *Controller, tag int64) {
	if s.onTimer != nil {
		s.onTimer(ctl, tag)
	}
}

// startImmediately places every arriving job on nodes [0..tasks) at the
// given yield.
func startImmediately(yield float64) *script {
	return &script{onArrival: func(ctl *Controller, jid int) {
		ji := ctl.Job(jid)
		nodes := make([]int, ji.Job.Tasks)
		for i := range nodes {
			nodes[i] = i
		}
		ctl.Start(jid, nodes)
		ctl.SetYield(jid, yield)
	}}
}

func trace(jobs ...workload.Job) *workload.Trace {
	return &workload.Trace{Name: "test", Nodes: 4, NodeMemGB: 8, Jobs: jobs}
}

func job(id int, submit float64, tasks int, exec float64) workload.Job {
	return workload.Job{ID: id, Submit: submit, Tasks: tasks, CPUNeed: 0.5, MemReq: 0.25, ExecTime: exec}
}

func mustRun(t *testing.T, cfg Config, s Scheduler) *Result {
	t.Helper()
	cfg.CheckInvariants = true
	simulator, err := New(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFullYieldCompletion(t *testing.T) {
	res := mustRun(t, Config{Trace: trace(job(0, 10, 1, 100))}, startImmediately(1))
	if len(res.Jobs) != 1 {
		t.Fatalf("%d jobs finished", len(res.Jobs))
	}
	jr := res.Jobs[0]
	if jr.Start != 10 || jr.Finish != 110 || jr.Turnaround != 100 {
		t.Errorf("start/finish/turnaround = %v/%v/%v, want 10/110/100", jr.Start, jr.Finish, jr.Turnaround)
	}
	if res.Makespan != 110 {
		t.Errorf("makespan = %v", res.Makespan)
	}
}

func TestHalfYieldDoublesRuntime(t *testing.T) {
	res := mustRun(t, Config{Trace: trace(job(0, 0, 1, 100))}, startImmediately(0.5))
	if got := res.Jobs[0].Turnaround; math.Abs(got-200) > 1e-9 {
		t.Errorf("turnaround = %v, want 200 at yield 0.5", got)
	}
}

func TestYieldChangeMidRun(t *testing.T) {
	// Run at yield 1 for 50s, then drop to 0.25 via a timer: remaining 50
	// virtual seconds take 200 wall seconds; total 250.
	s := startImmediately(1)
	s.onInit = func(ctl *Controller) { ctl.SetTimer(50, 1) }
	s.onTimer = func(ctl *Controller, tag int64) { ctl.SetYield(0, 0.25) }
	res := mustRun(t, Config{Trace: trace(job(0, 0, 1, 100))}, s)
	if got := res.Jobs[0].Turnaround; math.Abs(got-250) > 1e-9 {
		t.Errorf("turnaround = %v, want 250", got)
	}
}

func TestVirtualTimeAccounting(t *testing.T) {
	// The paper's example: 10s at yield 1.0, pause 120s, 30s at yield 0.5
	// gives 25 virtual seconds.
	var vtAt25 float64
	s := &script{
		onArrival: func(ctl *Controller, jid int) {
			ctl.Start(jid, []int{0})
			ctl.SetYield(jid, 1)
		},
		onTimer: func(ctl *Controller, tag int64) {
			switch tag {
			case 1: // t=10: pause
				ctl.Pause(0)
			case 2: // t=130: resume at yield 0.5
				ctl.Resume(0, []int{0})
				ctl.SetYield(0, 0.5)
			case 3: // t=160: observe virtual time
				vtAt25 = ctl.Job(0).VirtualTime
			}
		},
		onInit: func(ctl *Controller) {
			ctl.SetTimer(10, 1)
			ctl.SetTimer(130, 2)
			ctl.SetTimer(160, 3)
		},
	}
	mustRun(t, Config{Trace: trace(job(0, 0, 1, 100))}, s)
	if math.Abs(vtAt25-25) > 1e-9 {
		t.Errorf("virtual time = %v, want 25 (10x1.0 + 30x0.5)", vtAt25)
	}
}

func TestPenaltyFreezesProgress(t *testing.T) {
	// Pause at t=10, resume at t=20 with a 300s penalty: the job holds
	// nodes from t=20 but only progresses from t=320. Remaining 90
	// virtual seconds -> finish at 410.
	s := &script{
		onArrival: func(ctl *Controller, jid int) {
			ctl.Start(jid, []int{0})
			ctl.SetYield(jid, 1)
		},
		onInit: func(ctl *Controller) {
			ctl.SetTimer(10, 1)
			ctl.SetTimer(20, 2)
		},
		onTimer: func(ctl *Controller, tag int64) {
			switch tag {
			case 1:
				ctl.Pause(0)
			case 2:
				ctl.Resume(0, []int{1})
				ctl.SetYield(0, 1)
			}
		},
	}
	res := mustRun(t, Config{Trace: trace(job(0, 0, 1, 100)), Penalty: 300}, s)
	if got := res.Jobs[0].Finish; math.Abs(got-410) > 1e-9 {
		t.Errorf("finish = %v, want 410", got)
	}
	if res.PreemptionOps != 1 {
		t.Errorf("preemptions = %d, want 1", res.PreemptionOps)
	}
	// Save + restore of 1 task x 0.25 x 8 GB = 2 GB each way -> 4 GB.
	if math.Abs(res.PreemptionGB-4) > 1e-9 {
		t.Errorf("preemption GB = %v, want 4", res.PreemptionGB)
	}
	if res.Jobs[0].Pauses != 1 {
		t.Errorf("job pauses = %d", res.Jobs[0].Pauses)
	}
}

func TestMigrationAccounting(t *testing.T) {
	s := &script{
		onArrival: func(ctl *Controller, jid int) {
			ctl.Start(jid, []int{0})
			ctl.SetYield(jid, 1)
		},
		onInit: func(ctl *Controller) { ctl.SetTimer(40, 1) },
		onTimer: func(ctl *Controller, tag int64) {
			ctl.Migrate(0, []int{2})
			ctl.SetYield(0, 1)
		},
	}
	res := mustRun(t, Config{Trace: trace(job(0, 0, 1, 100)), Penalty: 300}, s)
	// 40s of progress, then 300s frozen, then 60s remaining: finish 400.
	if got := res.Jobs[0].Finish; math.Abs(got-400) > 1e-9 {
		t.Errorf("finish = %v, want 400", got)
	}
	if res.MigrationOps != 1 || res.PreemptionOps != 0 {
		t.Errorf("ops = %d pmtn, %d mig", res.PreemptionOps, res.MigrationOps)
	}
	// Migration moves 2 GB twice.
	if math.Abs(res.MigrationGB-4) > 1e-9 {
		t.Errorf("migration GB = %v, want 4", res.MigrationGB)
	}
}

func TestMigrateToSameNodesIsNoop(t *testing.T) {
	s := &script{
		onArrival: func(ctl *Controller, jid int) {
			ctl.Start(jid, []int{0, 1})
			ctl.SetYield(jid, 1)
		},
		onInit: func(ctl *Controller) { ctl.SetTimer(10, 1) },
		onTimer: func(ctl *Controller, tag int64) {
			// Same multiset, different order: physically identical.
			ctl.Migrate(0, []int{1, 0})
		},
	}
	res := mustRun(t, Config{Trace: trace(job(0, 0, 2, 100)), Penalty: 300}, s)
	if res.MigrationOps != 0 {
		t.Errorf("permutation counted as migration")
	}
	if got := res.Jobs[0].Finish; math.Abs(got-100) > 1e-9 {
		t.Errorf("finish = %v, want 100 (no freeze)", got)
	}
}

func TestSameEventPauseResumeRefund(t *testing.T) {
	// Pausing and resuming on the same nodes within one event must leave
	// no trace: no ops, no penalty.
	s := &script{
		onArrival: func(ctl *Controller, jid int) {
			ctl.Start(jid, []int{0})
			ctl.SetYield(jid, 1)
		},
		onInit: func(ctl *Controller) { ctl.SetTimer(10, 1) },
		onTimer: func(ctl *Controller, tag int64) {
			ctl.Pause(0)
			ctl.Resume(0, []int{0})
			ctl.SetYield(0, 1)
		},
	}
	res := mustRun(t, Config{Trace: trace(job(0, 0, 1, 100)), Penalty: 300}, s)
	if res.PreemptionOps != 0 || res.MigrationOps != 0 {
		t.Errorf("ops = %d pmtn %d mig, want 0/0", res.PreemptionOps, res.MigrationOps)
	}
	if got := res.Jobs[0].Finish; math.Abs(got-100) > 1e-9 {
		t.Errorf("finish = %v, want 100", got)
	}
	if res.PreemptionGB != 0 {
		t.Errorf("preemption GB = %v, want 0 after refund", res.PreemptionGB)
	}
}

func TestSameEventPauseResumeElsewhereIsMigration(t *testing.T) {
	s := &script{
		onArrival: func(ctl *Controller, jid int) {
			ctl.Start(jid, []int{0})
			ctl.SetYield(jid, 1)
		},
		onInit: func(ctl *Controller) { ctl.SetTimer(10, 1) },
		onTimer: func(ctl *Controller, tag int64) {
			ctl.Pause(0)
			ctl.Resume(0, []int{3})
			ctl.SetYield(0, 1)
		},
	}
	res := mustRun(t, Config{Trace: trace(job(0, 0, 1, 100)), Penalty: 300}, s)
	if res.PreemptionOps != 0 || res.MigrationOps != 1 {
		t.Errorf("ops = %d pmtn %d mig, want 0/1 (reclassified)", res.PreemptionOps, res.MigrationOps)
	}
	if res.Jobs[0].Migrations != 1 || res.Jobs[0].Pauses != 0 {
		t.Errorf("job counters: %d pauses %d migs", res.Jobs[0].Pauses, res.Jobs[0].Migrations)
	}
	if got := res.Jobs[0].Finish; math.Abs(got-400) > 1e-9 {
		t.Errorf("finish = %v, want 400 (penalty applies)", got)
	}
}

func TestTwoJobsSharedNode(t *testing.T) {
	// Two 1-task jobs on the same node at yield 0.5 each; both finish at
	// 2x execution time.
	s := &script{onArrival: func(ctl *Controller, jid int) {
		ctl.Start(jid, []int{0})
		ctl.SetYield(0, 0)
		if ctl.Job(1).State == Running {
			ctl.SetYield(0, 0.5)
			ctl.SetYield(1, 0.5)
		} else {
			ctl.SetYield(0, 1)
		}
	}}
	tr := trace(job(0, 0, 1, 100), job(1, 0, 1, 100))
	res := mustRun(t, Config{Trace: tr}, s)
	for _, jr := range res.Jobs {
		if math.Abs(jr.Turnaround-200) > 1e-6 {
			t.Errorf("job %d turnaround = %v, want 200", jr.Job.ID, jr.Turnaround)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	// A scheduler that never starts anything must be reported, not hang.
	simulator, err := New(Config{Trace: trace(job(0, 0, 1, 10))}, &script{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulator.Run(); err == nil {
		t.Error("expected deadlock error")
	}
}

func TestMaxSimTime(t *testing.T) {
	// Yield so low the job would take years: MaxSimTime must abort.
	s := startImmediately(1e-9)
	simulator, err := New(Config{Trace: trace(job(0, 0, 1, 1000)), MaxSimTime: 3600}, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulator.Run(); err == nil {
		t.Error("expected MaxSimTime error")
	}
}

func TestControllerViews(t *testing.T) {
	var checked bool
	s := &script{
		onArrival: func(ctl *Controller, jid int) {
			// Jobs are admitted lazily: at t=0 only job 0 has a jid, the
			// future job gets one when the clock reaches it.
			if ctl.NumNodes() != 4 || ctl.NumJobs() != 1 {
				t.Errorf("NumNodes/NumJobs = %d/%d, want 4/1", ctl.NumNodes(), ctl.NumJobs())
			}
			ji := ctl.Job(jid)
			if ji.State != Pending {
				t.Errorf("arriving job state = %v", ji.State)
			}
			ctl.Start(jid, []int{1})
			ctl.SetYield(jid, 0.8)
			if got := ctl.CPULoad(1); math.Abs(got-0.5) > 1e-12 {
				t.Errorf("CPULoad = %v, want 0.5 (the need, not the allocation)", got)
			}
			if got := ctl.AllocatedCPU(1); math.Abs(got-0.4) > 1e-12 {
				t.Errorf("AllocatedCPU = %v, want 0.4", got)
			}
			if got := ctl.UsedMem(1); math.Abs(got-0.25) > 1e-12 {
				t.Errorf("UsedMem = %v, want 0.25", got)
			}
			if got := ctl.FreeMem(1); math.Abs(got-0.75) > 1e-12 {
				t.Errorf("FreeMem = %v, want 0.75", got)
			}
			if got := ctl.MaxCPULoad(); math.Abs(got-0.5) > 1e-12 {
				t.Errorf("MaxCPULoad = %v", got)
			}
			if got := ctl.EarliestFinish(jid); math.Abs(got-125) > 1e-9 {
				t.Errorf("EarliestFinish = %v, want 125 (100/0.8)", got)
			}
			checked = true
		},
	}
	tr := &workload.Trace{Name: "v", Nodes: 4, NodeMemGB: 8, Jobs: []workload.Job{
		job(0, 0, 1, 100),
		job(1, 1e6, 1, 1), // future job: must be invisible at t=0
	}}
	simulator, err := New(Config{Trace: tr, CheckInvariants: true}, &script{
		onArrival: func(ctl *Controller, jid int) {
			if jid == 0 {
				s.onArrival(ctl, jid)
				if got := len(ctl.ActiveJobs()); got != 1 {
					t.Errorf("ActiveJobs = %d, want 1 (future jobs invisible)", got)
				}
				return
			}
			if got := ctl.NumJobs(); got != 2 {
				t.Errorf("NumJobs at the second arrival = %d, want 2", got)
			}
			ctl.Start(jid, []int{0})
			ctl.SetYield(jid, 1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulator.Run(); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Error("controller checks never ran")
	}
}

// TestJidLifetime pins the jid contract: a completed job is visible (state
// Done) inside its completion hook and forgotten afterwards, and Job panics
// with a clear message on a forgotten or not-yet-admitted jid.
func TestJidLifetime(t *testing.T) {
	mustPanic := func(ctl *Controller, jid int) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("Job(%d) did not panic", jid)
			} else if msg, _ := r.(string); !strings.Contains(msg, "not yet admitted or already completed") {
				t.Errorf("Job(%d) panic = %v", jid, r)
			}
		}()
		ctl.Job(jid)
	}
	var sawDone, checked bool
	s := startImmediately(1)
	start := s.onArrival
	s.onArrival = func(ctl *Controller, jid int) {
		if jid == 1 {
			if got := ctl.JobsInState(Done); len(got) != 0 {
				t.Errorf("JobsInState(Done) after the hook = %v, want empty", got)
			}
			mustPanic(ctl, 0)
			mustPanic(ctl, 2)
			checked = true
		}
		start(ctl, jid)
	}
	s.onCompletion = func(ctl *Controller, jid int) {
		if jid == 0 {
			if got := ctl.JobsInState(Done); len(got) != 1 || got[0] != 0 {
				t.Errorf("JobsInState(Done) in the hook = %v, want [0]", got)
			}
			sawDone = ctl.Job(0).State == Done
		}
	}
	mustRun(t, Config{Trace: trace(job(0, 0, 1, 10), job(1, 100, 1, 10))}, s)
	if !sawDone || !checked {
		t.Errorf("hooks ran: done-in-hook %v, forgotten-after %v", sawDone, checked)
	}
}

func TestAttemptsCounter(t *testing.T) {
	s := &script{
		onArrival: func(ctl *Controller, jid int) {
			if got := ctl.IncrementAttempts(jid); got != 1 {
				t.Errorf("first increment = %d", got)
			}
			if got := ctl.IncrementAttempts(jid); got != 2 {
				t.Errorf("second increment = %d", got)
			}
			ctl.Start(jid, []int{0})
			ctl.SetYield(jid, 1)
		},
	}
	mustRun(t, Config{Trace: trace(job(0, 0, 1, 10))}, s)
}

func TestStateString(t *testing.T) {
	names := map[JobState]string{Pending: "pending", Running: "running", Paused: "paused", Done: "done"}
	for st, want := range names {
		if got := st.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", st, got, want)
		}
	}
}

func TestRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}, &script{}); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := New(Config{Trace: trace(job(0, 0, 1, 10)), Penalty: -1}, &script{}); err == nil {
		t.Error("negative penalty accepted")
	}
	bad := trace(workload.Job{ID: 0, Tasks: 0, CPUNeed: 0.5, MemReq: 0.5, ExecTime: 1})
	if _, err := New(Config{Trace: bad}, &script{}); err == nil {
		t.Error("invalid trace accepted")
	}
}

// TestSchedTimeRecording: hooks are timed only for an observer, which
// receives one SchedulerInvoked per hook; the timeline records none.
func TestSchedTimeRecording(t *testing.T) {
	var hooks []string
	obs := ObserverFunc(func(e Event) {
		if e.Kind == EvSchedulerInvoked {
			hooks = append(hooks, e.Hook)
		}
	})
	simulator, err := New(Config{Trace: trace(job(0, 0, 1, 10)), Observer: obs, RecordTimeline: true}, startImmediately(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"init", "arrival", "completion"}; !reflect.DeepEqual(hooks, want) {
		t.Errorf("timed hooks = %v, want %v", hooks, want)
	}
	var kinds []TimelineKind
	for _, e := range res.Timeline {
		kinds = append(kinds, e.Kind)
	}
	if want := []TimelineKind{TlSubmit, TlStart, TlYield, TlFinish}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("timeline kinds = %v, want %v", kinds, want)
	}
}
