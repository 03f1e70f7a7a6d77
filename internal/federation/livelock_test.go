package federation

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// stuckTimer is a faulty out-of-tree scheduler: it never starts a job, and
// from the first arrival on it re-arms a timer at the current instant
// forever. The clock never moves again, so MaxSimTime cannot stop the run.
type stuckTimer struct{}

func (stuckTimer) Name() string                         { return "test-stuck-timer" }
func (stuckTimer) Init(*sim.Controller)                 {}
func (stuckTimer) OnArrival(ctl *sim.Controller, _ int) { ctl.SetTimer(ctl.Now(), 0) }
func (stuckTimer) OnCompletion(*sim.Controller, int)    {}
func (stuckTimer) OnTimer(ctl *sim.Controller, tag int64) {
	ctl.SetTimer(ctl.Now(), tag+1)
}

// TestLivelockAtOneInstant: a registered scheduler that re-arms a timer at
// the current instant forever fails the run with a typed LivelockError
// naming the algorithm, the instant and the event count, wrapped with the
// member's name — instead of hanging.
func TestLivelockAtOneInstant(t *testing.T) {
	if err := sched.RegisterFactory("test-stuck-timer", func() sim.Scheduler { return stuckTimer{} }); err != nil {
		t.Fatal(err)
	}
	tr := &workload.Trace{Name: "stuck", Nodes: 4, NodeMemGB: 8, Jobs: []workload.Job{
		{ID: 0, Submit: 5, Tasks: 1, CPUNeed: 0.5, MemReq: 0.25, ExecTime: 100},
	}}
	fed, err := New(Spec{
		TraceName:  tr.Name,
		NodeMemGB:  tr.NodeMemGB,
		Members:    []MemberSpec{{Name: "solo", Nodes: 4}},
		Algorithm:  "test-stuck-timer",
		MaxSimTime: 1e9,
	}, workload.NewSliceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	_, err = fed.Run(context.Background())
	var le *sim.LivelockError
	if !errors.As(err, &le) {
		t.Fatalf("Run error %v, want a *sim.LivelockError", err)
	}
	if le.Algorithm != "test-stuck-timer" || le.Time != 5 || le.Events != sim.MaxEventsPerInstant+1 {
		t.Errorf("LivelockError %+v, want test-stuck-timer at t=5 after %d events", *le, sim.MaxEventsPerInstant+1)
	}
	if !strings.Contains(err.Error(), "member solo") {
		t.Errorf("error %q does not name the member", err)
	}
}
