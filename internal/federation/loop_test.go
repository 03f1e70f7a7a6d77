package federation

import (
	"context"
	"testing"
	"time"

	_ "repro/internal/sched/mcb"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tagged is one observer callback, tagged with the member that emitted it.
type tagged struct {
	member int
	now    float64
}

// tagObserver appends every callback of one member to a log shared by all
// members (safe at 1 worker, where callbacks run on the calling goroutine).
type tagObserver struct {
	member int
	log    *[]tagged
}

func (o *tagObserver) add(now float64) { *o.log = append(*o.log, tagged{o.member, now}) }

func (o *tagObserver) JobSubmitted(now float64, _ int)            { o.add(now) }
func (o *tagObserver) JobStarted(now float64, _ int, _ []int)     { o.add(now) }
func (o *tagObserver) JobPreempted(now float64, _ int)            { o.add(now) }
func (o *tagObserver) JobMigrated(now float64, _ int, _ []int)    { o.add(now) }
func (o *tagObserver) JobCompleted(now float64, _ int, _ float64) { o.add(now) }
func (o *tagObserver) SchedulerInvoked(now float64, _ string, _ int, _ time.Duration) {
	o.add(now)
}

// TestInlineCallbackOrder pins the documented 1-worker callback order:
// within a round members advance one after another in index order. So a
// drop in member index starts a new round, whose events all lie at or after
// every earlier event; and because a member runs ahead to the horizon
// before the next member starts, the shared stream is not globally time
// ordered.
func TestInlineCallbackOrder(t *testing.T) {
	tr := &workload.Trace{Name: "order", Nodes: 16, NodeMemGB: 8}
	for i := 0; i < 80; i++ {
		tr.Jobs = append(tr.Jobs, workload.Job{
			ID:       i,
			Submit:   float64(20 * i),
			Tasks:    1 + i%4,
			CPUNeed:  0.3 + 0.1*float64(i%5),
			MemReq:   0.1 + 0.05*float64(i%4),
			ExecTime: 200 + float64((i*7919)%1500),
		})
	}
	var log []tagged
	spec := Spec{
		TraceName:  tr.Name,
		NodeMemGB:  tr.NodeMemGB,
		Members:    []MemberSpec{{Nodes: 16}, {Nodes: 16}, {Nodes: 16}, {Nodes: 16}},
		Dispatcher: "roundrobin",
		Algorithm:  "dynmcb8-asap-per",
		Workers:    1,
		Observer: func(i int) sim.Observer {
			return &tagObserver{member: i, log: &log}
		},
	}
	f, err := New(spec, workload.NewSliceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(log) == 0 {
		t.Fatal("observers saw no callbacks")
	}
	last := make([]float64, len(spec.Members))
	maxSeen, outOfTime := log[0].now, false
	for k, e := range log {
		if e.now < last[e.member] {
			t.Fatalf("callback %d: member %d went back in time (%g after %g)", k, e.member, e.now, last[e.member])
		}
		last[e.member] = e.now
		if k > 0 {
			if e.member < log[k-1].member && e.now < maxSeen {
				t.Fatalf("callback %d: member %d follows member %d at %g, before the earlier %g: not a new round",
					k, e.member, log[k-1].member, e.now, maxSeen)
			}
			if e.now < log[k-1].now {
				outOfTime = true
			}
		}
		if e.now > maxSeen {
			maxSeen = e.now
		}
	}
	if !outOfTime {
		t.Error("callbacks arrived in global time order: members did not advance one after another")
	}
}
