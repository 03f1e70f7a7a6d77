package federation

import (
	"context"
	"testing"

	"repro/internal/workload"
)

// TestDispatcherStatelessCapability pins which built-ins declare the
// stateless capability: roundrobin batches ahead of the members, while the
// view-sampling policies must not.
func TestDispatcherStatelessCapability(t *testing.T) {
	rr, err := ByName("roundrobin")
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := rr.(StatelessDispatcher); !ok || !s.Stateless() {
		t.Error("roundrobin does not declare the stateless capability")
	}
	for _, name := range []string{"queuedepth", "costaware"} {
		d, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s, ok := d.(StatelessDispatcher); ok && s.Stateless() {
			t.Errorf("%s declares statelessness but samples live views", name)
		}
	}
}

// TestQueueDepthSpreadsCoincidentArrivals: four jobs arriving at the same
// instant on two idle, identical members split two and two. A job routed
// earlier in the burst counts toward its member's queue depth although
// the member's clock has not reached the burst yet.
func TestQueueDepthSpreadsCoincidentArrivals(t *testing.T) {
	tr := &workload.Trace{Name: "burst", Nodes: 4, NodeMemGB: 8}
	for i := 0; i < 4; i++ {
		tr.Jobs = append(tr.Jobs, workload.Job{ID: i, Submit: 50, Tasks: 1, CPUNeed: 1, MemReq: 0.5, ExecTime: 100})
	}
	f, err := New(Spec{
		TraceName:  tr.Name,
		NodeMemGB:  tr.NodeMemGB,
		Members:    []MemberSpec{{Nodes: 4}, {Nodes: 4}},
		Dispatcher: "queuedepth",
		Algorithm:  "dynmcb8",
	}, workload.NewSliceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clusters {
		if c.Dispatched != 2 {
			t.Errorf("member %s got %d of 4 coincident jobs, want 2", c.Name, c.Dispatched)
		}
	}
}
