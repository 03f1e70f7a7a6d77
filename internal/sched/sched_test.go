package sched

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestBackoffDelay(t *testing.T) {
	cases := []struct {
		count int
		want  float64
	}{
		{0, 1}, {1, 2}, {3, 8}, {10, 1024}, {12, 4096}, {13, 4096}, {30, 4096},
	}
	for _, c := range cases {
		if got := BackoffDelay(c.count); got != c.want {
			t.Errorf("BackoffDelay(%d) = %v, want %v", c.count, got, c.want)
		}
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("definitely-not-registered"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// buildSim constructs a simulator with a scripted scheduler that exposes
// the controller for direct helper testing: body runs inside job 0's
// arrival, when every job submitted at t=0 has a jid. Jobs are admitted
// lazily, so a body can only address jobs submitted at t=0.
func buildSim(t *testing.T, tr *workload.Trace, body func(ctl *sim.Controller)) {
	t.Helper()
	buildSimCluster(t, tr, nil, body)
}

type probe struct {
	onArrival    func(ctl *sim.Controller, jid int)
	onCompletion func(ctl *sim.Controller, jid int)
}

func (p *probe) Name() string                           { return "probe" }
func (p *probe) Init(*sim.Controller)                   {}
func (p *probe) OnArrival(ctl *sim.Controller, jid int) { p.onArrival(ctl, jid) }
func (p *probe) OnCompletion(ctl *sim.Controller, jid int) {
	if p.onCompletion != nil {
		p.onCompletion(ctl, jid)
	}
}
func (p *probe) OnTimer(*sim.Controller, int64) {}

func jb(id int, submit float64, tasks int, cpu, mem, exec float64) workload.Job {
	return workload.Job{ID: id, Submit: submit, Tasks: tasks, CPUNeed: cpu, MemReq: mem, ExecTime: exec}
}

func TestGreedyPlacePicksLowestLoad(t *testing.T) {
	tr := &workload.Trace{Name: "g", Nodes: 3, NodeMemGB: 8, Jobs: []workload.Job{
		jb(0, 0, 1, 0.8, 0.2, 100), // occupies one node first
		jb(1, 0, 1, 0.4, 0.2, 100),
	}}
	buildSim(t, tr, func(ctl *sim.Controller) {
		// Start job 0 on node 2 to load it.
		ctl.Start(0, []int{2})
		ctl.SetYield(0, 1)
		// Job 1 must avoid node 2 (load 0.8) and pick node 0 (first
		// zero-load node).
		nodes, ok := GreedyPlace(ctl, 1)
		if !ok {
			t.Fatal("placement failed")
		}
		if nodes[0] == 2 {
			t.Errorf("picked the loaded node: %v", nodes)
		}
	})
}

func TestGreedyPlaceRespectsMemory(t *testing.T) {
	tr := &workload.Trace{Name: "g", Nodes: 2, NodeMemGB: 8, Jobs: []workload.Job{
		jb(0, 0, 2, 0.1, 0.9, 100), // fills both nodes' memory
		// The finisher starts job 1 once job 0 completes and frees memory.
		jb(1, 0, 1, 0.1, 0.2, 100),
	}}
	buildSim(t, tr, func(ctl *sim.Controller) {
		ctl.Start(0, []int{0, 1})
		ctl.SetYield(0, 1)
		if _, ok := GreedyPlace(ctl, 1); ok {
			t.Error("placement succeeded despite full memory")
		}
	})
}

func TestGreedyPlaceMultiTaskSpreads(t *testing.T) {
	// A 3-task job with 60% memory per task: one task per node. On the
	// GPU platform a second job holds 0.1 memory but 60% GPU per task, so
	// GPU accumulation alone must spread it too.
	for _, c := range scanCases(cluster.Uniform(3)) {
		t.Run(c.name, func(t *testing.T) {
			tr := &workload.Trace{Name: "g", Nodes: 3, NodeMemGB: 8, Jobs: []workload.Job{
				jb(0, 0, 3, 0.5, 0.6, 100),
			}}
			if c.cl.D() > 2 {
				tr.Jobs = append(tr.Jobs, workload.Job{ID: 1, Tasks: 3, CPUNeed: 0.5, MemReq: 0.1, ExecTime: 100, Extra: []float64{0.6}})
			}
			buildSimCluster(t, tr, c.cl, func(ctl *sim.Controller) {
				for jid := range tr.Jobs {
					nodes, ok := GreedyPlace(ctl, jid)
					if !ok {
						t.Fatalf("job %d: placement failed", jid)
					}
					seen := map[int]bool{}
					for _, n := range nodes {
						if seen[n] {
							t.Errorf("job %d: two tasks on node %d: %v", jid, n, nodes)
						}
						seen[n] = true
					}
				}
			})
		})
	}
}

func TestGreedyPlaceStacksWhenMemoryAllows(t *testing.T) {
	// With nodes 1..3 pre-loaded at 0.9, a 4-task 0.4-need job stacks
	// three tasks on the idle node 0 (0, 0.4, 0.8 all below 0.9) before
	// spilling the fourth onto a loaded node.
	tr := &workload.Trace{Name: "g", Nodes: 4, NodeMemGB: 8, Jobs: []workload.Job{
		jb(0, 0, 3, 0.9, 0.1, 100),
		jb(1, 0, 4, 0.4, 0.1, 100),
	}}
	for _, c := range scanCases(cluster.Uniform(4)) {
		t.Run(c.name, func(t *testing.T) {
			buildSimCluster(t, tr, c.cl, func(ctl *sim.Controller) {
				ctl.Start(0, []int{1, 2, 3})
				ctl.SetYield(0, 1)
				nodes, ok := GreedyPlace(ctl, 1)
				if !ok {
					t.Fatal("placement failed")
				}
				count := map[int]int{}
				for _, n := range nodes {
					count[n]++
				}
				if count[0] != 3 {
					t.Errorf("expected 3 tasks stacked on the idle node, got %v", count)
				}
			})
		})
	}
}

func TestByPriority(t *testing.T) {
	tr := &workload.Trace{Name: "p", Nodes: 4, NodeMemGB: 8, Jobs: []workload.Job{
		jb(0, 0, 1, 0.5, 0.1, 1000),
		jb(1, 0, 1, 0.5, 0.1, 1000),
		jb(2, 0, 1, 0.5, 0.1, 1000),
	}}
	buildSim(t, tr, func(ctl *sim.Controller) {
		// Give the jobs different virtual times by running them at
		// different yields... instead, exercise the ordering function
		// directly with known (flow, vt) combinations through Start and
		// progress: here all virtual times are zero, so all priorities
		// are infinite and the order must fall back to jid.
		got := ByPriority(ctl, []int{2, 0, 1}, ctl.Now(), core.Priority, true)
		if got[0] != 0 || got[1] != 1 || got[2] != 2 {
			t.Errorf("infinite-priority tie-break by jid failed: %v", got)
		}
	})
}

func TestApplyGreedyYields(t *testing.T) {
	tr := &workload.Trace{Name: "y", Nodes: 2, NodeMemGB: 8, Jobs: []workload.Job{
		jb(0, 0, 1, 1.0, 0.1, 100),
		jb(1, 0, 1, 1.0, 0.1, 100),
		jb(2, 0, 1, 0.5, 0.1, 100),
	}}
	buildSim(t, tr, func(ctl *sim.Controller) {
		// Node 0: jobs 0 and 1 (load 2.0); node 1: job 2 (load 0.5).
		ctl.Start(0, []int{0})
		ctl.Start(1, []int{0})
		ctl.Start(2, []int{1})
		new(YieldScratch).Apply(ctl)
		// Uniform base yield = 1/max(1, 2.0) = 0.5. Jobs 0 and 1 fill
		// node 0 exactly; job 2 is cheapest and is raised to 1.0.
		if y := ctl.Job(0).Yield; math.Abs(y-0.5) > 1e-9 {
			t.Errorf("job 0 yield = %v, want 0.5", y)
		}
		if y := ctl.Job(1).Yield; math.Abs(y-0.5) > 1e-9 {
			t.Errorf("job 1 yield = %v, want 0.5", y)
		}
		if y := ctl.Job(2).Yield; math.Abs(y-1.0) > 1e-9 {
			t.Errorf("job 2 yield = %v, want 1.0 (average-yield heuristic)", y)
		}
	})
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register("sched-test-dup", func() sim.Scheduler { return &probe{} })
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	Register("sched-test-dup", func() sim.Scheduler { return &probe{} })
}

func TestSpec(t *testing.T) {
	ji := sim.JobInfo{JID: 7, Job: jb(7, 0, 3, 0.25, 0.5, 10)}
	spec := Spec(ji)
	if spec.ID != 7 || spec.Tasks != 3 || spec.CPUNeed != 0.25 || spec.MemReq != 0.5 {
		t.Errorf("Spec = %+v", spec)
	}
}
