package sched

// Tests for the multi-job planning path: GreedyPlaceExtra with a Plan
// carrying hypothetical usage from earlier placement decisions in the same
// scheduling event, and for capacity-aware greedy placement on
// heterogeneous clusters.

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

// buildSimCluster is buildSim with an explicit cluster model (nil means
// the homogeneous platform).
func buildSimCluster(t *testing.T, tr *workload.Trace, cl *cluster.Cluster, body func(ctl *sim.Controller)) {
	t.Helper()
	done := false
	// Finish every job so the simulation terminates: at each arrival and
	// completion, greedy placement starts whatever pending job fits and
	// the greedy yield rule keeps all invariants satisfied.
	finish := func(ctl *sim.Controller) {
		for _, jid := range ctl.JobsInState(sim.Pending) {
			if nodes, ok := GreedyPlace(ctl, jid); ok {
				ctl.Start(jid, nodes)
			}
		}
		ApplyGreedyYields(ctl)
	}
	s := &probe{
		onArrival: func(ctl *sim.Controller, jid int) {
			if jid == 0 && !done {
				done = true
				body(ctl)
			}
			finish(ctl)
		},
		onCompletion: func(ctl *sim.Controller, _ int) { finish(ctl) },
	}
	simulator, err := sim.New(sim.Config{Trace: tr, Cluster: cl, CheckInvariants: true}, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulator.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("probe body never ran")
	}
}

// TestGreedyPlaceExtraAccountsPlannedMemory: a plan holding one node's
// memory forces the next placement onto the other node, even though the
// simulator still sees both nodes as free.
func TestGreedyPlaceExtraAccountsPlannedMemory(t *testing.T) {
	tr := &workload.Trace{Name: "plan", Nodes: 2, NodeMemGB: 8, Jobs: []workload.Job{
		jb(0, 0, 1, 0.2, 0.6, 100),
		jb(1, 0, 1, 0.2, 0.6, 100),
	}}
	buildSim(t, tr, func(ctl *sim.Controller) {
		plan := NewPlan(ctl.NumNodes(), ctl.NumDims())
		nodes0, ok := GreedyPlaceExtra(ctl, 0, plan)
		if !ok {
			t.Fatal("job 0 placement failed")
		}
		plan.Commit(nodes0, 0.6, 0.2)
		nodes1, ok := GreedyPlaceExtra(ctl, 1, plan)
		if !ok {
			t.Fatal("job 1 placement failed under plan")
		}
		if nodes1[0] == nodes0[0] {
			t.Errorf("planned memory ignored: both 0.6-mem tasks on node %d", nodes0[0])
		}
	})
}

// TestGreedyPlaceExtraAccountsPlannedLoad: planned CPU load steers the next
// task to the other node even with ample memory everywhere.
func TestGreedyPlaceExtraAccountsPlannedLoad(t *testing.T) {
	tr := &workload.Trace{Name: "plan", Nodes: 2, NodeMemGB: 8, Jobs: []workload.Job{
		jb(0, 0, 1, 0.8, 0.1, 100),
		jb(1, 0, 1, 0.8, 0.1, 100),
	}}
	buildSim(t, tr, func(ctl *sim.Controller) {
		plan := NewPlan(ctl.NumNodes(), ctl.NumDims())
		nodes0, _ := GreedyPlaceExtra(ctl, 0, plan)
		plan.Commit(nodes0, 0.1, 0.8)
		nodes1, ok := GreedyPlaceExtra(ctl, 1, plan)
		if !ok {
			t.Fatal("job 1 placement failed under plan")
		}
		if nodes1[0] == nodes0[0] {
			t.Errorf("planned load ignored: both 0.8-need tasks on node %d", nodes0[0])
		}
	})
}

// TestGreedyPlaceExtraPlanFillsMemory: once the plan has consumed all
// memory, further placements must fail rather than oversubscribe.
func TestGreedyPlaceExtraPlanFillsMemory(t *testing.T) {
	tr := &workload.Trace{Name: "plan", Nodes: 2, NodeMemGB: 8, Jobs: []workload.Job{
		jb(0, 0, 2, 0.1, 0.7, 100),
		// The finisher starts job 1 once job 0 completes and frees memory.
		jb(1, 0, 1, 0.1, 0.7, 100),
	}}
	buildSim(t, tr, func(ctl *sim.Controller) {
		plan := NewPlan(ctl.NumNodes(), ctl.NumDims())
		nodes0, ok := GreedyPlaceExtra(ctl, 0, plan)
		if !ok {
			t.Fatal("job 0 placement failed")
		}
		plan.Commit(nodes0, 0.7, 0.1)
		if _, ok := GreedyPlaceExtra(ctl, 1, plan); ok {
			t.Error("placement succeeded although the plan holds all memory")
		}
	})
}

// TestGreedyPlacePrefersFatNodesRelativeLoad: on a fat/thin cluster the
// greedy rule compares *relative* load, so a fat node carrying more
// absolute load than a reference node can still be the least-loaded choice.
func TestGreedyPlacePrefersFatNodesRelativeLoad(t *testing.T) {
	tr := &workload.Trace{Name: "het", Nodes: 2, NodeMemGB: 8, Jobs: []workload.Job{
		jb(0, 0, 1, 0.6, 0.1, 100),
		jb(1, 0, 1, 0.4, 0.1, 100),
	}}
	cl := cluster.New([]cluster.NodeSpec{
		cluster.Spec(2, 2),
		cluster.Spec(1, 1),
	})
	buildSimCluster(t, tr, cl, func(ctl *sim.Controller) {
		// Load the fat node with 0.6: relative load 0.3 versus 0 on the
		// reference node, so job 1 goes to the reference node.
		ctl.Start(0, []int{0})
		ctl.SetYield(0, 1)
		nodes, ok := GreedyPlace(ctl, 1)
		if !ok {
			t.Fatal("placement failed")
		}
		if nodes[0] != 1 {
			t.Errorf("picked node %d, want the idle reference node 1", nodes[0])
		}
		// Load the reference node with 0.4 too (relative 0.4 > 0.3): the
		// next placement must prefer the fat node again.
		ctl.Start(1, []int{1})
		ctl.SetYield(1, 1)
		plan := NewPlan(ctl.NumNodes(), ctl.NumDims())
		nodes2, ok := GreedyPlaceExtra(ctl, 1, plan)
		if !ok {
			t.Fatal("hypothetical placement failed")
		}
		if nodes2[0] != 0 {
			t.Errorf("relative load ignored: picked node %d, want fat node 0", nodes2[0])
		}
	})
}

// TestGreedyPlaceRespectsThinNodeMemory: a task whose memory requirement
// exceeds a thin node's capacity must never be placed there.
func TestGreedyPlaceRespectsThinNodeMemory(t *testing.T) {
	tr := &workload.Trace{Name: "thin", Nodes: 2, NodeMemGB: 8, Jobs: []workload.Job{
		jb(0, 0, 1, 0.1, 0.8, 100),
	}}
	cl := cluster.New([]cluster.NodeSpec{
		cluster.Spec(0.5, 0.5),
		cluster.Spec(1, 1),
	})
	buildSimCluster(t, tr, cl, func(ctl *sim.Controller) {
		nodes, ok := GreedyPlace(ctl, 0)
		if !ok {
			t.Fatal("placement failed")
		}
		if nodes[0] != 1 {
			t.Errorf("0.8-memory task on 0.5-capacity node: %v", nodes)
		}
	})
}
