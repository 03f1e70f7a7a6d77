package sched

// Tests for greedy placement's two selections — the node-index query on
// the two-resource platform and the placement.Pick scan everywhere else —
// and for capacity-aware greedy placement on heterogeneous clusters.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/placement"
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
		new(YieldScratch).Apply(ctl)
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

// scanCase is one platform a greedy placement test runs on: the
// two-resource cluster (node-index path) or the same capacities with a
// GPU dimension added (placement.Pick scan path).
type scanCase struct {
	name string
	cl   *cluster.Cluster
}

// scanCases returns the d=2 cluster over specs and its d=3 gpu-uniform
// extension (one GPU unit per node).
func scanCases(specs []cluster.NodeSpec) []scanCase {
	cl := cluster.New(specs)
	return []scanCase{{"d2-index", cl}, {"d3-scan", cl.ExtendUnit(3)}}
}

// TestGreedyPlacePrefersFatNodesRelativeLoad: on a fat/thin cluster the
// greedy rule compares *relative* load, so a fat node carrying more
// absolute load than a reference node can still be the least-loaded choice.
func TestGreedyPlacePrefersFatNodesRelativeLoad(t *testing.T) {
	tr := &workload.Trace{Name: "het", Nodes: 2, NodeMemGB: 8, Jobs: []workload.Job{
		jb(0, 0, 1, 0.6, 0.1, 100),
		jb(1, 0, 1, 0.4, 0.1, 100),
		jb(2, 0, 1, 0.4, 0.1, 100),
	}}
	for _, c := range scanCases([]cluster.NodeSpec{cluster.Spec(2, 2), cluster.Spec(1, 1)}) {
		t.Run(c.name, func(t *testing.T) {
			buildSimCluster(t, tr, c.cl, func(ctl *sim.Controller) {
				// Load the fat node with 0.6: relative load 0.3 versus 0
				// on the reference node, so job 1 goes to the reference
				// node.
				ctl.Start(0, []int{0})
				ctl.SetYield(0, 1)
				nodes, ok := GreedyPlace(ctl, 1)
				if !ok {
					t.Fatal("placement failed")
				}
				if nodes[0] != 1 {
					t.Errorf("picked node %d, want the idle reference node 1", nodes[0])
				}
				// Load the reference node with 0.4 too (relative 0.4 >
				// 0.3): the next placement must prefer the fat node again.
				ctl.Start(1, []int{1})
				ctl.SetYield(1, 1)
				nodes, ok = GreedyPlace(ctl, 2)
				if !ok {
					t.Fatal("placement failed")
				}
				if nodes[0] != 0 {
					t.Errorf("relative load ignored: picked node %d, want fat node 0", nodes[0])
				}
			})
		})
	}
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

// indexSnapshot is everything the node index answers: every leaf, the root
// maximum and argmin queries at several memory demands.
type indexSnapshot struct {
	loads, mems []float64
	maxLoad     float64
	argmins     []int
}

func snapshotIndex(ctl *sim.Controller) indexSnapshot {
	t := ctl.NodeIndex()
	var s indexSnapshot
	for node := 0; node < ctl.NumNodes(); node++ {
		s.loads = append(s.loads, t.Load(node))
		s.mems = append(s.mems, t.FreeMem(node))
	}
	s.maxLoad = ctl.MaxCPULoad()
	for _, memReq := range []float64{0, 0.25, 0.5, 1, 1.5} {
		s.argmins = append(s.argmins, t.ArgminLoad(memReq))
	}
	return s
}

// TestIndexedPlacementMatchesScan is the differential check of the node
// index path: on random two-resource controller states with multi-task
// jobs, GreedyPlace (which answers from the index when no objective is
// configured) must choose exactly the nodes of the placement.Pick scan
// under LoadBalance, and the index must read the same before and after
// every call — on success and on failure — and agree with the live
// per-node values, so no tentative overlay leaks into the simulator.
func TestIndexedPlacementMatchesScan(t *testing.T) {
	var placed, failed int
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(14)
		caps := []float64{0.5, 1, 2}
		specs := make([]cluster.NodeSpec, n)
		for i := range specs {
			specs[i] = cluster.Spec(caps[r.Intn(3)], caps[r.Intn(3)])
		}
		cl := cluster.New(specs)
		jobs := make([]workload.Job, 12)
		for i := range jobs {
			jobs[i] = jb(i, 0, 1+r.Intn(min(6, n)), 0.05+0.95*r.Float64(), 0.05+0.45*r.Float64(), 10+100*r.Float64())
		}
		tr := &workload.Trace{Name: "diff", Nodes: n, NodeMemGB: 8, Jobs: jobs}
		buildSimCluster(t, tr, cl, func(ctl *sim.Controller) {
			// Random starting state: the first jobs go to random nodes
			// with room for their memory.
			for jid := 0; jid < 4; jid++ {
				j := ctl.JobRef(jid)
				used := make([]float64, n)
				nodes := make([]int, 0, j.Tasks)
				for task := 0; task < j.Tasks; task++ {
					node := r.Intn(n)
					if ctl.FreeMem(node)-used[node] < j.MemReq {
						break
					}
					used[node] += j.MemReq
					nodes = append(nodes, node)
				}
				if len(nodes) == j.Tasks {
					ctl.Start(jid, nodes)
				}
			}
			for _, jid := range ctl.JobsInState(sim.Pending) {
				before := snapshotIndex(ctl)
				for node := 0; node < n; node++ {
					if before.loads[node] != ctl.CPULoad(node)/ctl.CPUCap(node) || before.mems[node] != ctl.FreeMem(node) {
						t.Fatalf("seed %d: index leaf %d disagrees with the live node state", seed, node)
					}
				}
				want, wantOK := greedyPlaceScan(ctl, ctl.JobRef(jid), placement.LoadBalance{})
				got, ok := GreedyPlace(ctl, jid)
				if ok != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d job %d: index path = %v (ok %v), LoadBalance scan = %v (ok %v)",
						seed, jid, got, ok, want, wantOK)
				}
				if after := snapshotIndex(ctl); !reflect.DeepEqual(after, before) {
					t.Fatalf("seed %d job %d (ok %v): node index changed across GreedyPlace:\nbefore %+v\nafter  %+v",
						seed, jid, ok, before, after)
				}
				if ok {
					placed++
					ctl.Start(jid, got)
				} else {
					failed++
				}
			}
		})
	}
	if placed < 50 || failed < 50 {
		t.Fatalf("battery too one-sided: %d placements, %d failures", placed, failed)
	}
}
