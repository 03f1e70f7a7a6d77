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
	buildSimObserved(t, tr, cl, nil, body)
}

// buildSimObserved is buildSimCluster with an observer attached to the
// run (nil for none).
func buildSimObserved(t *testing.T, tr *workload.Trace, cl *cluster.Cluster, obs sim.Observer, body func(ctl *sim.Controller)) {
	t.Helper()
	done := false
	// Finish every job so the simulation terminates: at each arrival and
	// completion, greedy placement starts whatever pending job fits and
	// the greedy yield rule keeps all invariants satisfied.
	finish := func(ctl *sim.Controller) {
		for _, jid := range ctl.JobsInState(sim.Pending) {
			if nodes, ok := new(PlaceScratch).Place(ctl, jid); ok {
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
	simulator, err := sim.New(sim.Config{Trace: tr, Cluster: cl, CheckInvariants: true, Observer: obs}, s)
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
				nodes, ok := new(PlaceScratch).Place(ctl, 1)
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
				nodes, ok = new(PlaceScratch).Place(ctl, 2)
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
		nodes, ok := new(PlaceScratch).Place(ctl, 0)
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
// jobs, Place (which answers from the index when no objective is
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
		jobs := make([]workload.Job, 12)
		for i := range jobs {
			jobs[i] = jb(i, 0, 1+r.Intn(min(6, n)), 0.05+0.95*r.Float64(), 0.05+0.45*r.Float64(), 10+100*r.Float64())
		}
		p, f := placeAgainstScan(t, seed, r, cluster.New(specs), jobs)
		placed += p
		failed += f
	}
	if placed < 50 || failed < 50 {
		t.Fatalf("battery too one-sided: %d placements, %d failures", placed, failed)
	}
}

// TestIndexedPlacementBoundary is the same differential check where the
// slot pre-check is decided: memory sizes whose running sums land on or
// a rounding step off a node's capacity (tenths, thirds, sevenths, and
// quarters and halves raised by the few ulps that make sim.TaskSlots'
// floor rule count one slot too many), node capacities they divide or
// nearly divide, and jobs of up to one task per node, so most failures
// come within one task of fitting.
func TestIndexedPlacementBoundary(t *testing.T) {
	mems := []float64{0.1, 0.2, 0.25, 0.3, 1.0 / 3, 1.0 / 7, 0.5, 0.25000000025, 0.5000000005}
	caps := []float64{1, 1.5, 2}
	var placed, failed int
	for seed := int64(1); seed <= 3000; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(14)
		specs := make([]cluster.NodeSpec, n)
		for i := range specs {
			specs[i] = cluster.Spec(caps[r.Intn(len(caps))], caps[r.Intn(len(caps))])
		}
		jobs := make([]workload.Job, 12)
		for i := range jobs {
			jobs[i] = jb(i, 0, 1+r.Intn(n), 0.05+0.95*r.Float64(), mems[r.Intn(len(mems))], 10+100*r.Float64())
		}
		p, f := placeAgainstScan(t, seed, r, cluster.New(specs), jobs)
		placed += p
		failed += f
	}
	if placed < 10000 || failed < 3000 {
		t.Fatalf("battery too one-sided: %d placements, %d failures", placed, failed)
	}
	t.Logf("%d placements, %d failures matched the scan", placed, failed)
}

// placeAgainstScan starts the first four jobs on random nodes with room
// for their memory, then places every other job both ways — Place and the
// LoadBalance scan — checking that they agree and that the node index
// reads the same before and after Place and matches the live node state.
// Jobs that fit are started, so later calls see the load. It returns the
// number of placements and failures.
func placeAgainstScan(t *testing.T, seed int64, r *rand.Rand, cl *cluster.Cluster, jobs []workload.Job) (placed, failed int) {
	t.Helper()
	n := cl.N()
	tr := &workload.Trace{Name: "diff", Nodes: n, NodeMemGB: 8, Jobs: jobs}
	buildSimCluster(t, tr, cl, func(ctl *sim.Controller) {
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
		var ps PlaceScratch
		for _, jid := range ctl.JobsInState(sim.Pending) {
			before := snapshotIndex(ctl)
			for node := 0; node < n; node++ {
				if before.loads[node] != ctl.CPULoad(node)/ctl.CPUCap(node) || before.mems[node] != ctl.FreeMem(node) {
					t.Fatalf("seed %d: index leaf %d disagrees with the live node state", seed, node)
				}
			}
			want, wantOK := greedyPlaceScan(ctl, ctl.JobRef(jid), placement.LoadBalance{})
			got, ok := ps.Place(ctl, jid)
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d job %d: index path = %v (ok %v), LoadBalance scan = %v (ok %v)",
					seed, jid, got, ok, want, wantOK)
			}
			if after := snapshotIndex(ctl); !reflect.DeepEqual(after, before) {
				t.Fatalf("seed %d job %d (ok %v): node index changed across Place:\nbefore %+v\nafter  %+v",
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
	return placed, failed
}

// TestPlaceCumulativeSlotRule pins the rule the pre-check counts slots
// with: a node takes tasks while the job's memory fits in its free memory
// net of the tasks already taken, summed one task at a time — the leaf
// values the placement loop queries — not sim.TaskSlots'
// floor((free+Eps)/memReq), which counts one more slot just above a
// divisor of the free memory. Node 0 has all its memory free; nodes 1..10
// are full.
func TestPlaceCumulativeSlotRule(t *testing.T) {
	const aboveHalf = 0.5000000005 // two of them overflow a unit node by a rounding step
	tr := &workload.Trace{Name: "slots", Nodes: 11, NodeMemGB: 8, Jobs: []workload.Job{
		jb(0, 0, 10, 0.5, 1, 100), // fills nodes 1..10
		jb(1, 0, 11, 0.5, 0.1, 100),
		jb(2, 0, 10, 0.5, 0.1, 100),
		jb(3, 0, 2, 0.5, aboveHalf, 100),
		jb(4, 0, 1, 0.5, aboveHalf, 100),
	}}
	buildSim(t, tr, func(ctl *sim.Controller) {
		ctl.Start(0, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
		for _, c := range []struct {
			name   string
			memReq float64
			tasks  int
			want   bool
		}{
			{"ten tenths fill the free node", 0.1, 10, true},
			{"an eleventh tenth does not fit", 0.1, 11, false},
			{"two halves fit", 0.5, 2, true},
			{"three halves do not", 0.5, 3, false},
			{"one task just above a half fits", aboveHalf, 1, true},
			{"two tasks just above a half do not", aboveHalf, 2, false},
			{"zero memory covers any count", 0, 11, true},
			{"no tasks always fit", 1, 0, true},
		} {
			if got := memSlotsCover(ctl, c.memReq, c.tasks); got != c.want {
				t.Errorf("%s: memSlotsCover(%g, %d) = %v, want %v", c.name, c.memReq, c.tasks, got, c.want)
			}
		}
		free := func(node, _ int) float64 { return ctl.FreeMem(node) }
		if got := sim.TaskSlots(ctl.NumNodes(), 2, 1, 2, func(int) float64 { return aboveHalf }, free); got != 2 {
			t.Errorf("sim.TaskSlots counts %d slots of %g on the free node; this test assumes its floor rule counts 2", got, aboveHalf)
		}
		for _, c := range []struct {
			jid  int
			want []int
		}{
			{1, nil},
			{2, []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
			{3, nil},
			{4, []int{0}},
		} {
			want, wantOK := greedyPlaceScan(ctl, ctl.JobRef(c.jid), placement.LoadBalance{})
			got, ok := new(PlaceScratch).Place(ctl, c.jid)
			if ok != (c.want != nil) || !reflect.DeepEqual(got, c.want) || ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Errorf("job %d: Place = %v (ok %v), want %v; LoadBalance scan = %v (ok %v)", c.jid, got, ok, c.want, want, wantOK)
			}
		}
	})
}

// TestPlaceAllocationFree: once its buffers have grown, Place allocates
// nothing on the node-index path, whether the job fits or not.
func TestPlaceAllocationFree(t *testing.T) {
	tr := &workload.Trace{Name: "allocs", Nodes: 4, NodeMemGB: 8, Jobs: []workload.Job{
		jb(0, 0, 4, 0.5, 0.6, 100),
		jb(1, 0, 4, 0.25, 0.2, 100), // two slots of 0.2 on each node's 0.4
		jb(2, 0, 4, 0.25, 0.5, 100), // no node has 0.5 free
	}}
	buildSim(t, tr, func(ctl *sim.Controller) {
		ctl.Start(0, []int{0, 1, 2, 3})
		var ps PlaceScratch
		for _, c := range []struct {
			jid int
			ok  bool
		}{{1, true}, {2, false}} {
			if _, ok := ps.Place(ctl, c.jid); ok != c.ok {
				t.Fatalf("job %d: Place ok = %v, want %v", c.jid, ok, c.ok)
			}
			if allocs := testing.AllocsPerRun(100, func() { ps.Place(ctl, c.jid) }); allocs != 0 {
				t.Errorf("job %d (ok %v): warmed Place allocates %v times per call", c.jid, c.ok, allocs)
			}
		}
	})
}

// TestPlaceBufferRetention: Place hands out its own buffer and overwrites
// it on the next call, which is safe because the simulator copies node
// lists — into the job's placement on Start and into the observer's event.
// Job 0 starts with the returned slice; placing job 1 then rewrites that
// slice, and neither job 0's placement nor its recorded JobStarted may
// change.
func TestPlaceBufferRetention(t *testing.T) {
	tr := &workload.Trace{Name: "retention", Nodes: 4, NodeMemGB: 8, Jobs: []workload.Job{
		jb(0, 0, 2, 0.5, 0.3, 100),
		jb(1, 0, 2, 0.5, 0.3, 100),
	}}
	rec := &sim.Recorder{}
	var startedOn []int
	buildSimObserved(t, tr, nil, rec, func(ctl *sim.Controller) {
		var ps PlaceScratch
		a, ok := ps.Place(ctl, 0)
		if !ok {
			t.Fatal("job 0 does not fit an empty cluster")
		}
		ctl.Start(0, a)
		startedOn = append([]int(nil), a...)
		b, ok := ps.Place(ctl, 1)
		if !ok {
			t.Fatal("job 1 does not fit")
		}
		if &a[0] != &b[0] || reflect.DeepEqual(b, startedOn) {
			t.Fatalf("placing job 1 did not overwrite job 0's slice (%v, then %v): nothing is tested", startedOn, b)
		}
		if got := ctl.JobNodes(0); !reflect.DeepEqual(got, startedOn) {
			t.Errorf("job 0's placement changed from %v to %v when the placement buffer was reused", startedOn, got)
		}
	})
	for _, e := range rec.Events() {
		if e.Kind == sim.EvStarted && e.JID == 0 {
			if !reflect.DeepEqual(e.Nodes, startedOn) {
				t.Errorf("recorded JobStarted for job 0 on %v, started on %v", e.Nodes, startedOn)
			}
			return
		}
	}
	t.Error("no JobStarted recorded for job 0")
}
