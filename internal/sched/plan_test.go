package sched

// Tests for greedy placement's task loop — its two picks, the node-index
// query for LoadBalance on the two-resource platform and the
// placement.Pick scan everywhere else — against refPlace, the definition
// they implement, and for capacity-aware greedy placement on heterogeneous
// clusters.

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/floats"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/workload"
)

// buildSimCluster is buildSim with an explicit cluster model (nil means
// the homogeneous platform).
func buildSimCluster(t *testing.T, tr *workload.Trace, cl *cluster.Cluster, body func(ctl *sim.Controller)) {
	t.Helper()
	buildSimConfig(t, sim.Config{Trace: tr, Cluster: cl}, body)
}

// buildSimConfig is buildSim over a full simulator configuration (trace,
// cluster, observer, objective); invariant checking is always on.
func buildSimConfig(t *testing.T, cfg sim.Config, body func(ctl *sim.Controller)) {
	t.Helper()
	buildSimFull(t, cfg, func(_ *sim.Simulator, ctl *sim.Controller) { body(ctl) })
}

// buildSimFull is buildSimConfig whose body also gets the simulator.
func buildSimFull(t *testing.T, cfg sim.Config, body func(s *sim.Simulator, ctl *sim.Controller)) {
	t.Helper()
	var simulator *sim.Simulator
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
				body(simulator, ctl)
			}
			finish(ctl)
		},
		onCompletion: func(ctl *sim.Controller, _ int) { finish(ctl) },
	}
	cfg.CheckInvariants = true
	simulator, err := sim.New(cfg, s)
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

// refState is refPlace's placement.State: the live controller plus the
// CPU load and rigid demands of the tasks placed so far in the call.
type refState struct {
	ctl   *sim.Controller
	load  map[int]float64    // node -> CPU load
	rigid map[[2]int]float64 // (node, k) -> demand in rigid dimension k
}

func (s *refState) Dims() int               { return s.ctl.NumDims() }
func (s *refState) Cap(node, k int) float64 { return s.ctl.ResCap(node, k) }
func (s *refState) CPULoad(node int) float64 {
	return s.ctl.CPULoad(node) + s.load[node]
}
func (s *refState) Cost(node int) float64 { return s.ctl.NodeCost(node) }
func (s *refState) Free(node, k int) float64 {
	if k == 0 {
		return s.ctl.CPUCap(node) - s.CPULoad(node)
	}
	return s.ctl.FreeRes(node, k) - s.rigid[[2]int{node, k}]
}

// refPlace is the definition of greedy placement that Place implements:
// per task, placement.Pick under the run's objective (LoadBalance when none
// is set) over the nodes whose free capacity, net of this call's tasks,
// holds the task's demand under floats.LessEq in every rigid dimension.
func refPlace(ctl *sim.Controller, jid int) ([]int, bool) {
	j := ctl.JobRef(jid)
	obj := ctl.Objective()
	if obj == nil {
		obj = placement.LoadBalance{}
	}
	st := &refState{ctl: ctl, load: map[int]float64{}, rigid: map[[2]int]float64{}}
	feasible := func(node int) bool {
		for k := 1; k < ctl.NumDims(); k++ {
			if !floats.LessEq(j.Demand(k), st.Free(node, k)) {
				return false
			}
		}
		return true
	}
	var nodes []int
	for task := 0; task < j.Tasks; task++ {
		node := placement.Pick(ctl.NumNodes(), j.Demand, st, feasible, obj)
		if node < 0 {
			return nil, false
		}
		nodes = append(nodes, node)
		st.load[node] += j.CPUNeed
		for k := 1; k < ctl.NumDims(); k++ {
			st.rigid[[2]int{node, k}] += j.Demand(k)
		}
	}
	return nodes, true
}

// scanCase is one platform a greedy placement test runs on: the
// two-resource cluster (LoadBalance picks come from the node index) or the
// same capacities with a GPU dimension added (every pick is a
// placement.Pick scan).
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
// index pick: on random two-resource controller states with multi-task
// jobs, Place (which answers from the index under LoadBalance, configured
// or by default) must choose exactly the nodes of refPlace, and the index
// must read the same before and after every call — on success and on
// failure — and agree with the live per-node values, so no tentative
// overlay leaks into the simulator.
func TestIndexedPlacementMatchesScan(t *testing.T) {
	indexedBattery(t, 60, 50, 50, func(r *rand.Rand, n int) ([]cluster.NodeSpec, []workload.Job) {
		caps := []float64{0.5, 1, 2}
		specs := make([]cluster.NodeSpec, n)
		for i := range specs {
			specs[i] = cluster.Spec(caps[r.Intn(3)], caps[r.Intn(3)])
		}
		jobs := make([]workload.Job, 12)
		for i := range jobs {
			jobs[i] = jb(i, 0, 1+r.Intn(min(6, n)), 0.05+0.95*r.Float64(), 0.05+0.45*r.Float64(), 10+100*r.Float64())
		}
		return specs, jobs
	})
}

// indexedBattery runs placeAgainstRef on seeds 1..seeds of the two-resource
// instances gen draws (n is the node count), once with no objective and
// once with LoadBalance configured, each on the same instance, and fails
// unless each objective saw at least minPlaced placements and minFailed
// failures.
func indexedBattery(t *testing.T, seeds int64, minPlaced, minFailed int, gen func(r *rand.Rand, n int) ([]cluster.NodeSpec, []workload.Job)) {
	t.Helper()
	for _, obj := range []placement.Objective{nil, placement.LoadBalance{}} {
		name := "none"
		if obj != nil {
			name = obj.Name()
		}
		var placed, failed int
		for seed := int64(1); seed <= seeds; seed++ {
			r := rand.New(rand.NewSource(seed))
			specs, jobs := gen(r, 2+r.Intn(14))
			p, f := placeAgainstRef(t, seed, r, sim.Config{Cluster: cluster.New(specs), Objective: obj}, jobs)
			placed += p
			failed += f
		}
		if placed < minPlaced || failed < minFailed {
			t.Fatalf("objective %s: battery too one-sided: %d placements, %d failures", name, placed, failed)
		}
		t.Logf("objective %s: %d placements, %d failures matched the reference", name, placed, failed)
	}
}

// boundarySizes are memory and GPU demands whose running sums land on or a
// rounding step off a node's capacity: tenths, quarters, thirds, sevenths,
// halves, and quarters and halves raised by the few ulps that a
// floor((cap+Eps)/demand) count would take for one slot more than the
// placement loop's.
var boundarySizes = []float64{0.1, 0.25, 1.0 / 3, 1.0 / 7, 0.5, 0.25000000025, 0.5000000005}

// TestIndexedPlacementBoundary is the same differential check where the
// slot pre-check is decided: boundary memory sizes (and 0.2, 0.3), node
// capacities they divide or nearly divide, and jobs of up to one task per
// node, so most failures come within one task of fitting.
func TestIndexedPlacementBoundary(t *testing.T) {
	mems := append([]float64{0.2, 0.3}, boundarySizes...)
	caps := []float64{1, 1.5, 2}
	indexedBattery(t, 3000, 10000, 3000, func(r *rand.Rand, n int) ([]cluster.NodeSpec, []workload.Job) {
		specs := make([]cluster.NodeSpec, n)
		for i := range specs {
			specs[i] = cluster.Spec(caps[r.Intn(len(caps))], caps[r.Intn(len(caps))])
		}
		jobs := make([]workload.Job, 12)
		for i := range jobs {
			jobs[i] = jb(i, 0, 1+r.Intn(n), 0.05+0.95*r.Float64(), mems[r.Intn(len(mems))], 10+100*r.Float64())
		}
		return specs, jobs
	})
}

// TestScanPlacementBoundary is the differential check of the scan: on
// three-resource platforms (gpu-uniform, and priced nodes of mixed CPU,
// memory and GPU capacity), under the default and every built-in
// objective, Place must choose exactly refPlace's nodes — on success and
// on failure — for jobs with boundary memory and GPU sizes (GPU also 0)
// and up to one task per node, after random occupancy.
func TestScanPlacementBoundary(t *testing.T) {
	gpus := append([]float64{0}, boundarySizes...)
	objectives := []placement.Objective{nil, placement.LoadBalance{}, placement.Cost{},
		placement.BestFit{}, placement.WorstFit{}, placement.First{}}
	caps := []float64{1, 1.5, 2}
	var placed, failed int
	for seed := int64(1); seed <= 2500; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(14)
		cl, _ := cluster.Profile(cluster.ProfileGPUUniform, n)
		if seed%2 == 0 {
			specs := make([]cluster.NodeSpec, n)
			for i := range specs {
				specs[i] = cluster.Spec(caps[r.Intn(3)], caps[r.Intn(3)], caps[r.Intn(3)])
				specs[i].Cost = []float64{1, 3}[r.Intn(2)]
			}
			cl = cluster.NewWithDims([]string{"cpu", "mem", "gpu"}, specs)
		}
		jobs := make([]workload.Job, 12)
		for i := range jobs {
			jobs[i] = jb(i, 0, 1+r.Intn(n), 0.05+0.95*r.Float64(), boundarySizes[r.Intn(len(boundarySizes))], 10+100*r.Float64())
			jobs[i].Extra = []float64{gpus[r.Intn(len(gpus))]}
		}
		cfg := sim.Config{Cluster: cl, Objective: objectives[int(seed)%len(objectives)]}
		p, f := placeAgainstRef(t, seed, r, cfg, jobs)
		placed += p
		failed += f
	}
	if placed < 10000 || failed < 3000 {
		t.Fatalf("battery too one-sided: %d placements, %d failures", placed, failed)
	}
	t.Logf("%d placements, %d failures matched the reference", placed, failed)
}

// placeAgainstRef runs jobs on cfg's platform and objective. It starts the
// first four jobs on random nodes with room for their rigid demands, then
// places every other job both ways — Place and refPlace — checking that
// they agree. Where Place picks from the node index (LoadBalance at d=2)
// it also checks that the index reads the same before and after Place and
// matches the live node state. Jobs that fit are started, so later calls
// see the load. It returns the number of placements and failures.
func placeAgainstRef(t *testing.T, seed int64, r *rand.Rand, cfg sim.Config, jobs []workload.Job) (placed, failed int) {
	t.Helper()
	n := cfg.Cluster.N()
	cfg.Trace = &workload.Trace{Name: "diff", Nodes: n, NodeMemGB: 8, Jobs: jobs}
	buildSimConfig(t, cfg, func(ctl *sim.Controller) {
		d := ctl.NumDims()
		for jid := 0; jid < 4; jid++ {
			j := ctl.JobRef(jid)
			used := make(map[[2]int]float64)
			nodes := make([]int, 0, j.Tasks)
		tasks:
			for task := 0; task < j.Tasks; task++ {
				node := r.Intn(n)
				for k := 1; k < d; k++ {
					if ctl.FreeRes(node, k)-used[[2]int{node, k}] < j.Demand(k) {
						break tasks
					}
				}
				for k := 1; k < d; k++ {
					used[[2]int{node, k}] += j.Demand(k)
				}
				nodes = append(nodes, node)
			}
			if len(nodes) == j.Tasks {
				ctl.Start(jid, nodes)
			}
		}
		_, lb := cfg.Objective.(placement.LoadBalance)
		indexed := (cfg.Objective == nil || lb) && d == 2
		var ps PlaceScratch
		for _, jid := range ctl.JobsInState(sim.Pending) {
			var before indexSnapshot
			if indexed {
				before = snapshotIndex(ctl)
				for node := 0; node < n; node++ {
					if before.loads[node] != ctl.CPULoad(node)/ctl.CPUCap(node) || before.mems[node] != ctl.FreeMem(node) {
						t.Fatalf("seed %d: index leaf %d disagrees with the live node state", seed, node)
					}
				}
			}
			want, wantOK := refPlace(ctl, jid)
			got, ok := ps.Place(ctl, jid)
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d job %d (d=%d, objective %v): Place = %v (ok %v), reference = %v (ok %v)",
					seed, jid, d, cfg.Objective, got, ok, want, wantOK)
			}
			if indexed {
				if after := snapshotIndex(ctl); !reflect.DeepEqual(after, before) {
					t.Fatalf("seed %d job %d (ok %v): node index changed across Place:\nbefore %+v\nafter  %+v",
						seed, jid, ok, before, after)
				}
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
// values the placement loop queries — not floor((free+Eps)/memReq), which
// counts one more slot just above a divisor of the free memory. The
// simulator's eager check counts the same way, and so does the federation's
// dispatch view of the free capacity (FreeTaskSlots): one task just above
// a half, as many as Place places. Node 0 has all its memory free; nodes
// 1..10 are full.
func TestPlaceCumulativeSlotRule(t *testing.T) {
	const aboveHalf = 0.5000000005 // two of them overflow a unit node by a rounding step
	tr := &workload.Trace{Name: "slots", Nodes: 11, NodeMemGB: 8, Jobs: []workload.Job{
		jb(0, 0, 10, 0.5, 1, 100), // fills nodes 1..10
		jb(1, 0, 11, 0.5, 0.1, 100),
		jb(2, 0, 10, 0.5, 0.1, 100),
		jb(3, 0, 2, 0.5, aboveHalf, 100),
		jb(4, 0, 1, 0.5, aboveHalf, 100),
	}}
	buildSimFull(t, sim.Config{Trace: tr}, func(s *sim.Simulator, ctl *sim.Controller) {
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
			if got := SlotsCover(ctl.FreeRows(), []float64{c.memReq}, c.tasks); got != c.want {
				t.Errorf("%s: SlotsCover(free rows, %g, %d) = %v, want %v", c.name, c.memReq, c.tasks, got, c.want)
			}
		}
		checkRejectedOnFree(t, ctl, jb(3, 0, 2, 0.5, aboveHalf, 100), 1)
		if got := s.FreeTaskSlots(*ctl.JobRef(3)); got != 1 {
			t.Errorf("FreeTaskSlots(job 3) = %d, want 1: Place fits job 4's one task and not job 3's two", got)
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
			want, wantOK := refPlace(ctl, c.jid)
			got, ok := new(PlaceScratch).Place(ctl, c.jid)
			if ok != (c.want != nil) || !reflect.DeepEqual(got, c.want) || ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Errorf("job %d: Place = %v (ok %v), want %v; reference = %v (ok %v)", c.jid, got, ok, c.want, want, wantOK)
			}
		}
	})
}

// checkRejectedOnFree asserts that the simulator's eager check, asked of
// job j on a cluster whose rigid capacities are ctl's free capacities now,
// rejects it with the placement loop's slot count: sim.CanAdmit counts the
// instance Place just failed on the same way. A node spec needs positive
// memory, so a node whose memory is taken gets 1e-12, below any demand here.
func checkRejectedOnFree(t *testing.T, ctl *sim.Controller, j workload.Job, slots int) {
	t.Helper()
	specs := make([]cluster.NodeSpec, ctl.NumNodes())
	for node := range specs {
		caps := cluster.Vec{ctl.CPUCap(node), max(ctl.FreeMem(node), 1e-12)}
		for k := 2; k < ctl.NumDims(); k++ {
			caps = append(caps, ctl.FreeRes(node, k))
		}
		specs[node] = cluster.NodeSpec{Caps: caps}
	}
	free, err := sim.New(sim.Config{Trace: &workload.Trace{Name: "free", Nodes: len(specs)}, Cluster: cluster.New(specs)}, &probe{})
	if err != nil {
		t.Fatal(err)
	}
	var ice *sim.InsufficientCapacityError
	if err := free.CanAdmit(j); !errors.As(err, &ice) || ice.Slots != slots {
		t.Errorf("CanAdmit(job %d) on the free capacity = %v, want an InsufficientCapacityError counting %d slots", j.ID, err, slots)
	}
}

// TestPlaceAllocationFree: once its buffers have grown, Place allocates
// nothing, picking from the node index (no objective, or LoadBalance, at
// d=2) and from the scan (d=3, or the cost objective), whether the job
// fits or not.
func TestPlaceAllocationFree(t *testing.T) {
	tr := &workload.Trace{Name: "allocs", Nodes: 4, NodeMemGB: 8, Jobs: []workload.Job{
		jb(0, 0, 4, 0.5, 0.6, 100),
		jb(1, 0, 4, 0.25, 0.2, 100), // two slots of 0.2 on each node's 0.4
		jb(2, 0, 4, 0.25, 0.5, 100), // no node has 0.5 free
	}}
	for _, c := range scanCases([]cluster.NodeSpec{cluster.Unit(), cluster.Unit(), cluster.Unit(), cluster.Unit()}) {
		for _, obj := range []placement.Objective{nil, placement.LoadBalance{}, placement.Cost{}} {
			buildSimConfig(t, sim.Config{Trace: tr, Cluster: c.cl, Objective: obj}, func(ctl *sim.Controller) {
				ctl.Start(0, []int{0, 1, 2, 3})
				var ps PlaceScratch
				for _, want := range []struct {
					jid int
					ok  bool
				}{{1, true}, {2, false}} {
					if _, ok := ps.Place(ctl, want.jid); ok != want.ok {
						t.Fatalf("%s, objective %v, job %d: Place ok = %v, want %v", c.name, obj, want.jid, ok, want.ok)
					}
					if allocs := testing.AllocsPerRun(100, func() { ps.Place(ctl, want.jid) }); allocs != 0 {
						t.Errorf("%s, objective %v, job %d (ok %v): warmed Place allocates %v times per call", c.name, obj, want.jid, want.ok, allocs)
					}
				}
			})
		}
	}
}

// TestImproveRankAllocationFree: under the cost objective ImproveRank keys
// every job by the cost of its hosting nodes, task by task, and once its
// buffer has grown it allocates nothing; with no ranking objective it
// returns nil.
func TestImproveRankAllocationFree(t *testing.T) {
	tr := &workload.Trace{Name: "rank", Nodes: 4, NodeMemGB: 8, Jobs: []workload.Job{
		jb(0, 0, 2, 0.5, 0.2, 100),
		jb(1, 0, 3, 0.25, 0.2, 100),
	}}
	specs := []cluster.NodeSpec{cluster.Unit(), cluster.Unit(), cluster.Unit(), cluster.Unit()}
	for i := range specs {
		specs[i] = specs[i].WithCost(float64(1 + 2*i))
	}
	for _, obj := range []placement.Objective{nil, placement.LoadBalance{}, placement.Cost{}} {
		buildSimConfig(t, sim.Config{Trace: tr, Cluster: cluster.New(specs), Objective: obj}, func(ctl *sim.Controller) {
			ctl.Start(0, []int{0, 3})
			ctl.Start(1, []int{1, 1, 2})
			jobs := []core.JobSpec{SpecOf(ctl, 0), SpecOf(ctl, 1)}
			alloc := &core.Allocation{Nodes: [][]int{ctl.JobNodes(0), ctl.JobNodes(1)}, Yields: []float64{1, 1}}
			var ys YieldScratch
			got := ys.ImproveRank(ctl, jobs, alloc)
			var want []float64
			if obj != nil && obj.Name() == "cost" {
				want = []float64{1 + 7, 3 + 3 + 5}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("objective %v: ImproveRank = %v, want %v", obj, got, want)
			}
			if allocs := testing.AllocsPerRun(100, func() { ys.ImproveRank(ctl, jobs, alloc) }); allocs != 0 {
				t.Errorf("objective %v: warmed ImproveRank allocates %v times per call", obj, allocs)
			}
		})
	}
}

// TestPlaceBufferRetention: Place hands out its own buffer and overwrites
// it on the next call, which is safe because the simulator copies node
// lists — into the job's placement on Start and into the observer's event.
// Job 0 starts with the returned slice; placing job 1 then rewrites that
// slice, and neither job 0's placement nor its recorded JobStarted may
// change. Both picks hand out the same buffer.
func TestPlaceBufferRetention(t *testing.T) {
	tr := &workload.Trace{Name: "retention", Nodes: 4, NodeMemGB: 8, Jobs: []workload.Job{
		jb(0, 0, 2, 0.5, 0.3, 100),
		jb(1, 0, 2, 0.5, 0.3, 100),
	}}
	for _, c := range scanCases([]cluster.NodeSpec{cluster.Unit(), cluster.Unit(), cluster.Unit(), cluster.Unit()}) {
		t.Run(c.name, func(t *testing.T) {
			rec := &sim.Recorder{}
			var startedOn []int
			buildSimConfig(t, sim.Config{Trace: tr, Cluster: c.cl, Observer: rec}, func(ctl *sim.Controller) {
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
		})
	}
}

// TestScanGPUBinds: on the scan, GPU rather than memory decides both the
// slot count and the nodes. Memory is plentiful everywhere (every task
// takes 0.1 of a unit). Node 0 has one GPU unit, node 1 half a unit, node
// 2 none, and node 3's unit is taken by job 0.
func TestScanGPUBinds(t *testing.T) {
	const aboveHalf = 0.5000000005
	gpuJob := func(id, tasks int, gpu float64) workload.Job {
		j := jb(id, 0, tasks, 0.1, 0.1, 100)
		j.Extra = []float64{gpu}
		return j
	}
	tr := &workload.Trace{Name: "gpu", Nodes: 4, NodeMemGB: 8, Jobs: []workload.Job{
		gpuJob(0, 1, 1),
		gpuJob(1, 3, 0.5),
		gpuJob(2, 4, 0.5),
		gpuJob(3, 3, aboveHalf),
		gpuJob(4, 1, aboveHalf),
		gpuJob(5, 4, 0),
		gpuJob(6, 3, 0.25),
	}}
	cl := cluster.NewWithDims([]string{"cpu", "mem", "gpu"}, []cluster.NodeSpec{
		cluster.Spec(1, 1, 1), cluster.Spec(1, 1, 0.5), cluster.Spec(1, 1, 0), cluster.Spec(1, 1, 1),
	})
	buildSimCluster(t, tr, cl, func(ctl *sim.Controller) {
		ctl.Start(0, []int{3})
		for _, c := range []struct {
			name string
			jid  int
			want []int
		}{
			{"two halves on node 0, one on node 1", 1, []int{0, 1, 0}},
			{"a fourth half finds no GPU", 2, nil},
			{"three tasks just above a half: two slots", 3, nil},
			{"one task just above a half fits", 4, []int{0}},
			{"no GPU demand: every node takes tasks", 5, []int{0, 1, 2, 0}},
			{"quarters on the GPU nodes only", 6, []int{0, 1, 0}},
		} {
			want, wantOK := refPlace(ctl, c.jid)
			got, ok := new(PlaceScratch).Place(ctl, c.jid)
			if ok != (c.want != nil) || !reflect.DeepEqual(got, c.want) || ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Place = %v (ok %v), want %v; reference = %v (ok %v)", c.name, got, ok, c.want, want, wantOK)
			}
		}
		checkRejectedOnFree(t, ctl, gpuJob(3, 3, aboveHalf), 2)
	})
}
