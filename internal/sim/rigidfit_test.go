package sim_test

// The eager capacity check is the exact precondition of every family's
// placement: a job that sim.New admits runs to completion alone on the
// empty cluster under every registered algorithm, and a job it rejects
// fits no placement. The battery sweeps rigid demands a few ulps around
// (c+Eps)/q, where the cumulative rule and a floor((c+Eps)/demand) count
// part ways; FuzzRigidFit decodes arbitrary small instances.

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/floats"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// batchAlgorithms allocate whole nodes exclusively; their own
// CapacityChecker rejects a multi-task job that fewer nodes than its tasks
// can host.
var batchAlgorithms = map[string]bool{"fcfs": true, "easy": true, "conservative": true}

// rigidFitMaxSimTime bounds each single-job run: alone on the cluster the
// job finishes within a few hundred simulated seconds, so a run still going
// at this time is stuck.
const rigidFitMaxSimTime = 1e6

// runAlone builds alg over one job on the given nodes (cpu, mem, gpu) and,
// when sim.New admits it, runs it with invariant checking on. newErr is
// sim.New's error and runErr the run's.
func runAlone(t *testing.T, alg string, nodes []cluster.NodeSpec, j workload.Job) (newErr, runErr error) {
	t.Helper()
	s, err := sched.New(alg)
	if err != nil {
		t.Fatal(err)
	}
	tr := &workload.Trace{Name: "rigid-fit", Nodes: len(nodes), NodeMemGB: 4, Jobs: []workload.Job{j}}
	simulator, err := sim.New(sim.Config{
		Trace:           tr,
		Cluster:         cluster.NewWithDims([]string{"cpu", "mem", "gpu"}, nodes),
		CheckInvariants: true,
		MaxSimTime:      rigidFitMaxSimTime,
	}, s)
	if err != nil {
		return err, nil
	}
	res, err := simulator.Run()
	if err == nil && len(res.Jobs) != 1 {
		err = errors.New("run ended without the job's result")
	}
	return nil, err
}

// gpuNodes returns n nodes of unit CPU and memory, of which only the first
// carries a GPU, of capacity gpu.
func gpuNodes(n int, gpu float64) []cluster.NodeSpec {
	nodes := make([]cluster.NodeSpec, n)
	for i := range nodes {
		nodes[i] = cluster.Spec(1, 1, 0)
	}
	nodes[0].Caps[2] = gpu
	return nodes
}

// TestRigidFitRepros: two tasks a rounding step above half a GPU cannot
// share the one unit GPU node, so every algorithm rejects the job at
// sim.New. Thirteen tasks of 1/13 and sixteen of 1/16 a few ulps up do
// share it under the cumulative rule, and every non-batch algorithm runs
// them; the batch algorithms reject them through their exclusive-node
// check.
func TestRigidFitRepros(t *testing.T) {
	if n := len(sched.Names()); n != 13 {
		t.Fatalf("%d registered algorithms, this battery expects the 13 built-in ones: %v", n, sched.Names())
	}
	reject := workload.Job{ID: 0, Tasks: 2, CPUNeed: 0.5, MemReq: 0.1, ExecTime: 10, Extra: []float64{0.5000000005}}
	for _, alg := range sched.Names() {
		newErr, _ := runAlone(t, alg, gpuNodes(3, 1), reject)
		var ice *sim.InsufficientCapacityError
		if !errors.As(newErr, &ice) || ice.Slots != 1 {
			t.Errorf("%s: sim.New = %v, want an InsufficientCapacityError counting 1 slot", alg, newErr)
		}
	}
	for _, c := range []struct {
		tasks int
		gpu   float64
	}{{13, 0.07692307699999999}, {16, 0.06250000006249999}} {
		j := workload.Job{ID: 0, Tasks: c.tasks, CPUNeed: 0.05, MemReq: 0.05, ExecTime: 10, Extra: []float64{c.gpu}}
		for _, alg := range sched.Names() {
			newErr, runErr := runAlone(t, alg, gpuNodes(c.tasks, 1), j)
			switch {
			case batchAlgorithms[alg]:
				if newErr == nil {
					t.Errorf("%s admitted %d tasks of %v GPU on one GPU node", alg, c.tasks, c.gpu)
				}
			case newErr != nil || runErr != nil:
				t.Errorf("%s, %d tasks of %v GPU: sim.New = %v, run = %v", alg, c.tasks, c.gpu, newErr, runErr)
			}
		}
	}
}

// TestRigidFitBoundarySweep: for capacities c and task counts q = 1..16,
// a q-task job whose GPU or memory demand lies a few ulps around
// (c+Eps)/q, on q nodes of which only node 0 can hold any of its tasks.
// Every algorithm that sim.New lets take the job completes it; the non-
// batch algorithms admit it exactly when the per-task reference placement
// fits it (gang also needs the tasks' CPU in one row). Both outcomes must
// occur.
func TestRigidFitBoundarySweep(t *testing.T) {
	var admitted, rejected int
	for _, gpuDim := range []bool{true, false} {
		for _, c := range []float64{0.5, 1, 1.5, 2} {
			for q := 1; q <= 16; q++ {
				at := (c + floats.Eps) / float64(q)
				for ulps := -3; ulps <= 3; ulps++ {
					dm := at
					for u := 0; u < ulps; u++ {
						dm = math.Nextafter(dm, math.Inf(1))
					}
					for u := 0; u > ulps; u-- {
						dm = math.Nextafter(dm, math.Inf(-1))
					}
					if dm > 1 {
						continue // per-task demands lie in [0, 1]
					}
					j := workload.Job{ID: 0, Tasks: q, CPUNeed: 1.0 / 16, MemReq: 0.01, ExecTime: 10}
					var nodes []cluster.NodeSpec
					if gpuDim {
						nodes = gpuNodes(q, c)
						j.Extra = []float64{dm}
					} else {
						nodes = make([]cluster.NodeSpec, q)
						for i := range nodes {
							nodes[i] = cluster.Spec(1, dm/2, 1)
						}
						nodes[0].Caps[1] = c
						j.MemReq = dm
					}
					fits := refFits(nodes, j, cluster.DimMem)
					if fits {
						admitted++
					} else {
						rejected++
					}
					for _, alg := range sched.Names() {
						newErr, runErr := runAlone(t, alg, nodes, j)
						if runErr != nil {
							t.Fatalf("%s, c=%v q=%d demand %v (gpu %v): admitted but %v", alg, c, q, dm, gpuDim, runErr)
						}
						want := fits
						if alg == "gang" {
							want = refFits(nodes, j, cluster.DimCPU)
						}
						if !batchAlgorithms[alg] && (newErr == nil) != want {
							t.Fatalf("%s, c=%v q=%d demand %v (gpu %v): sim.New = %v, reference placement fits = %v", alg, c, q, dm, gpuDim, newErr, want)
						}
					}
				}
			}
		}
	}
	if admitted == 0 || rejected == 0 {
		t.Fatalf("sweep too one-sided: %d admitted, %d rejected", admitted, rejected)
	}
	t.Logf("%d instances admitted, %d rejected", admitted, rejected)
}

// refFits is the definition the eager check counts against: tasks are
// placed one at a time, each on the first node where every dimension k in
// [lo, d) passes floats.LessEq(demand, capacity - demand already placed
// there). lo = DimMem asks the engine's rigid question, lo = DimCPU also
// asks for the tasks' full CPU need, as one gang row does.
func refFits(nodes []cluster.NodeSpec, j workload.Job, lo int) bool {
	used := make([][]float64, len(nodes))
	for i := range used {
		used[i] = make([]float64, nodes[i].Dims())
	}
	for task := 0; task < j.Tasks; task++ {
		placed := false
		for i, n := range nodes {
			fits := true
			for k := lo; k < n.Dims(); k++ {
				if !floats.LessEq(j.Demand(k), n.Cap(k)-used[i][k]) {
					fits = false
					break
				}
			}
			if fits {
				for k := lo; k < n.Dims(); k++ {
					used[i][k] += j.Demand(k)
				}
				placed = true
				break
			}
		}
		if !placed {
			return false
		}
	}
	return true
}

// FuzzRigidFit decodes a small three-resource cluster (one byte per node:
// memory and GPU capacity from fixed tables), a demand vector and a task
// count, and asserts for greedy, gang and dynmcb8 that sim.New admits the
// job exactly when refFits places it, and that every admitted job runs to
// completion. The task count is 1 + tasks mod the node count. The first
// seeds are the boundary repros of TestRigidFitRepros.
func FuzzRigidFit(f *testing.F) {
	oneGPU := func(n int) []byte {
		b := make([]byte, n)
		b[0] = 2 // unit GPU; every other node 0
		return b
	}
	f.Add(oneGPU(3), 0.5, 0.1, 0.5000000005, uint8(1))
	f.Add(oneGPU(13), 0.05, 0.05, 0.07692307699999999, uint8(12))
	f.Add(oneGPU(16), 0.05, 0.05, 0.06250000006249999, uint8(15))
	// Four nodes of memory 0.5 each take one task of 0.5000000005: the
	// total exceeds the aggregate memory by more than Eps, which the
	// allocators' capacity bound must still let through.
	f.Add([]byte{0x12, 0x12, 0x12, 0x12}, 0.3, 0.5000000005, 0.0, uint8(3))
	mems := []float64{1, 0.5, 1.5, 2}
	gpus := []float64{0, 0.5, 1, 1.5, 2}
	f.Fuzz(func(t *testing.T, spec []byte, cpu, mem, gpu float64, tasks uint8) {
		if len(spec) == 0 || len(spec) > 16 {
			return
		}
		nodes := make([]cluster.NodeSpec, len(spec))
		for i, b := range spec {
			nodes[i] = cluster.Spec(1, mems[int(b>>4)%len(mems)], gpus[int(b&15)%len(gpus)])
		}
		j := workload.Job{ID: 0, Tasks: 1 + int(tasks)%len(nodes), CPUNeed: cpu, MemReq: mem, ExecTime: 10, Extra: []float64{gpu}}
		if j.Validate(len(nodes)) != nil {
			return
		}
		for _, alg := range []string{"greedy", "gang", "dynmcb8"} {
			lo := cluster.DimMem
			if alg == "gang" {
				lo = cluster.DimCPU
			}
			newErr, runErr := runAlone(t, alg, nodes, j)
			if want := refFits(nodes, j, lo); (newErr == nil) != want {
				t.Fatalf("%s on %v, job %+v: sim.New = %v, reference placement fits = %v", alg, nodes, j, newErr, want)
			}
			if runErr != nil {
				t.Fatalf("%s on %v, job %+v: admitted but %v", alg, nodes, j, runErr)
			}
		}
	})
}
