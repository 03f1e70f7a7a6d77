package sim_test

// Multi-resource (d >= 3) invariant battery: every registered algorithm
// runs a GPU-demanding workload on three-dimensional clusters with
// per-event validation of every rigid dimension, plus directed tests of
// the per-dimension eager unschedulability check.

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// gpuTrace decorates the shared contended trace with a GPU demand on a
// third of the jobs, then strips the demand from jobs that could not fit
// the partially-equipped gpu-bimodal layout (only every fourth node
// carries a GPU), so the same trace is feasible on every GPU profile and
// the battery exercises the schedulers rather than the eager reject path.
func gpuTrace(t *testing.T) *workload.Trace {
	t.Helper()
	tr, err := workload.AttachGPUDemand(invariantTrace(t), rng.New(5).Split("gpu"), 0.33, 0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	gpuJobs := 0
	for i, j := range tr.Jobs {
		if j.Dims() <= 2 {
			continue
		}
		slots := 4 * min(int(1/j.MemReq), int(2/j.Extra[0]))
		if j.Tasks > slots {
			tr.Jobs[i].Extra = nil
			continue
		}
		gpuJobs++
	}
	if gpuJobs == 0 {
		t.Fatal("gpu trace carries no gpu jobs")
	}
	return tr
}

// TestInvariantsOnGPUClusters: every algorithm completes the GPU-demanding
// trace on the gpu-uniform profile, and every non-batch algorithm also on
// the partially-equipped gpu-bimodal mix, with per-event capacity
// validation in every dimension. Batch baselines allocate whole nodes
// exclusively, so on gpu-bimodal a multi-task GPU job can be eligible on
// fewer nodes than its task count — those (scheduler, cluster) pairs are
// covered by TestBatchRejectsUnderprovisionedGPUTrace.
func TestInvariantsOnGPUClusters(t *testing.T) {
	tr := gpuTrace(t)
	nonBatch := []string{"greedy", "greedy-pmtn", "greedy-pmtn-migr",
		"dynmcb8", "dynmcb8-per", "dynmcb8-asap-per", "dynmcb8-stretch-per"}
	for _, tc := range []struct {
		mix  string
		algs []string
	}{
		{cluster.ProfileGPUUniform, nineAlgorithms},
		{cluster.ProfileGPUBimodal, nonBatch},
	} {
		cl, err := cluster.Profile(tc.mix, tr.Nodes)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range tc.algs {
			s, err := sched.New(alg)
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			simulator, err := sim.New(sim.Config{
				Trace:           tr,
				Cluster:         cl,
				CheckInvariants: true,
				Penalty:         300,
				MaxSimTime:      50 * 365 * 24 * 3600,
			}, s)
			if err != nil {
				t.Fatalf("%s on %s: %v", alg, tc.mix, err)
			}
			res, err := simulator.Run()
			if err != nil {
				t.Fatalf("%s on %s: %v", alg, tc.mix, err)
			}
			checkResultInvariants(t, tr, res, alg+"/"+tc.mix, 300)
		}
	}
}

// TestBatchRejectsUnderprovisionedGPUTrace: a multi-task GPU job eligible
// on fewer nodes than its task count would block a batch FIFO queue
// forever; sim.New rejects the combination eagerly through the scheduler's
// CapacityChecker instead of deadlocking mid-run.
func TestBatchRejectsUnderprovisionedGPUTrace(t *testing.T) {
	// 4 nodes, 1 GPU node (gpu-bimodal layout), one 2-task GPU job.
	tr := &workload.Trace{Name: "gpu-starve", Nodes: 4, NodeMemGB: 4, Jobs: []workload.Job{
		{ID: 0, Submit: 0, Tasks: 2, CPUNeed: 0.5, MemReq: 0.5, ExecTime: 10, Extra: []float64{0.2}},
	}}
	cl, err := cluster.Profile(cluster.ProfileGPUBimodal, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"fcfs", "easy", "conservative"} {
		s, err := sched.New(alg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.New(sim.Config{Trace: tr, Cluster: cl}, s); err == nil {
			t.Errorf("%s accepted a trace it can never finish", alg)
		}
	}
	// DFRS algorithms stack tasks and accept the same combination.
	s, err := sched.New("greedy")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.New(sim.Config{Trace: tr, Cluster: cl}, s); err != nil {
		t.Errorf("greedy rejected a feasible trace: %v", err)
	}
}

// TestGPUDemandOnTwoDimClusterRejected: a job demanding a dimension the
// cluster does not declare is eagerly rejected with a typed error naming
// the binding resource.
func TestGPUDemandOnTwoDimClusterRejected(t *testing.T) {
	tr := &workload.Trace{Name: "gpu-miss", Nodes: 2, NodeMemGB: 4, Jobs: []workload.Job{
		{ID: 7, Submit: 0, Tasks: 1, CPUNeed: 0.5, MemReq: 0.5, ExecTime: 10, Extra: []float64{0.4}},
	}}
	s, err := sched.New("fcfs")
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.New(sim.Config{Trace: tr, Cluster: cluster.Homogeneous(2)}, s)
	var ue *sim.UnschedulableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UnschedulableError", err)
	}
	if ue.JobID != 7 || ue.Resource != "gpu" || ue.MaxCap != 0 {
		t.Errorf("UnschedulableError = %+v, want job 7 bound by gpu with max capacity 0", ue)
	}
}

// TestGPUDemandExceedingEveryGPUNodeRejected: the per-dimension eager
// check also fires when the dimension exists but no node is large enough.
func TestGPUDemandExceedingEveryGPUNodeRejected(t *testing.T) {
	tr := &workload.Trace{Name: "gpu-big", Nodes: 2, NodeMemGB: 4, Jobs: []workload.Job{
		{ID: 3, Submit: 0, Tasks: 1, CPUNeed: 0.5, MemReq: 0.5, ExecTime: 10, Extra: []float64{0.9}},
	}}
	cl := cluster.New([]cluster.NodeSpec{cluster.Spec(1, 1, 0.5), cluster.Spec(1, 1, 0.2)})
	s, err := sched.New("fcfs")
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.New(sim.Config{Trace: tr, Cluster: cl}, s)
	var ue *sim.UnschedulableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UnschedulableError", err)
	}
	if ue.Resource != "gpu" || ue.Need != 0.9 || ue.MaxCap != 0.5 {
		t.Errorf("UnschedulableError = %+v, want gpu need 0.9 vs max 0.5", ue)
	}
}

// TestGangRejectsRowInfeasibleGPUJob: a gang row runs at yield 1, so a
// CPU-hungry multi-task GPU job can exceed a fresh row on a partial-GPU
// mix even though the rigid aggregate check passes (GPU slots alone would
// suffice at yield < 1). Without gang's CapacityChecker veto the job sat
// queued while the quantum timer re-armed forever.
func TestGangRejectsRowInfeasibleGPUJob(t *testing.T) {
	// 8 nodes, 2 GPU nodes (gpu-bimodal layout): rigid slots = 2 nodes x
	// 4 tasks of 0.5 GPU = 8 >= 4 (generic check passes), but CPU at
	// yield 1 allows one task of 0.6 per GPU node -> 2 < 4.
	tr := &workload.Trace{Name: "gang-row", Nodes: 8, NodeMemGB: 4, Jobs: []workload.Job{
		{ID: 0, Submit: 0, Tasks: 4, CPUNeed: 0.6, MemReq: 0.1, ExecTime: 10, Extra: []float64{0.5}},
	}}
	cl, err := cluster.Profile(cluster.ProfileGPUBimodal, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New("gang")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.New(sim.Config{Trace: tr, Cluster: cl}, s); err == nil {
		t.Fatal("gang accepted a job that never fits one of its rows")
	}
	// The same job without the CPU pressure is accepted and completes.
	ok := *tr
	ok.Jobs = []workload.Job{{ID: 0, Submit: 0, Tasks: 4, CPUNeed: 0.2, MemReq: 0.1, ExecTime: 10, Extra: []float64{0.5}}}
	s, err = sched.New("gang")
	if err != nil {
		t.Fatal(err)
	}
	simulator, err := sim.New(sim.Config{Trace: &ok, Cluster: cl, CheckInvariants: true,
		MaxSimTime: 50 * 365 * 24 * 3600}, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulator.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTinyDemandDoesNotOverflowSlotCount: a vanishingly small rigid demand
// pushes capacity/demand past the int range, where the float-to-int
// conversion is implementation-defined; the eager slot count must clamp
// before converting instead of rejecting a trivially feasible trace.
func TestTinyDemandDoesNotOverflowSlotCount(t *testing.T) {
	tr := &workload.Trace{Name: "tiny", Nodes: 2, NodeMemGB: 4, Jobs: []workload.Job{
		{ID: 0, Submit: 0, Tasks: 2, CPUNeed: 0.5, MemReq: 1e-20, ExecTime: 10},
	}}
	for _, alg := range []string{"greedy-pmtn", "gang", "fcfs"} {
		s, err := sched.New(alg)
		if err != nil {
			t.Fatal(err)
		}
		simulator, err := sim.New(sim.Config{Trace: tr, CheckInvariants: true,
			MaxSimTime: 50 * 365 * 24 * 3600}, s)
		if err != nil {
			t.Fatalf("%s: tiny-demand trace rejected: %v", alg, err)
		}
		if _, err := simulator.Run(); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
}

// TestGPUHardConstraintSerializes: two jobs each demanding the full GPU of
// the only GPU node must run one after the other even though CPU and
// memory would let them share — the rigid dimension is the binding
// constraint.
func TestGPUHardConstraintSerializes(t *testing.T) {
	tr := &workload.Trace{Name: "gpu-serial", Nodes: 2, NodeMemGB: 4, Jobs: []workload.Job{
		{ID: 0, Submit: 0, Tasks: 1, CPUNeed: 0.1, MemReq: 0.1, ExecTime: 100, Extra: []float64{1.0}},
		{ID: 1, Submit: 0, Tasks: 1, CPUNeed: 0.1, MemReq: 0.1, ExecTime: 100, Extra: []float64{1.0}},
	}}
	cl := cluster.NewWithDims([]string{"cpu", "mem", "gpu"},
		[]cluster.NodeSpec{cluster.Spec(1, 1, 1), cluster.Spec(1, 1, 0)})
	s, err := sched.New("greedy")
	if err != nil {
		t.Fatal(err)
	}
	simulator, err := sim.New(sim.Config{Trace: tr, Cluster: cl, CheckInvariants: true,
		MaxSimTime: 50 * 365 * 24 * 3600}, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("%d jobs finished", len(res.Jobs))
	}
	if res.Makespan < 200-1e-6 {
		t.Errorf("makespan %.1f, want >= 200 (gpu forces serialization)", res.Makespan)
	}
}
