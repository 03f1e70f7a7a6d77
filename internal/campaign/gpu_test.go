package campaign

// GPU-axis tests: cell-key compatibility (two-resource cells keep the
// pre-GPU key format), grid validation, determinism of the decorated
// traces, and the three-resource end-to-end acceptance run — DFRS and gang
// algorithms over a GPU node mix with per-event capacity invariants
// enforced in every dimension.

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func gpuGrid() *Grid {
	return &Grid{
		Name:         "gpu-test",
		Seeds:        []uint64{7},
		Algorithms:   []string{"greedy-pmtn", "dynmcb8-asap-per"},
		Families:     []Family{{Kind: FamilyLublin, Count: 1}},
		Loads:        []float64{0.7},
		Penalties:    []float64{300},
		Nodes:        []int{16},
		NodeMixes:    []string{"gpu-uniform"},
		GPUFrac:      0.3,
		JobsPerTrace: 30,
	}
}

// TestGPUKeyCompatibility pins the checkpoint contract: cells without the
// GPU axis produce exactly the key format that predates it, and GPU cells
// interleave their segment between the mix and the penalty.
func TestGPUKeyCompatibility(t *testing.T) {
	c := Cell{Seed: 42, Family: FamilyLublin, TraceIdx: 3, Load: 0.7, Nodes: 128, Jobs: 150,
		Penalty: 300, Algorithm: "easy"}
	want := "seed=42/family=lublin/trace=3/load=0.7/nodes=128/jobs=150/pen=300/alg=easy"
	if got := c.Key(); got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
	c.NodeMix, c.GPUFrac = "gpu-bimodal", 0.25
	want = "seed=42/family=lublin/trace=3/load=0.7/nodes=128/jobs=150/mix=gpu-bimodal/gpu=0.25/pen=300/alg=easy"
	if got := c.Key(); got != want {
		t.Fatalf("gpu Key() = %q, want %q", got, want)
	}
	if !strings.Contains(c.InstanceKey(), "/gpu=0.25/") {
		t.Errorf("InstanceKey misses the gpu axis: %s", c.InstanceKey())
	}
}

func TestGPUGridValidate(t *testing.T) {
	g := gpuGrid()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.GPUFrac = 1.5
	if err := g.Validate(); err == nil {
		t.Error("gpu fraction above 1 accepted")
	}
	g.GPUFrac = -0.1
	if err := g.Validate(); err == nil {
		t.Error("negative gpu fraction accepted")
	}
}

// TestGPUDeterminism extends the engine's core guarantee to the GPU axis:
// byte-identical sorted JSONL for any worker count.
func TestGPUDeterminism(t *testing.T) {
	g := gpuGrid()
	serial := runJSONL(t, g, 1)
	parallel := runJSONL(t, g, 8)
	if len(serial) != len(parallel) {
		t.Fatalf("serial run emitted %d records, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("record %d differs:\nserial:   %s\nparallel: %s", i, serial[i], parallel[i])
		}
	}
}

// TestGPUAcceptanceRun is the three-resource end-to-end run: DFRS and gang
// algorithms complete GPU-demanding campaign cells on both GPU node mixes
// — and, via cluster extension, on the homogeneous platform — with
// per-event capacity invariants enforced in every dimension.
func TestGPUAcceptanceRun(t *testing.T) {
	g := &Grid{
		Name:       "gpu-acceptance",
		Seeds:      []uint64{7},
		Algorithms: []string{"greedy", "greedy-pmtn", "greedy-pmtn-migr", "dynmcb8", "dynmcb8-per", "gang"},
		Families:   []Family{{Kind: FamilyLublin, Count: 1}},
		Loads:      []float64{0.8},
		Penalties:  []float64{300},
		Nodes:      []int{16},
		// "" exercises the two-dim mix extended with a unit GPU dimension;
		// gpu-uniform keeps every node GPU-equipped so every decorated job
		// stays feasible (gpu-bimodal's reject path is covered by
		// TestGPUBimodalInfeasibleCellRejected).
		NodeMixes:    []string{"", "gpu-uniform"},
		GPUFrac:      0.4,
		JobsPerTrace: 30,
		Check:        true, // per-event per-node per-dimension validation
	}
	recs, err := (&Runner{Workers: 4}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if want := 6 * 2; len(recs) != want {
		t.Fatalf("%d records, want %d", len(recs), want)
	}
	for _, rec := range recs {
		if rec.GPUFrac != 0.4 {
			t.Errorf("record %s carries gpu fraction %g", rec.Key, rec.GPUFrac)
		}
		if rec.Finished != 30 {
			t.Errorf("%s finished %d of 30 jobs", rec.Key, rec.Finished)
		}
	}
}

// TestGPUBimodalInfeasibleCellRejected: this seed's workload contains a
// 16-task job demanding memory and GPU together; on gpu-bimodal only four
// of the 16 nodes carry GPUs, so the job can never place all tasks
// simultaneously. The cell must fail when that job is dispatched, with the
// simulator's typed capacity error wrapped in the dispatch error, instead
// of deadlocking mid-run.
func TestGPUBimodalInfeasibleCellRejected(t *testing.T) {
	g := gpuGrid()
	g.Algorithms = []string{"greedy-pmtn"}
	g.Loads = []float64{0.8}
	g.NodeMixes = []string{"gpu-bimodal"}
	g.GPUFrac = 0.4
	_, err := (&Runner{Workers: 1}).Run(g)
	if err == nil {
		t.Fatal("infeasible gpu-bimodal cell completed")
	}
	var ice *sim.InsufficientCapacityError
	if !errors.As(err, &ice) {
		t.Fatalf("err = %v, want InsufficientCapacityError", err)
	}
	if ice.Slots >= ice.Tasks {
		t.Errorf("error reports %d slots for %d tasks", ice.Slots, ice.Tasks)
	}
}

// TestGPUAxisChangesTraces: the decorated cells are distinct simulations —
// same seed and grid with and without the GPU axis give different keys and
// (on a GPU-constrained mix) different outcomes.
func TestGPUAxisChangesTraces(t *testing.T) {
	with := gpuGrid()
	without := gpuGrid()
	without.GPUFrac = 0
	cw := with.Cells()
	co := without.Cells()
	if len(cw) != len(co) {
		t.Fatalf("cell counts differ: %d vs %d", len(cw), len(co))
	}
	for i := range cw {
		if cw[i].Key() == co[i].Key() {
			t.Fatalf("gpu and non-gpu cells share key %s", cw[i].Key())
		}
	}
}
