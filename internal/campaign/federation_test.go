package campaign

// Federation-axis tests: cell-key compatibility (single-cluster cells keep
// the pre-federation key format), grid validation of topologies and
// dispatchers, byte-determinism of a federated cloud-bursting campaign for
// any worker count, checkpoint resume over federated cells, and the
// GPU-correlation axis riding the same sweep.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// fedGrid is the acceptance scenario: a free on-prem mix plus a priced
// elastic remote, swept across all three dispatch policies, under a
// greedy family and a periodic-timer DYNMCB8 variant.
func fedGrid() *Grid {
	return &Grid{
		Name:         "fed-test",
		Seeds:        []uint64{7},
		Algorithms:   []string{"greedy", "dynmcb8-asap-per"},
		Families:     []Family{{Kind: FamilyLublin, Count: 1}},
		Loads:        []float64{1},
		Penalties:    []float64{300},
		Nodes:        []int{16},
		Topologies:   []string{"uniform:16+bimodal-priced:16"},
		Dispatchers:  []string{"roundrobin", "queuedepth", "costaware"},
		JobsPerTrace: 40,
	}
}

// TestFederationKeyCompatibility pins the checkpoint contract: cells
// without the federation axis produce exactly the key format that predates
// it, and federated cells interleave their segments between the objective
// and the penalty.
func TestFederationKeyCompatibility(t *testing.T) {
	c := Cell{Seed: 42, Family: FamilyLublin, TraceIdx: 3, Load: 0.7, Nodes: 128, Jobs: 150,
		Penalty: 300, Algorithm: "easy"}
	want := "seed=42/family=lublin/trace=3/load=0.7/nodes=128/jobs=150/pen=300/alg=easy"
	if got := c.Key(); got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
	c.Topology, c.Dispatch = "uniform:64+bimodal-priced:64", "costaware"
	want = "seed=42/family=lublin/trace=3/load=0.7/nodes=128/jobs=150" +
		"/fed=uniform:64+bimodal-priced:64/disp=costaware/pen=300/alg=easy"
	if got := c.Key(); got != want {
		t.Fatalf("federated Key() = %q, want %q", got, want)
	}
	if !strings.Contains(c.InstanceKey(), "/fed=") || !strings.Contains(c.InstanceKey(), "/disp=") {
		t.Errorf("InstanceKey misses the federation axis: %s", c.InstanceKey())
	}
	// The GPU-correlation segment rides between the fraction and the
	// objective.
	c.Topology, c.Dispatch = "", ""
	c.NodeMix, c.GPUFrac, c.GPUCorr = "gpu-uniform", 0.25, 0.8
	want = "seed=42/family=lublin/trace=3/load=0.7/nodes=128/jobs=150/mix=gpu-uniform/gpu=0.25/corr=0.8/pen=300/alg=easy"
	if got := c.Key(); got != want {
		t.Fatalf("correlated Key() = %q, want %q", got, want)
	}
}

func TestFederationGridValidate(t *testing.T) {
	g := fedGrid()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := fedGrid()
	bad.Topologies = []string{"nosuchmix:4"}
	if err := bad.Validate(); err == nil {
		t.Error("unknown topology mix accepted")
	}
	bad = fedGrid()
	bad.Dispatchers = []string{"nosuchpolicy"}
	if err := bad.Validate(); err == nil {
		t.Error("unknown dispatcher accepted")
	}
	bad = fedGrid()
	bad.Topologies = nil
	if err := bad.Validate(); err == nil {
		t.Error("dispatchers without topologies accepted")
	}
	corr := fedGrid()
	corr.GPUCorr = 0.5
	if err := corr.Validate(); err == nil {
		t.Error("gpu correlation without gpu fraction accepted")
	}
	corr.NodeMixes, corr.GPUFrac = []string{"gpu-uniform"}, 0.3
	if err := corr.Validate(); err != nil {
		t.Errorf("valid correlated grid rejected: %v", err)
	}
	corr.GPUCorr = 1.5
	if err := corr.Validate(); err == nil {
		t.Error("gpu correlation above 1 accepted")
	}
}

// TestFederationCampaignDeterminism is the acceptance run: a 2-cluster
// cloud-bursting campaign across all three dispatch policies and both
// algorithms emits
// byte-identical sorted JSONL for any worker count, every record carries a
// populated cost (the priced remote) and per-cluster dispatch counts that
// sum to the finished jobs.
func TestFederationCampaignDeterminism(t *testing.T) {
	g := fedGrid()
	serial := runJSONL(t, g, 1)
	parallel := runJSONL(t, g, 4)
	if len(serial) != 6 || len(parallel) != 6 {
		t.Fatalf("record counts %d/%d, want 6", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("record %d differs between worker counts:\nserial:   %s\nparallel: %s",
				i, serial[i], parallel[i])
		}
		var rec Record
		if err := json.Unmarshal([]byte(serial[i]), &rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Topology == "" || rec.Dispatch == "" {
			t.Errorf("record %s lacks federation fields", rec.Key)
		}
		if rec.Cost <= 0 {
			t.Errorf("record %s has no cost despite the priced remote", rec.Key)
		}
		if len(rec.Dispatched) != 2 {
			t.Fatalf("record %s has %d dispatch counts, want 2", rec.Key, len(rec.Dispatched))
		}
		if got := rec.Dispatched[0] + rec.Dispatched[1]; got != rec.Finished {
			t.Errorf("record %s dispatched %d jobs but finished %d", rec.Key, got, rec.Finished)
		}
	}
}

// TestFederationCampaignFedWorkersDeterminism pins FedWorkers as a pure
// execution knob: the same federated grid emits byte-identical sorted
// JSONL — events included — whether each cell's member clusters advance
// inline or on a worker pool, alone and combined with a concurrent cell
// pool.
// FedWorkers is not a grid axis, so keys and records cannot depend on it
// by construction — this guards the engine half of that promise.
func TestFederationCampaignFedWorkersDeterminism(t *testing.T) {
	g := fedGrid()
	// A uniform quad at load 0.9, sized so round-robin leaves members
	// idle, with periodic timers armed, inside the last dispatch batch:
	// their event counts must not depend on FedWorkers either.
	g.Topologies = append(g.Topologies, "4")
	g.Loads = []float64{0.9}
	g.JobsPerTrace = 100
	run := func(cellWorkers, fedWorkers int) []string {
		t.Helper()
		var buf bytes.Buffer
		r := &Runner{Workers: cellWorkers, FedWorkers: fedWorkers, Sink: NewJSONLSink(&buf)}
		if _, err := r.Run(g); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
		sort.Strings(lines)
		return lines
	}
	base := run(1, 0)
	for _, tc := range []struct{ cell, fed int }{{1, 1}, {1, 4}, {2, 2}, {4, 4}} {
		got := run(tc.cell, tc.fed)
		if len(got) != len(base) {
			t.Fatalf("workers=%d fed-workers=%d emitted %d records, want %d",
				tc.cell, tc.fed, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d fed-workers=%d record %d differs:\nbase: %s\ngot:  %s",
					tc.cell, tc.fed, i, base[i], got[i])
			}
		}
	}
}

// TestFederationCampaignResume: a checkpoint holding a subset of federated
// cells resumes exactly the missing ones with identical records.
func TestFederationCampaignResume(t *testing.T) {
	g := fedGrid()
	all, err := (&Runner{Workers: 2}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 6 {
		t.Fatalf("ran %d cells, want 6", len(all))
	}
	skip := map[string]bool{all[1].Key: true}
	rest, err := (&Runner{Workers: 2, Skip: skip}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 5 {
		t.Fatalf("resume ran %d cells, want 5", len(rest))
	}
	got := map[string]Record{}
	for _, rec := range rest {
		if skip[rec.Key] {
			t.Fatalf("resume re-ran skipped cell %s", rec.Key)
		}
		got[rec.Key] = rec
	}
	for _, rec := range all {
		if skip[rec.Key] {
			continue
		}
		if !reflect.DeepEqual(got[rec.Key], rec) {
			t.Fatalf("resumed cell %s differs from the uninterrupted run", rec.Key)
		}
	}
}

// TestGPUCorrelationChangesTraces: the correlation axis must actually
// perturb results relative to independent draws (same seed, same
// fraction), and stay deterministic across worker counts.
func TestGPUCorrelationChangesTraces(t *testing.T) {
	mk := func(corr float64) *Grid {
		return &Grid{
			Name:         "corr-test",
			Seeds:        []uint64{7},
			Algorithms:   []string{"greedy-pmtn"},
			Families:     []Family{{Kind: FamilyLublin, Count: 1}},
			Loads:        []float64{0.7},
			Penalties:    []float64{300},
			Nodes:        []int{16},
			NodeMixes:    []string{"gpu-uniform"},
			GPUFrac:      0.3,
			GPUCorr:      corr,
			JobsPerTrace: 30,
		}
	}
	indep := runJSONL(t, mk(0), 2)
	corr := runJSONL(t, mk(0.9), 2)
	corrAgain := runJSONL(t, mk(0.9), 1)
	if len(indep) != 1 || len(corr) != 1 {
		t.Fatalf("record counts %d/%d, want 1", len(indep), len(corr))
	}
	if corr[0] != corrAgain[0] {
		t.Fatalf("correlated cell is not worker-count deterministic:\n%s\n%s", corr[0], corrAgain[0])
	}
	if indep[0] == corr[0] {
		t.Fatalf("corr=0.9 produced the identical record to corr=0: %s", corr[0])
	}
	if !strings.Contains(corr[0], "/corr=0.9/") {
		t.Errorf("correlated record key lacks the corr segment: %s", corr[0])
	}
}
