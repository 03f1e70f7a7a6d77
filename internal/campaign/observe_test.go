package campaign

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/sim"
)

func observeGrid() *Grid {
	return &Grid{
		Name:       "observe",
		Seeds:      []uint64{7},
		Algorithms: []string{"easy", "greedy-pmtn"},
		Families:   []Family{{Kind: FamilyLublin, Count: 2}},
		Loads:      []float64{0.7},
		Penalties:  []float64{300},
		Nodes:      []int{16},
		// Small traces keep the battery fast.
		JobsPerTrace: 30,
	}
}

// collectEvents runs the grid with the given worker count, recording every
// cell's observer event sequence keyed by cell key.
func collectEvents(t *testing.T, workers int) map[string][]sim.Event {
	t.Helper()
	var mu sync.Mutex
	recorders := map[string]*sim.Recorder{}
	r := &Runner{
		Workers: workers,
		Observe: func(c Cell) sim.Observer {
			rec := &sim.Recorder{}
			mu.Lock()
			recorders[c.Key()] = rec
			mu.Unlock()
			return rec
		},
	}
	if _, err := r.Run(observeGrid()); err != nil {
		t.Fatal(err)
	}
	out := map[string][]sim.Event{}
	for key, rec := range recorders {
		evs := rec.Events()
		// Elapsed is wall-clock and the only nondeterministic field.
		for i := range evs {
			evs[i].Elapsed = 0
		}
		out[key] = evs
	}
	return out
}

// TestObserverSequencesIdenticalAcrossWorkerCounts is the determinism
// guarantee of the observable campaign surface: per-cell event sequences
// are a function of the cell alone, identical no matter how the worker
// pool interleaves cells.
func TestObserverSequencesIdenticalAcrossWorkerCounts(t *testing.T) {
	serial := collectEvents(t, 1)
	parallel := collectEvents(t, 4)
	if len(serial) == 0 {
		t.Fatal("no cells observed")
	}
	if len(serial) != len(parallel) {
		t.Fatalf("cell sets differ: %d vs %d", len(serial), len(parallel))
	}
	for key, evs := range serial {
		pevs, ok := parallel[key]
		if !ok {
			t.Fatalf("cell %s missing from parallel run", key)
		}
		if len(evs) == 0 {
			t.Errorf("cell %s recorded no events", key)
		}
		if !reflect.DeepEqual(evs, pevs) {
			t.Errorf("cell %s: event sequences differ between 1 and 4 workers", key)
		}
	}
}

// TestObserverMatchesPlainRun: every campaign cell runs on the federation
// orchestrator, a cell without a topology as a one-member federation. Its
// observed event sequence must equal a plain single-simulator run of the
// same materialised trace, cluster, scheduler and objective — across
// batch, backfilling, greedy and periodic MCB families, on a
// two-dimensional mix extended for GPU demands and on a GPU profile.
func TestObserverMatchesPlainRun(t *testing.T) {
	g := observeGrid()
	g.Algorithms = []string{"easy", "conservative", "greedy-pmtn", "dynmcb8-asap-per"}
	g.NodeMixes = []string{"uniform", "gpu-uniform"}
	g.GPUFrac = 0.3
	var mu sync.Mutex
	observed := map[string]*sim.Recorder{}
	r := &Runner{
		Workers: 2,
		Observe: func(c Cell) sim.Observer {
			rec := &sim.Recorder{}
			mu.Lock()
			observed[c.Key()] = rec
			mu.Unlock()
			return rec
		},
	}
	if _, err := r.Run(g); err != nil {
		t.Fatal(err)
	}
	stripped := func(rec *sim.Recorder) []sim.Event {
		evs := rec.Events()
		for i := range evs {
			evs[i].Elapsed = 0
		}
		return evs
	}
	mat := newMaterialiser()
	cells := g.Cells()
	if len(observed) != len(cells) {
		t.Fatalf("observed %d cells, want %d", len(observed), len(cells))
	}
	for _, c := range cells {
		tr, err := mat.trace(c)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.New(c.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.Profile(c.NodeMix, tr.Nodes)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := placement.ByName(c.Objective)
		if err != nil {
			t.Fatal(err)
		}
		plain := &sim.Recorder{}
		simulator, err := sim.New(sim.Config{
			Trace:      tr,
			Cluster:    cl.ExtendUnit(tr.Dims()),
			Penalty:    c.Penalty,
			MaxSimTime: maxSimTime,
			Observer:   plain,
			Objective:  obj,
		}, s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := simulator.Run(); err != nil {
			t.Fatal(err)
		}
		want, got := stripped(plain), stripped(observed[c.Key()])
		if len(want) == 0 {
			t.Fatalf("cell %s: plain run recorded no events", c.Key())
		}
		if !reflect.DeepEqual(got, want) {
			for i := 0; i < min(len(got), len(want)); i++ {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("cell %s: event %d is %v, plain run has %v", c.Key(), i, got[i], want[i])
					break
				}
			}
			t.Errorf("cell %s: %d observed events, plain run has %d", c.Key(), len(got), len(want))
		}
	}
}

// TestRunContextCancelStopsWithinOneCell cancels a serial campaign from
// the progress hook after the first record: the run must stop after at
// most one further cell, return the completed records, and report an error
// wrapping context.Canceled.
func TestRunContextCancelStopsWithinOneCell(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &Runner{Workers: 1}
	r.Progress = func(done, total int, rec Record) {
		if done == 1 {
			cancel()
		}
	}
	recs, err := r.RunContext(ctx, observeGrid())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	total := len(observeGrid().Cells())
	if len(recs) == 0 || len(recs) >= total {
		t.Fatalf("cancelled run returned %d of %d records", len(recs), total)
	}
	// Completed cells must be exactly resumable: running the grid again
	// with their keys skipped completes the rest and nothing else.
	skip := map[string]bool{}
	for _, rec := range recs {
		skip[rec.Key] = true
	}
	rest, err := (&Runner{Workers: 1, Skip: skip}).Run(observeGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs)+len(rest) != total {
		t.Fatalf("resume mismatch: %d + %d != %d", len(recs), len(rest), total)
	}
	seen := map[string]bool{}
	for _, rec := range append(recs, rest...) {
		if seen[rec.Key] {
			t.Errorf("cell %s ran twice", rec.Key)
		}
		seen[rec.Key] = true
	}
}
