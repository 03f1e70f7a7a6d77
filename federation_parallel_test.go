package dfrs

// Federation worker-count lock: a run on a worker pool
// (FederationSpec.Workers > 1) must produce results byte-identical to the
// 1-worker run, where the loop advances members inline — per-cluster and
// merged, in-memory and streamed — under every built-in dispatcher and
// across topology shapes. Both process the identical per-member event
// sequence between dispatch points, so any divergence is an engine bug,
// never nondeterminism to tolerate.

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// parallelTopologies are the shapes the identity lock sweeps: a single
// member (reduces to the 1-cluster lock), a uniform quad, and a
// mixed federation with a priced member (exercises costaware's bursting
// and per-member mean costs).
func parallelTopologies() map[string][]ClusterSpec {
	return map[string][]ClusterSpec{
		"single": {{Nodes: 64}},
		"quad": {
			{Nodes: 64}, {Nodes: 64}, {Nodes: 64}, {Nodes: 64},
		},
		"mixed-priced": {
			{Name: "onprem", Nodes: 64},
			{Name: "cloud", NodeMix: "bimodal-priced", Nodes: 64},
			{Name: "spill", NodeMix: "powerlaw", Nodes: 64},
		},
	}
}

// runFedMode runs the federation trace either materialized or streamed
// (round-tripped through the trace format), with the given worker count.
func runFedMode(t *testing.T, tr Trace, spec FederationSpec, streamed bool, workers int) FederatedResult {
	t.Helper()
	spec.Workers = workers
	var (
		res FederatedResult
		err error
	)
	if streamed {
		var buf bytes.Buffer
		if encErr := tr.Encode(&buf); encErr != nil {
			t.Fatalf("Encode: %v", encErr)
		}
		res, err = RunFederatedStream(context.Background(), &buf, spec, WithPenalty(300))
	} else {
		res, err = RunFederated(context.Background(), tr, spec, WithPenalty(300))
	}
	if err != nil {
		t.Fatalf("federated run (streamed=%v workers=%d): %v", streamed, workers, err)
	}
	return res
}

// requireFedEqual compares two federated results field for field: every
// member's full sim.Result (Events included), routing counts, and the
// merged view.
func requireFedEqual(t *testing.T, label string, inline, pooled FederatedResult) {
	t.Helper()
	if len(inline.r.Clusters) != len(pooled.r.Clusters) {
		t.Fatalf("%s: cluster counts %d vs %d", label, len(inline.r.Clusters), len(pooled.r.Clusters))
	}
	for i := range inline.r.Clusters {
		s, p := inline.r.Clusters[i], pooled.r.Clusters[i]
		if s.Dispatched != p.Dispatched {
			t.Errorf("%s: cluster %d dispatched %d vs %d", label, i, s.Dispatched, p.Dispatched)
		}
		if !reflect.DeepEqual(s.Result, p.Result) {
			t.Errorf("%s: cluster %d result diverges:\n  inline: %s\n  pooled: %s",
				label, i, summaryOf(s.Result), summaryOf(p.Result))
		}
	}
	if !reflect.DeepEqual(inline.r.Merged, pooled.r.Merged) {
		t.Errorf("%s: merged result diverges:\n  inline: %s\n  pooled: %s",
			label, summaryOf(inline.r.Merged), summaryOf(pooled.r.Merged))
	}
}

// TestFederationParallelMatchesSerial pins the pooled run against the
// 1-worker run, whose members advance one after another on the calling
// goroutine.
func TestFederationParallelMatchesSerial(t *testing.T) {
	tr := lockTrace(t, 13, 150, 0)
	for topoName, clusters := range parallelTopologies() {
		for _, dispatcher := range Dispatchers() {
			for _, streamed := range []bool{false, true} {
				mode := "materialized"
				if streamed {
					mode = "streamed"
				}
				t.Run(topoName+"/"+dispatcher+"/"+mode, func(t *testing.T) {
					spec := FederationSpec{
						Clusters:   clusters,
						Dispatcher: dispatcher,
						Algorithm:  "greedy-pmtn",
					}
					inline := runFedMode(t, tr, spec, streamed, 1)
					pooled := runFedMode(t, tr, spec, streamed, 4)
					requireFedEqual(t, t.Name(), inline, pooled)
				})
			}
		}
	}
}

// TestFederationParallelAcrossAlgorithms re-pins the lock under scheduler
// families with very different event mixes (periodic timers, preemption,
// packing), at 1, 2 and 4 workers. Round-robin routes arrival batches
// ahead of the members, so a member that finishes its share early still
// holds periodic timers inside the batch: its Events must agree across
// worker counts too.
func TestFederationParallelAcrossAlgorithms(t *testing.T) {
	tr := lockTrace(t, 17, 120, 0)
	for _, tc := range []struct{ name, topology, dispatcher, alg string }{
		{"fcfs", "mixed-priced", "costaware", "fcfs"},
		{"gang", "mixed-priced", "costaware", "gang"},
		{"dynmcb8-asap-per", "mixed-priced", "costaware", "dynmcb8-asap-per"},
		{"roundrobin/greedy-pmtn", "quad", "roundrobin", "greedy-pmtn"},
		{"roundrobin/dynmcb8-asap-per", "quad", "roundrobin", "dynmcb8-asap-per"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := FederationSpec{
				Clusters:   parallelTopologies()[tc.topology],
				Dispatcher: tc.dispatcher,
				Algorithm:  tc.alg,
			}
			inline := runFedMode(t, tr, spec, false, 1)
			for _, workers := range []int{2, 4} {
				pooled := runFedMode(t, tr, spec, false, workers)
				requireFedEqual(t, fmt.Sprintf("%s/workers=%d", t.Name(), workers), inline, pooled)
			}
		})
	}
}

// countingObserver counts callbacks; with the shared federation callback
// lock, concurrent member advances must never race on it (this test is the
// -race probe for the locked observer path).
type countingObserver struct {
	mu     sync.Mutex
	events int
}

func (o *countingObserver) bump() {
	o.mu.Lock()
	o.events++
	o.mu.Unlock()
}
func (o *countingObserver) JobSubmitted(float64, int)          { o.bump() }
func (o *countingObserver) JobStarted(float64, int, []int)     { o.bump() }
func (o *countingObserver) JobPreempted(float64, int)          { o.bump() }
func (o *countingObserver) JobMigrated(float64, int, []int)    { o.bump() }
func (o *countingObserver) JobCompleted(float64, int, float64) { o.bump() }
func (o *countingObserver) SchedulerInvoked(float64, string, int, time.Duration) {
	o.bump()
}

// TestFederationParallelManyMemberStress drives a wide federation (twelve
// members, eight workers) over a short bursty trace with observer and job
// sink callbacks wired — the barrier and the locked callback path under
// load, meaningful mainly under -race — and still requires byte-identity
// with the 1-worker run.
func TestFederationParallelManyMemberStress(t *testing.T) {
	tr, err := SyntheticTrace(SyntheticOptions{Seed: 23, Nodes: 32, Jobs: 400})
	if err != nil {
		t.Fatalf("SyntheticTrace: %v", err)
	}
	tr, err = tr.ScaleToLoad(0.9)
	if err != nil {
		t.Fatalf("ScaleToLoad: %v", err)
	}
	clusters := make([]ClusterSpec, 12)
	for i := range clusters {
		clusters[i] = ClusterSpec{Nodes: 32}
	}
	for _, dispatcher := range []string{"roundrobin", "queuedepth"} {
		t.Run(dispatcher, func(t *testing.T) {
			spec := FederationSpec{Clusters: clusters, Dispatcher: dispatcher, Algorithm: "greedy-pmtn"}
			inline := runFedMode(t, tr, spec, false, 1)

			var obs countingObserver
			var sinkMu sync.Mutex
			sunk := 0
			spec.Workers = 8
			parallel, err := RunFederated(context.Background(), tr, spec,
				WithPenalty(300),
				WithObserver(&obs),
				WithJobSink(func(JobResult) { sinkMu.Lock(); sunk++; sinkMu.Unlock() }))
			if err != nil {
				t.Fatalf("parallel RunFederated: %v", err)
			}
			if obs.events == 0 {
				t.Error("observer saw no events")
			}
			if want := len(tr.t.Jobs); sunk != want {
				t.Errorf("job sink saw %d jobs, want %d", sunk, want)
			}
			// The sink run retains no per-job results, so compare the
			// aggregate quantities instead of the full structs.
			if inline.Events() != parallel.Events() {
				t.Errorf("events %d vs %d", inline.Events(), parallel.Events())
			}
			if inline.Makespan() != parallel.Makespan() {
				t.Errorf("makespan %g vs %g", inline.Makespan(), parallel.Makespan())
			}
			if inline.Cost() != parallel.Cost() {
				t.Errorf("cost %g vs %g", inline.Cost(), parallel.Cost())
			}
			if !reflect.DeepEqual(inline.Dispatched(), parallel.Dispatched()) {
				t.Errorf("dispatched %v vs %v", inline.Dispatched(), parallel.Dispatched())
			}

			// And once more without callbacks for the full byte-identity
			// check at the stress width.
			bare := runFedMode(t, tr, spec, false, 8)
			requireFedEqual(t, dispatcher+"/bare", inline, bare)
		})
	}
}

// TestFederationWorkersAuto pins the defaulting: multi-cluster federations
// parallelize automatically (Workers 0), and explicit values — including
// counts far above the member count — change nothing about the outcome.
func TestFederationWorkersAuto(t *testing.T) {
	tr := lockTrace(t, 29, 100, 0)
	spec := FederationSpec{
		Clusters:  []ClusterSpec{{Nodes: 64}, {Nodes: 64}},
		Algorithm: "greedy",
	}
	inline := runFedMode(t, tr, spec, false, 1)
	for _, workers := range []int{0, 2, 64} {
		got := runFedMode(t, tr, spec, false, workers)
		requireFedEqual(t, "workers=0/2/64", inline, got)
	}
	if _, err := RunFederated(context.Background(), tr, FederationSpec{
		Clusters: spec.Clusters, Algorithm: "greedy", Workers: -1,
	}); err == nil {
		t.Error("negative Workers accepted")
	}
}
