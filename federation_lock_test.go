package dfrs

// Federation lock: a 1-cluster federation must be byte-identical to a
// plain Run of the same trace — same per-job outcomes, same event counts,
// same aggregates, field for field — for every scheduler family, node
// mix and dispatch policy. The orchestrator only chooses which member
// advances next, so with one member it must reduce to the single-cluster
// engine exactly; this test pins that reduction the same way the
// placement layer pinned its default rules.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

func lockTrace(t *testing.T, seed uint64, jobs int, gpuFrac float64) Trace {
	t.Helper()
	nodes := 64
	if gpuFrac > 0 {
		nodes = 128 // the GPU mixes put accelerators on a node subset
	}
	tr, err := SyntheticTrace(SyntheticOptions{Seed: seed, Nodes: nodes, Jobs: jobs, GPUFrac: gpuFrac})
	if err != nil {
		t.Fatalf("SyntheticTrace: %v", err)
	}
	scaled, err := tr.ScaleToLoad(0.7)
	if err != nil {
		t.Fatalf("ScaleToLoad: %v", err)
	}
	return scaled
}

func TestFederationSingleClusterByteIdentity(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		alg, mix, objective string
		gpuFrac             float64
		penalty             float64
	}{
		{alg: "greedy", mix: "", gpuFrac: 0, penalty: 0},
		{alg: "greedy-pmtn-migr", mix: "bimodal", gpuFrac: 0, penalty: 300},
		{alg: "dynmcb8-per", mix: "", gpuFrac: 0, penalty: 300},
		{alg: "fcfs", mix: "powerlaw", gpuFrac: 0, penalty: 0},
		{alg: "gang", mix: "", gpuFrac: 0, penalty: 0},
		{alg: "greedy", mix: "gpu-uniform", gpuFrac: 0.3, penalty: 0},
		{alg: "greedy", mix: "bimodal-priced", objective: "cost", gpuFrac: 0, penalty: 300},
	}
	for _, tc := range cases {
		for _, dispatcher := range Dispatchers() {
			name := tc.alg + "/" + tc.mix + "/" + tc.objective + "/" + dispatcher
			t.Run(name, func(t *testing.T) {
				tr := lockTrace(t, 7, 120, tc.gpuFrac)
				opts := []RunOption{WithPenalty(tc.penalty), WithNodeMix(tc.mix)}
				if tc.objective != "" {
					opts = append(opts, WithObjective(tc.objective))
				}
				single, err := Run(ctx, tr, tc.alg, opts...)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				fed, err := RunFederated(ctx, tr, FederationSpec{
					Clusters:   []ClusterSpec{{}},
					Dispatcher: dispatcher,
					Algorithm:  tc.alg,
				}, opts...)
				if err != nil {
					t.Fatalf("RunFederated: %v", err)
				}
				member := fed.r.Clusters[0].Result
				if !reflect.DeepEqual(single.r, member) {
					t.Errorf("1-cluster federated result diverges from Run:\n  single: %+v\n  member: %+v",
						summaryOf(single.r), summaryOf(member))
				}
				if got := fed.r.Clusters[0].Dispatched; got != len(tr.t.Jobs) {
					t.Errorf("dispatched %d of %d jobs", got, len(tr.t.Jobs))
				}
			})
		}
	}
}

// summaryOf compacts a result for failure messages (the full struct holds
// the per-job array).
func summaryOf(r *sim.Result) string {
	return fmt.Sprintf("alg=%s jobs=%d makespan=%g events=%d pmtn=%d mig=%d delivered=%g cost=%g",
		r.Algorithm, len(r.Jobs), r.Makespan, r.Events, r.PreemptionOps, r.MigrationOps,
		r.DeliveredCPUSeconds, r.NodeCostSeconds)
}

// TestFederationMergedAggregates pins the merged result against the
// members: job counts, events, delivered work and cost must sum; the
// per-cluster summaries must equal post-hoc metrics.Summarize of the
// member results (checked indirectly through the facade accessors).
func TestFederationMergedAggregates(t *testing.T) {
	tr := lockTrace(t, 11, 150, 0)
	fed, err := RunFederated(context.Background(), tr, FederationSpec{
		Clusters: []ClusterSpec{
			{Name: "onprem", NodeMix: "", Nodes: 64},
			{Name: "remote", NodeMix: "bimodal-priced", Nodes: 64},
		},
		Dispatcher: "queuedepth",
		Algorithm:  "greedy",
	})
	if err != nil {
		t.Fatalf("RunFederated: %v", err)
	}
	jobs, events, cost, delivered := 0, 0, 0.0, 0.0
	maxMk := 0.0
	for i := range fed.r.Clusters {
		c := fed.r.Clusters[i]
		jobs += len(c.Result.Jobs)
		events += c.Result.Events
		cost += c.Result.NodeCostSeconds
		delivered += c.Result.DeliveredCPUSeconds
		if c.Result.Makespan > maxMk {
			maxMk = c.Result.Makespan
		}
		if c.Summary.Jobs != len(c.Result.Jobs) {
			t.Errorf("cluster %d summary jobs %d != %d", i, c.Summary.Jobs, len(c.Result.Jobs))
		}
	}
	m := fed.r.Merged
	if n := fed.r.NumJobs(); n != jobs || n != len(tr.t.Jobs) {
		t.Errorf("merged jobs %d, members %d, trace %d", n, jobs, len(tr.t.Jobs))
	}
	if len(m.Jobs) != 0 {
		t.Errorf("merged result holds %d job records; the members' are the only copy", len(m.Jobs))
	}
	if m.Events != events {
		t.Errorf("merged events %d != sum %d", m.Events, events)
	}
	if m.NodeCostSeconds != cost {
		t.Errorf("merged cost %g != sum %g", m.NodeCostSeconds, cost)
	}
	if m.DeliveredCPUSeconds != delivered {
		t.Errorf("merged delivered %g != sum %g", m.DeliveredCPUSeconds, delivered)
	}
	if m.Makespan != maxMk {
		t.Errorf("merged makespan %g != max %g", m.Makespan, maxMk)
	}
	if cost <= 0 {
		t.Errorf("priced remote accrued no cost")
	}
	merged := fed.Jobs()
	if len(merged) != jobs {
		t.Errorf("Jobs() returned %d records, members hold %d", len(merged), jobs)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Job.ID < merged[i-1].Job.ID {
			t.Fatalf("merged jobs not sorted by ID at %d", i)
		}
	}
}
