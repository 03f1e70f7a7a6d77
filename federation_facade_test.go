package dfrs_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	dfrs "repro"
)

func federationTrace(t *testing.T) dfrs.Trace {
	t.Helper()
	tr, err := dfrs.SyntheticTrace(dfrs.SyntheticOptions{Seed: 21, Nodes: 64, Jobs: 200})
	if err != nil {
		t.Fatalf("SyntheticTrace: %v", err)
	}
	scaled, err := tr.ScaleToLoad(1.2)
	if err != nil {
		t.Fatalf("ScaleToLoad: %v", err)
	}
	return scaled
}

func burstSpec(dispatcher string) dfrs.FederationSpec {
	return dfrs.FederationSpec{
		Clusters: []dfrs.ClusterSpec{
			{Name: "onprem", NodeMix: "", Nodes: 64},
			{Name: "remote", NodeMix: "bimodal-priced", Nodes: 64},
		},
		Dispatcher: dispatcher,
		Algorithm:  "greedy",
	}
}

// Streamed and materialized federated runs of the same trace must agree on
// every public metric, per cluster and aggregate — the streaming lock
// extended to federations.
func TestFederatedStreamMatchesMaterialized(t *testing.T) {
	tr := federationTrace(t)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Both paths parse the same bytes: the comparison is the streaming
	// reader vs the materialized parser, not in-memory vs text (the text
	// format quantizes floats).
	rtr, err := dfrs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	for _, dispatcher := range dfrs.Dispatchers() {
		t.Run(dispatcher, func(t *testing.T) {
			mat, err := dfrs.RunFederated(context.Background(), rtr, burstSpec(dispatcher))
			if err != nil {
				t.Fatalf("RunFederated: %v", err)
			}
			str, err := dfrs.RunFederatedStream(context.Background(), bytes.NewReader(buf.Bytes()), burstSpec(dispatcher))
			if err != nil {
				t.Fatalf("RunFederatedStream: %v", err)
			}
			if !reflect.DeepEqual(mat.Dispatched(), str.Dispatched()) {
				t.Errorf("dispatch counts diverge: %v vs %v", mat.Dispatched(), str.Dispatched())
			}
			if !reflect.DeepEqual(mat.Jobs(), str.Jobs()) {
				t.Errorf("per-job outcomes diverge")
			}
			if mat.Events() != str.Events() || mat.Makespan() != str.Makespan() || mat.Cost() != str.Cost() {
				t.Errorf("aggregates diverge: events %d/%d makespan %g/%g cost %g/%g",
					mat.Events(), str.Events(), mat.Makespan(), str.Makespan(), mat.Cost(), str.Cost())
			}
			for i := 0; i < mat.Clusters(); i++ {
				if mat.Cluster(i) != str.Cluster(i) {
					t.Errorf("cluster %d diverges: %+v vs %+v", i, mat.Cluster(i), str.Cluster(i))
				}
			}
		})
	}
}

// Cost-aware dispatch must prefer the free on-prem mix and burst to the
// priced remote only under pressure: with a cost-0 and a priced member,
// the on-prem cluster takes the majority of jobs, the remote takes the
// overflow, and the run accrues cost only for the burst share.
func TestFederatedCostAwareBursting(t *testing.T) {
	tr := federationTrace(t)
	res, err := dfrs.RunFederated(context.Background(), tr, burstSpec("costaware"))
	if err != nil {
		t.Fatalf("RunFederated: %v", err)
	}
	onprem, remote := res.Cluster(0), res.Cluster(1)
	if onprem.Dispatched+remote.Dispatched != len(tr.Jobs()) {
		t.Fatalf("dispatched %d+%d of %d jobs", onprem.Dispatched, remote.Dispatched, len(tr.Jobs()))
	}
	if onprem.Dispatched <= remote.Dispatched {
		t.Errorf("cost-aware dispatch did not prefer the free on-prem mix: onprem %d, remote %d",
			onprem.Dispatched, remote.Dispatched)
	}
	if remote.Dispatched == 0 {
		t.Errorf("an offered load of 1.2 on a 64-node on-prem mix should burst, but the remote got nothing")
	}
	if onprem.Cost != 0 {
		t.Errorf("on-prem mix accrued cost %g", onprem.Cost)
	}
	if remote.Dispatched > 0 && remote.Cost <= 0 {
		t.Errorf("priced remote hosted %d jobs but accrued no cost", remote.Dispatched)
	}
	if res.Cost() != onprem.Cost+remote.Cost {
		t.Errorf("aggregate cost %g != %g + %g", res.Cost(), onprem.Cost, remote.Cost)
	}
}

// A job no member can run fails the federated run with the lowest-index
// member's typed admission error: a 4-task GPU job on 4-node gpu-bimodal
// members, whose one double-GPU node hosts only three of its tasks.
func TestFederatedInfeasibleJobTypedError(t *testing.T) {
	tr, err := dfrs.FromJobs("gpu-burst", 4, 8, []dfrs.Job{
		{ID: 0, Submit: 0, Tasks: 1, CPUNeed: 0.5, MemReq: 0.2, ExecTime: 60},
		{ID: 1, Submit: 10, Tasks: 4, CPUNeed: 0.5, MemReq: 0.2, ExecTime: 60, Extra: []float64{0.6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = dfrs.RunFederated(context.Background(), tr, dfrs.FederationSpec{
		Clusters: []dfrs.ClusterSpec{
			{NodeMix: "gpu-bimodal", Nodes: 4},
			{NodeMix: "gpu-bimodal", Nodes: 4},
		},
		Algorithm: "greedy",
	})
	var ice *dfrs.InsufficientCapacityError
	if !errors.As(err, &ice) {
		t.Fatalf("err = %v, want InsufficientCapacityError", err)
	}
	if ice.JobID != 1 || ice.Slots >= ice.Tasks {
		t.Errorf("error reports job %d with %d slots for %d tasks", ice.JobID, ice.Slots, ice.Tasks)
	}
}

// Online metrics ride the job-sink path on federated runs exactly as on
// single runs: Jobs() stays empty, and the aggregator sees every job.
func TestFederatedOnlineMetrics(t *testing.T) {
	tr := federationTrace(t)
	agg := dfrs.NewOnlineAggregator()
	res, err := dfrs.RunFederated(context.Background(), tr, burstSpec("roundrobin"), dfrs.WithOnlineMetrics(agg))
	if err != nil {
		t.Fatalf("RunFederated: %v", err)
	}
	if n := len(res.Jobs()); n != 0 {
		t.Errorf("Jobs() holds %d entries under WithOnlineMetrics", n)
	}
	snap := agg.Snapshot()
	if snap.Jobs != int64(len(tr.Jobs())) {
		t.Errorf("aggregator saw %d of %d jobs", snap.Jobs, len(tr.Jobs()))
	}
	if snap.Submitted != int64(len(tr.Jobs())) {
		t.Errorf("aggregator observed %d submissions of %d", snap.Submitted, len(tr.Jobs()))
	}
}

func TestParseClusters(t *testing.T) {
	cases := []struct {
		spec    string
		want    []dfrs.ClusterSpec
		wantErr bool
	}{
		{spec: "2", want: []dfrs.ClusterSpec{{Nodes: 128}, {Nodes: 128}}},
		{spec: "uniform:64+bimodal-priced:32", want: []dfrs.ClusterSpec{
			{NodeMix: "", Nodes: 64}, {NodeMix: "bimodal-priced", Nodes: 32}}},
		{spec: "bimodal", want: []dfrs.ClusterSpec{{NodeMix: "bimodal", Nodes: 128}}},
		{spec: "0", wantErr: true},
		{spec: "nosuchmix:4", wantErr: true},
		{spec: "", wantErr: true},
		{spec: "uniform:x", wantErr: true},
	}
	for _, tc := range cases {
		got, err := dfrs.ParseClusters(tc.spec, 128, "")
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseClusters(%q): no error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseClusters(%q): %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseClusters(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}
