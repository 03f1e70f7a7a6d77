// Command federation demonstrates shared-clock multi-cluster federation
// as a cloud-bursting study: a free on-prem cluster plus a priced elastic
// remote one (the bimodal-priced mix: fat nodes at cost rate 3, reference
// nodes at 1), the same workload routed across them by each built-in
// dispatch policy. Round-robin splits arrivals evenly and pays for half
// the work; queue-depth balances jobs-in-system; cost-aware keeps the
// remote cluster idle until the on-prem one runs out of free capacity, so
// only the overflow is billed.
//
// Every member advances under one global clock — the orchestrator only
// decides how far each cluster advances before the next dispatch, so a
// one-cluster federation is byte-identical to dfrs.Run (that lock is what makes the dispatch
// policies comparable: any difference between rows is routing, not
// engine drift).
//
// The second half times a wider eight-member federation twice — members
// advanced inline (Workers 1) and on the conservative-lookahead worker
// pool (Workers 0, all cores) — and checks the results match exactly:
// parallelism is an execution detail, never a semantics change. The speedup tracks the
// host's core count; on a single-core machine the two timings collapse
// to parity.
//
//	go run ./examples/federation
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"
)

import dfrs "repro"

func main() {
	var (
		alg  = flag.String("alg", "greedy-pmtn", "scheduler run inside every member cluster")
		jobs = flag.Int("jobs", 150, "synthetic workload size")
		load = flag.Float64("load", 0.9, "offered load relative to one 64-node cluster")
	)
	flag.Parse()

	// The trace is sized and load-scaled against a single 64-node
	// cluster, so at high load the on-prem member alone cannot absorb it
	// and bursting becomes visible.
	tr, err := dfrs.SyntheticTrace(dfrs.SyntheticOptions{Seed: 7, Nodes: 64, Jobs: *jobs})
	if err != nil {
		log.Fatal(err)
	}
	tr, err = tr.ScaleToLoad(*load)
	if err != nil {
		log.Fatal(err)
	}

	spec := dfrs.FederationSpec{
		Clusters: []dfrs.ClusterSpec{
			{Name: "onprem", NodeMix: "uniform", Nodes: 64},
			{Name: "cloud", NodeMix: "bimodal-priced", Nodes: 64},
		},
		Algorithm: *alg,
	}

	fmt.Printf("%s across onprem:64 + cloud:64 (%d jobs, load %.1f)\n\n", *alg, *jobs, *load)
	fmt.Printf("%-12s %8s %8s %12s %14s %12s\n",
		"dispatch", "onprem", "cloud", "max stretch", "cloud cost", "utilization")
	for _, policy := range dfrs.Dispatchers() {
		spec.Dispatcher = policy
		res, err := dfrs.RunFederated(context.Background(), tr, spec, dfrs.WithPenalty(300))
		if err != nil {
			log.Fatal(err)
		}
		d := res.Dispatched()
		fmt.Printf("%-12s %8d %8d %12.2f %14.0f %11.1f%%\n",
			policy, d[0], d[1], res.MaxStretch(), res.Cluster(1).Cost, 100*res.Utilization())
	}
	fmt.Println("\nThe cloud column is the billed overflow: costaware routes there only")
	fmt.Println("when onprem has no free slots. Sweep topologies x policies across whole")
	fmt.Println("campaigns with dfrs-campaign -clusters uniform:64+bimodal-priced:64 \\")
	fmt.Println("  -dispatch roundrobin,queuedepth,costaware.")

	// Parallel execution: the same federation, eight members wide, timed
	// inline versus on the worker pool. Round-robin is stateless, so the
	// loop batches whole arrival runs ahead of the members.
	wide := dfrs.FederationSpec{
		Clusters:   make([]dfrs.ClusterSpec, 8),
		Dispatcher: "roundrobin",
		Algorithm:  *alg,
	}
	for i := range wide.Clusters {
		wide.Clusters[i] = dfrs.ClusterSpec{Nodes: 64}
	}
	wtr, err := dfrs.SyntheticTrace(dfrs.SyntheticOptions{Seed: 7, Nodes: 64, Jobs: 8 * *jobs})
	if err != nil {
		log.Fatal(err)
	}
	run := func(workers int) (dfrs.FederatedResult, time.Duration) {
		wide.Workers = workers
		start := time.Now()
		res, err := dfrs.RunFederated(context.Background(), wtr, wide, dfrs.WithPenalty(300))
		if err != nil {
			log.Fatal(err)
		}
		return res, time.Since(start)
	}
	inline, inlineDur := run(1)
	parallel, parallelDur := run(0)
	fmt.Printf("\nParallel execution (8 members, roundrobin, %d cores):\n", runtime.GOMAXPROCS(0))
	fmt.Printf("  inline   (Workers 1): %8s\n", inlineDur.Round(time.Millisecond))
	fmt.Printf("  parallel (Workers 0): %8s\n", parallelDur.Round(time.Millisecond))
	if inline.Events() != parallel.Events() || inline.Makespan() != parallel.Makespan() {
		log.Fatalf("parallel run diverged from inline: %d/%d events, %g/%g makespan",
			inline.Events(), parallel.Events(), inline.Makespan(), parallel.Makespan())
	}
	fmt.Println("  results: identical (parallelism never changes the answer)")
}
