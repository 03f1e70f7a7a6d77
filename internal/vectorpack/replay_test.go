package vectorpack

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/placement"
)

// replayJob is one job of a grouped instance: its task count and the
// requirement vector every task shares.
type replayJob struct {
	tasks int
	req   cluster.Vec
}

// groupedItems lays the jobs out the way core's allocators do — every task
// of a job aliasing one Req slice, so a job collapses into one group and
// node fills can replay — and returns the same items with each task given
// its own copy of Req. The copies form singleton groups, which never
// replay a non-empty pattern, so packing them is an independent reference.
func groupedItems(jobs []replayJob) (grouped, singletons []Item) {
	for _, j := range jobs {
		for t := 0; t < j.tasks; t++ {
			grouped = append(grouped, Item{Req: j.req})
			singletons = append(singletons, Item{Req: j.req.Clone()})
		}
	}
	return grouped, singletons
}

// randomReplayJobs draws jobs with d-dimensional requirements: many tasks
// per job, so whole runs of nodes receive the same sequence of jobs.
func randomReplayJobs(r *rand.Rand, d int) []replayJob {
	jobs := make([]replayJob, 1+r.Intn(8))
	for i := range jobs {
		req := make(cluster.Vec, d)
		req[0] = 0.02 + 0.6*r.Float64()
		req[1] = 0.02 + 0.6*r.Float64()
		for k := 2; k < d; k++ {
			if r.Intn(2) == 0 {
				req[k] = 0.5 * r.Float64()
			}
		}
		jobs[i] = replayJob{tasks: 1 + r.Intn(40), req: req}
	}
	return jobs
}

// replayLayout builds a node set of the named layout in d dimensions. The
// built-in profiles are extended with unit capacity in the dimensions they
// lack; "runs" draws random runs of identical nodes. Every run of
// identical nodes gets one cost, drawn from two price tiers, so the Cost
// objective reorders whole runs.
func replayLayout(t *testing.T, r *rand.Rand, name string, n, d int) []cluster.NodeSpec {
	var nodes []cluster.NodeSpec
	if name == "runs" {
		for len(nodes) < n {
			caps := make(cluster.Vec, d)
			for k := range caps {
				caps[k] = 0.5 + float64(r.Intn(4))*0.5
			}
			for run := 1 + r.Intn(12); run > 0 && len(nodes) < n; run-- {
				nodes = append(nodes, cluster.NodeSpec{Caps: caps.Clone()})
			}
		}
	} else {
		c, err := cluster.Profile(name, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range c.Nodes {
			nodes = append(nodes, node.WithDims(d, 1))
		}
	}
	cost := 1.0
	for i := range nodes {
		if i > 0 && !nodes[i].Caps.Equal(nodes[i-1].Caps) && r.Intn(2) == 0 {
			cost = 4 - cost
		}
		nodes[i].Cost = cost
	}
	return nodes
}

// TestReplayMatchesSingletons is the differential lock on node-pattern
// replay: across d = 2, 3 and 4, the uniform, bimodal, powerlaw and
// gpu-bimodal layouts and random runs of identical nodes, with no objective
// and with the Cost objective, PackBuf on grouped items (where fills
// replay), with one buffer reused across a yield sweep as the allocators
// reuse it, must return exactly the assignment and verdict of PackBuf on
// the same items as singletons (where they do not).
func TestReplayMatchesSingletons(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	replays := 0
	for _, layout := range []string{"uniform", "bimodal", "powerlaw", "gpu-bimodal", "runs"} {
		for d := 2; d <= 4; d++ {
			if layout == "gpu-bimodal" && d == 2 {
				continue
			}
			for _, obj := range []placement.Objective{nil, placement.Cost{}} {
				m := MCB8{Objective: obj}
				for trial := 0; trial < 30; trial++ {
					nodes := replayLayout(t, r, layout, 4+r.Intn(60), d)
					jobs := randomReplayJobs(r, d)
					grouped, singletons := groupedItems(jobs)
					cpu := make([]float64, len(jobs))
					for i, j := range jobs {
						cpu[i] = j.req[0]
					}
					var buf PackBuffer
					for _, y := range []float64{1, 0.5, 0.25} {
						for i, j := range jobs {
							j.req[0] = cpu[i] * y
						}
						for i := range singletons {
							singletons[i].Req[0] = grouped[i].Req[0]
						}
						var refBuf PackBuffer
						want, wantOK := m.PackBuf(singletons, nodes, &refBuf)
						got, ok := m.PackBuf(grouped, nodes, &buf)
						if ok != wantOK {
							t.Fatalf("%s d=%d obj=%v trial %d y=%g: grouped ok=%v, singletons ok=%v",
								layout, d, obj, trial, y, ok, wantOK)
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s d=%d obj=%v trial %d y=%g: item %d grouped node %d, singletons node %d",
									layout, d, obj, trial, y, i, got[i], want[i])
							}
						}
					}
					replays += buf.Replays
				}
			}
		}
	}
	if replays == 0 {
		t.Fatal("no node fill was replayed; the corpus does not exercise replay")
	}
}

// TestReplayCountPinned pins the replay counter on one fixed instance: 128
// reference nodes and jobs of 64, 32 and 16 tasks, packed on one buffer at
// a MaxMinYield-style yield sweep whose last probe repeats the one before.
// The buffer keeps nothing item-dependent between packs, so all six
// packings run their fill: they fill 244 nodes (38 at every yield but 1,
// which takes 54), and 223 of those fills are replays. The five distinct
// probes account for 188; the repeated 0.625 probe searches 3 of its 38
// nodes and replays the other 35, as the first 0.625 probe did.
// A lost replay shows up here as a count.
func TestReplayCountPinned(t *testing.T) {
	jobs := []replayJob{
		{tasks: 64, req: cluster.Vec{0.5, 0.25}},
		{tasks: 32, req: cluster.Vec{0.25, 0.5}},
		{tasks: 16, req: cluster.Vec{0.3, 0.3}},
	}
	cpu := []float64{0.5, 0.25, 0.3}
	items, singletons := groupedItems(jobs)
	nodes := cluster.Uniform(128)
	var m MCB8
	var buf PackBuffer
	for _, y := range []float64{0, 1, 0.5, 0.75, 0.625, 0.625} {
		for i := range jobs {
			jobs[i].req[0] = cpu[i] * y
		}
		for i := range singletons {
			singletons[i].Req[0] = items[i].Req[0]
		}
		got, ok := m.PackBuf(items, nodes, &buf)
		var ref PackBuffer
		want, wantOK := m.PackBuf(singletons, nodes, &ref)
		if ok != wantOK {
			t.Fatalf("y=%g: grouped ok=%v, singletons ok=%v", y, ok, wantOK)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("y=%g: item %d grouped node %d, singletons node %d", y, i, got[i], want[i])
			}
		}
	}
	if buf.Packs != 6 || buf.Replays != 223 {
		t.Fatalf("packs=%d replays=%d, want 6, 223", buf.Packs, buf.Replays)
	}
}
