package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim/index"
	"repro/internal/workload"
)

// checkIndexFresh compares everything the controller's node index answers
// — every leaf, the root maximum and argmin queries at several memory
// demands — with a NewNodeIndex built from scratch on the live values.
func checkIndexFresh(t *testing.T, ctl *Controller, r *rand.Rand, where string) {
	t.Helper()
	n := ctl.NumNodes()
	fresh := index.NewNodeIndex(n, ctl.FreeMem)
	for node := 0; node < n; node++ {
		fresh.Set(node, ctl.CPULoad(node)/ctl.CPUCap(node), ctl.FreeMem(node))
	}
	// Either reader may be the one that syncs.
	var got *index.NodeIndex
	var maxLoad float64
	if r.Intn(2) == 0 {
		got, maxLoad = ctl.NodeIndex(), ctl.MaxCPULoad()
	} else {
		maxLoad, got = ctl.MaxCPULoad(), ctl.NodeIndex()
	}
	for node := 0; node < n; node++ {
		if got.Load(node) != fresh.Load(node) || got.FreeMem(node) != fresh.FreeMem(node) {
			t.Fatalf("%s t=%g: node %d leaf (%g, %g), fresh (%g, %g)", where, ctl.Now(), node,
				got.Load(node), got.FreeMem(node), fresh.Load(node), fresh.FreeMem(node))
		}
	}
	if want := fresh.MaxLoad(); maxLoad != want || got.MaxLoad() != want {
		t.Fatalf("%s t=%g: MaxCPULoad %g, index root %g, fresh %g", where, ctl.Now(), maxLoad, got.MaxLoad(), want)
	}
	for _, memReq := range []float64{0, 0.1, 0.25, 0.5, 1, 1.5, 2.5} {
		if a, b := got.ArgminLoad(memReq), fresh.ArgminLoad(memReq); a != b {
			t.Fatalf("%s t=%g: ArgminLoad(%g) = %d, fresh %d", where, ctl.Now(), memReq, a, b)
		}
	}
}

// randomOps returns a scheduler that, at every event, applies a random
// sequence of Start, Pause, Resume and Migrate calls on random feasible
// nodes, checking the node index after a random subset of them (so stale
// marks from several calls are folded into one sync) and after every
// event's completions. Yields follow the greedy rule, read from the index.
func randomOps(t *testing.T, r *rand.Rand, where string) (*script, *int) {
	checks := 0
	check := func(ctl *Controller) {
		checkIndexFresh(t, ctl, r, where)
		checks++
	}
	place := func(ctl *Controller, jid int) []int {
		j := ctl.JobRef(jid)
		n, d := ctl.NumNodes(), ctl.NumDims()
		plan := make([]float64, n*d)
		nodes := make([]int, 0, j.Tasks)
		var fits []int
		for task := 0; task < j.Tasks; task++ {
			fits = fits[:0]
			for node := 0; node < n; node++ {
				ok := true
				for k := 1; k < d; k++ {
					if ctl.FreeRes(node, k)-plan[node*d+k] < j.Demand(k) {
						ok = false
						break
					}
				}
				if ok {
					fits = append(fits, node)
				}
			}
			if len(fits) == 0 {
				return nil
			}
			node := fits[r.Intn(len(fits))]
			nodes = append(nodes, node)
			for k := 1; k < d; k++ {
				plan[node*d+k] += j.Demand(k)
			}
		}
		return nodes
	}
	pick := func(ctl *Controller, state JobState) int {
		jids := ctl.JobsInState(state)
		if len(jids) == 0 {
			return -1
		}
		return jids[r.Intn(len(jids))]
	}
	event := func(ctl *Controller) {
		check(ctl)
		for ops := 1 + r.Intn(5); ops > 0; ops-- {
			switch op := r.Intn(10); {
			case op < 4:
				if jid := pick(ctl, Pending); jid >= 0 {
					if nodes := place(ctl, jid); nodes != nil {
						ctl.Start(jid, nodes)
					}
				}
			case op < 6:
				if jid := pick(ctl, Paused); jid >= 0 {
					if nodes := place(ctl, jid); nodes != nil {
						ctl.Resume(jid, nodes)
					}
				}
			case op < 8:
				if jid := pick(ctl, Running); jid >= 0 {
					ctl.Pause(jid)
				}
			default:
				if jid := pick(ctl, Running); jid >= 0 {
					if nodes := place(ctl, jid); nodes != nil {
						ctl.Migrate(jid, nodes)
					}
				}
			}
			if r.Intn(2) == 0 {
				check(ctl)
			}
		}
		running := ctl.JobsInState(Running)
		for _, jid := range running {
			ctl.SetYield(jid, 0)
		}
		y := 1 / math.Max(1, ctl.MaxCPULoad())
		for _, jid := range running {
			ctl.SetYield(jid, y)
		}
		check(ctl)
		if len(ctl.ActiveJobs()) > 0 {
			ctl.SetTimer(ctl.Now()+7, 0)
		}
	}
	return &script{
		onArrival:    func(ctl *Controller, jid int) { event(ctl) },
		onCompletion: func(ctl *Controller, jid int) { event(ctl) },
		onTimer:      func(ctl *Controller, tag int64) { event(ctl) },
	}, &checks
}

// TestNodeIndexMatchesFreshBuild is the differential check of the lazily
// synced node index: on random d=2 and d=3 heterogeneous clusters, random
// Start/Pause/Resume/Migrate sequences and the completions they lead to,
// the index must answer exactly like an index built from scratch on the
// live per-node values whenever it is read.
func TestNodeIndexMatchesFreshBuild(t *testing.T) {
	caps := []float64{0.5, 1, 2}
	for _, d := range []int{2, 3} {
		for seed := int64(1); seed <= 12; seed++ {
			r := rand.New(rand.NewSource(seed*10 + int64(d)))
			n := 6 + r.Intn(10)
			specs := make([]cluster.NodeSpec, n)
			for i := range specs {
				specs[i] = cluster.Spec(caps[r.Intn(3)], caps[r.Intn(3)])
				if d == 3 {
					// Every other node carries GPUs, so a job's tasks
					// always have at least n/2 hosts.
					specs[i] = cluster.Spec(specs[i].CPUCap(), specs[i].MemCap(), float64(2*(i%2)))
				}
			}
			jobs := make([]workload.Job, 30)
			submit := 0.0
			for i := range jobs {
				submit += float64(r.Intn(8))
				jobs[i] = workload.Job{
					ID: i, Submit: submit, Tasks: 1 + r.Intn(3),
					CPUNeed: 0.1 + 0.9*r.Float64(), MemReq: 0.05 + 0.45*r.Float64(),
					ExecTime: float64(5 + r.Intn(60)),
				}
				if d == 3 && r.Intn(2) == 0 {
					jobs[i].Extra = []float64{0.5 + 0.5*r.Float64()}
				}
			}
			tr := &workload.Trace{Name: "index-sync", Nodes: n, NodeMemGB: 8, Jobs: jobs}
			where := fmt.Sprintf("d=%d seed %d", d, seed)
			s, checks := randomOps(t, r, where)
			// The invariant sweep syncs the index after every event; half
			// the runs go without it, so stale marks also span events.
			simulator, err := New(Config{Trace: tr, Cluster: cluster.New(specs), MaxSimTime: 1e7,
				CheckInvariants: seed%2 == 0}, s)
			if err != nil {
				t.Fatal(err)
			}
			res, err := simulator.Run()
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if len(res.Jobs) != len(jobs) {
				t.Fatalf("%s: %d of %d jobs finished", where, len(res.Jobs), len(jobs))
			}
			if *checks < 100 {
				t.Fatalf("%s: only %d index checks", where, *checks)
			}
		}
	}
}
