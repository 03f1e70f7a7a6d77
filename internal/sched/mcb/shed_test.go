package mcb

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/floats"
	"repro/internal/lublin"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/vectorpack"
	"repro/internal/workload"
)

// TestShedCountersPinned pins the shed loop's work on a memory-bound Lublin
// trace (128 nodes, 300 jobs, load 0.9), so a change in how many candidate
// sets reach the allocator shows up as a count, free of timing noise.
// Solves+BoundSkips is what one-at-a-time shedding passed to the allocator:
// about 26 and 38 sets per reschedule here, against 2 and 1.6 solves.
func TestShedCountersPinned(t *testing.T) {
	tr, err := lublin.GenerateTrace(rng.New(7), lublin.DefaultParams(128), 300, "shed-counters")
	if err != nil {
		t.Fatal(err)
	}
	if tr, err = tr.ScaleToLoad(0.9); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		opt                                     Options
		reschedules, solves, boundSkips, resums int
	}{
		{Options{}, 598, 1169, 14255, 0},
		{Options{Period: DefaultPeriod, Stretch: true}, 936, 1467, 33709, 2},
	}
	for _, tc := range cases {
		s := New(tc.opt)
		simulator, err := sim.New(sim.Config{Trace: tr, Penalty: 300}, s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := simulator.Run(); err != nil {
			t.Fatal(err)
		}
		got := [4]int{s.Reschedules, s.Solves, s.BoundSkips, s.bound.Resums}
		want := [4]int{tc.reschedules, tc.solves, tc.boundSkips, tc.resums}
		if got != want {
			t.Errorf("%s: reschedules, solves, bound skips, re-sums = %v, want %v", s.Name(), got, want)
		}
	}
}

// defCheck wraps a DYNMCB8 scheduler and, at every global repack, checks
// the outcome against the shed loop's definition.
type defCheck struct {
	*Scheduler
	t *testing.T
	// Repacks that had to shed, and among them those whose removal order
	// holds a never-run job (+Inf priority), two jobs tied on a finite
	// priority, and two tied on priority and memory footprint.
	events, infs, prioTies, memTies int
	tie                             [3]bool // the current repack's kinds of tie
}

func (w *defCheck) OnArrival(ctl *sim.Controller, jid int) {
	if w.opt.Period > 0 {
		w.Scheduler.OnArrival(ctl, jid)
		return
	}
	w.check(ctl, func() { w.Scheduler.OnArrival(ctl, jid) })
}

func (w *defCheck) OnCompletion(ctl *sim.Controller, jid int) {
	if w.opt.Period > 0 {
		w.Scheduler.OnCompletion(ctl, jid)
		return
	}
	w.check(ctl, func() { w.Scheduler.OnCompletion(ctl, jid) })
}

func (w *defCheck) OnTimer(ctl *sim.Controller, tag int64) {
	if tag != tickTag {
		w.Scheduler.OnTimer(ctl, tag)
		return
	}
	w.check(ctl, func() { w.Scheduler.OnTimer(ctl, tag) })
}

// definition returns what a repack at the controller's current state must
// choose: drop jobs one at a time in removal order (ascending priority,
// descending Tasks·MemReq, ascending jid) until the allocator accepts the
// remaining set, each set solved from scratch by the public core calls.
// tried counts the non-empty sets considered; ruledOut, those the rigid
// capacity bound rejects.
func (w *defCheck) definition(ctl *sim.Controller) (set []int, alloc *core.Allocation, tried, ruledOut int) {
	now, c := ctl.Now(), ctl.Cluster()
	active := ctl.ActiveJobs()
	prio := func(jid int) float64 { return w.prio(now-ctl.JobRef(jid).Submit, ctl.VirtualTime(jid)) }
	mem := func(jid int) float64 { j := ctl.JobRef(jid); return float64(j.Tasks) * j.MemReq }
	order := slices.Clone(active)
	sort.Slice(order, func(a, b int) bool {
		ja, jb := order[a], order[b]
		if pa, pb := prio(ja), prio(jb); pa != pb {
			return pa < pb
		}
		if ma, mb := mem(ja), mem(jb); ma != mb {
			return ma > mb
		}
		return ja < jb
	})
	w.countTies(order, prio, mem)
	for m := range order {
		set = set[:0]
		for _, jid := range active {
			if !slices.Contains(order[:m], jid) {
				set = append(set, jid)
			}
		}
		specs := make([]core.JobSpec, len(set))
		totals := make([]float64, c.D())
		for i, jid := range set {
			specs[i] = sched.SpecOf(ctl, jid)
			core.AddRigidDemand(totals, &specs[i])
		}
		tried++
		over := core.RigidOverflow(totals, core.AggregateCaps(nil, c))
		if over {
			ruledOut++
		}
		var ok bool
		if w.opt.Stretch {
			states := make([]core.StretchState, len(set))
			for i, jid := range set {
				states[i] = core.StretchState{JobSpec: specs[i], FlowTime: now - ctl.JobRef(jid).Submit, VirtualTime: ctl.VirtualTime(jid)}
			}
			alloc, ok = core.MinEstimatedStretch(states, c, vectorpack.MCB8{}, w.opt.Period)
		} else {
			alloc, ok = core.MaxMinYield(specs, c, vectorpack.MCB8{})
		}
		if !ok {
			continue
		}
		if over {
			w.t.Fatalf("t=%v: the allocator accepted %v, which the rigid bound rules out", now, set)
		}
		core.ImproveAverageYield(specs, alloc, c, nil)
		return set, alloc, tried, ruledOut
	}
	return nil, core.NewAllocation(), tried, ruledOut
}

// countTies records which kinds of ties the removal order of a shedding
// repack holds; it is called before the chain is walked, so it counts
// every repack and check keeps only the shedding ones.
func (w *defCheck) countTies(order []int, prio, mem func(int) float64) {
	w.tie = [3]bool{}
	for i, jid := range order {
		if math.IsInf(prio(jid), 1) {
			w.tie[0] = true
		}
		if i == 0 || prio(jid) != prio(order[i-1]) {
			continue
		}
		if !math.IsInf(prio(jid), 1) {
			w.tie[1] = true
		}
		if mem(jid) == mem(order[i-1]) {
			w.tie[2] = true
		}
	}
}

func (w *defCheck) check(ctl *sim.Controller, hook func()) {
	set, alloc, tried, ruledOut := w.definition(ctl)
	if tried > 1 {
		w.events++
		for i, n := range []*int{&w.infs, &w.prioTies, &w.memTies} {
			if w.tie[i] {
				*n++
			}
		}
	}
	solves, skips := w.Solves, w.BoundSkips
	hook()
	now := ctl.Now()
	if got := w.Solves - solves + w.BoundSkips - skips; got != tried {
		w.t.Fatalf("t=%v: %d candidate sets evaluated, want %d", now, got, tried)
	}
	if got := w.BoundSkips - skips; got != ruledOut {
		w.t.Fatalf("t=%v: %d sets skipped on the bound, want %d", now, got, ruledOut)
	}
	if running := ctl.JobsInState(sim.Running); !slices.Equal(running, set) && len(running)+len(set) > 0 {
		w.t.Fatalf("t=%v: running %v, want %v", now, running, set)
	}
	for _, jid := range set {
		if !sim.SameMultiset(ctl.JobNodes(jid), alloc.NodesOf[jid]) {
			w.t.Fatalf("t=%v: job %d on %v, want %v", now, jid, ctl.JobNodes(jid), alloc.NodesOf[jid])
		}
		if got, want := ctl.Job(jid).Yield, floats.Clamp01(alloc.YieldOf[jid]); got != want {
			w.t.Fatalf("t=%v: job %d yield %v, want %v", now, jid, got, want)
		}
	}
}

// quantizedPriority is PriorityLinear rounded down to a power of two, so
// many running jobs tie on priority.
func quantizedPriority(flow, vt float64) float64 {
	p := core.PriorityLinear(flow, vt)
	if math.IsInf(p, 1) {
		return p
	}
	return math.Exp2(math.Floor(math.Log2(p)))
}

// randomMemoryBound draws a bursty trace whose memory demand far exceeds
// the cluster's, on d = 2 (unequal memory) or d = 3 (GPU demand in Extra).
// Tasks and memory come from small sets, so footprints tie; jobs of one
// burst arrive together and tie at +Inf priority until they first run.
func randomMemoryBound(r *rand.Rand, d int) (*workload.Trace, *cluster.Cluster) {
	nodes := make([]cluster.NodeSpec, 4)
	for i := range nodes {
		nodes[i] = cluster.Spec(1, []float64{1, 1, 0.5, 2}[i])
		if d == 3 {
			nodes[i] = cluster.Spec(1, 1, []float64{1, 0.5, 1, 0}[i])
		}
	}
	jobs := make([]workload.Job, 12+r.Intn(14))
	for i := range jobs {
		jobs[i] = workload.Job{
			ID:       i,
			Submit:   float64(200 * r.Intn(6)),
			Tasks:    1 + r.Intn(3),
			CPUNeed:  []float64{0.25, 0.5, 1}[r.Intn(3)],
			MemReq:   []float64{0.2, 0.3, 0.5, 0.6}[r.Intn(4)],
			ExecTime: float64(100 + r.Intn(1900)),
		}
		if d == 3 && r.Intn(2) == 0 {
			jobs[i].Extra = []float64{[]float64{0.25, 0.5}[r.Intn(2)]}
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Submit < jobs[b].Submit })
	for i := range jobs {
		jobs[i].ID = i
	}
	return &workload.Trace{Name: "shed-prop", Nodes: len(nodes), NodeMemGB: 8, Jobs: jobs}, cluster.New(nodes)
}

// TestShedLoopMatchesDefinition runs random memory-bound instances under
// DYNMCB8, DYNMCB8-STRETCH-PER and two priority variants, and checks every
// repack against the definition: the first set in the prefix-removal chain
// the allocator accepts, with the allocator called on no set the rigid
// bound rules out.
func TestShedLoopMatchesDefinition(t *testing.T) {
	variants := []Options{
		{},
		{Period: DefaultPeriod, Stretch: true},
		{Priority: core.PriorityLinear},
		{Priority: quantizedPriority},
	}
	r := rand.New(rand.NewSource(16))
	var shed, infs, prioTies, memTies int
	for trial := 0; trial < 40; trial++ {
		tr, c := randomMemoryBound(r, 2+trial%2)
		for _, opt := range variants {
			w := &defCheck{Scheduler: New(opt), t: t}
			simulator, err := sim.New(sim.Config{Trace: tr, Cluster: c, CheckInvariants: true}, w)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := simulator.Run(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, w.Name(), err)
			}
			shed += w.events
			infs += w.infs
			prioTies += w.prioTies
			memTies += w.memTies
		}
	}
	t.Logf("%d shedding repacks: %d with +Inf priorities, %d with tied finite priorities, %d tied on priority and memory", shed, infs, prioTies, memTies)
	if shed < 100 || infs == 0 || prioTies == 0 || memTies == 0 {
		t.Error("the instances do not cover memory-bound repacks with every kind of tie")
	}
}
