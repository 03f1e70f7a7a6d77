// Package mcb implements the paper's global DFRS algorithms built on
// multi-capacity bin packing (Section III-B):
//
//   - DYNMCB8 repacks all jobs in the system at every event, maximizing the
//     minimum yield by binary search over MCB8 feasibility;
//   - DYNMCB8-PER-T does the same but only every T seconds, queueing
//     arrivals until the next scheduling event;
//   - DYNMCB8-ASAP-PER-T additionally starts arrivals immediately by greedy
//     placement when memory allows;
//   - DYNMCB8-STRETCH-PER-T replaces min-yield maximization with
//     minimization of the estimated maximum stretch at the next event.
//
// Whenever no allocation exists however small the yield (a memory-bound
// instance), the job with the smallest priority is removed from
// consideration — paused if it was running — and the packing is retried.
// The removal keys are fixed within one event, so the removal order is
// sorted once, and the candidate sets form a nested chain. The shed loop
// walks that chain with running sums of the rigid demand (memory, GPU, ...)
// and jumps over every set whose demand exceeds the cluster's aggregate
// capacity: the allocator would reject such a set before packing anything,
// so skipping it changes no result, only the number of allocator calls.
//
// The package also provides the fairness extension sketched in the paper's
// conclusion (Section VII): long-running jobs are excluded from the
// average-yield improvement so that leftover CPU flows to short jobs.
package mcb

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/vectorpack"
)

// DefaultPeriod is the paper's scheduling period for the periodic variants
// (10 minutes; Section III-B reports T=600 balances overhead and
// reactivity against T=60 and T=3600).
const DefaultPeriod = 600.0

// tickTag is the timer tag used for periodic scheduling events.
const tickTag int64 = -1

func init() {
	sched.Register("dynmcb8", func() sim.Scheduler { return New(Options{}) })
	sched.Register("dynmcb8-per", func() sim.Scheduler {
		return New(Options{Period: DefaultPeriod})
	})
	sched.Register("dynmcb8-asap-per", func() sim.Scheduler {
		return New(Options{Period: DefaultPeriod, ASAP: true})
	})
	sched.Register("dynmcb8-stretch-per", func() sim.Scheduler {
		return New(Options{Period: DefaultPeriod, Stretch: true})
	})
	// A4 extension: periodic variant with the fairness decay of
	// Section VII's future-work discussion.
	sched.Register("dynmcb8-per-fair", func() sim.Scheduler {
		return New(Options{Period: DefaultPeriod, FairnessAge: 2 * 3600})
	})
}

// Options selects a DYNMCB8 variant.
type Options struct {
	// Period is the scheduling period in seconds; 0 means schedule at
	// every event (plain DYNMCB8).
	Period float64
	// ASAP starts arrivals immediately via greedy placement when memory
	// allows instead of queueing them until the next period.
	ASAP bool
	// Stretch switches the optimization from maximizing the minimum yield
	// to minimizing the estimated maximum stretch.
	Stretch bool
	// Packer selects the bin-packing heuristic; nil means MCB8. Used by
	// ablation A3.
	Packer vectorpack.Packer
	// Priority selects the removal priority function; nil means
	// core.Priority.
	Priority sched.PriorityFunc
	// FairnessAge, when positive, enables the Section VII extension: jobs
	// with more than this much virtual time are excluded from the
	// average-yield improvement heuristic, so spare CPU is reserved for
	// young jobs.
	FairnessAge float64
	// NameOverride sets a custom Name (for ablation variants).
	NameOverride string
}

// Scheduler is the DYNMCB8 family implementation. The trailing fields are
// scratch buffers reused across scheduling events — repacks run at every
// event (or tick), so per-event allocations dominate without them.
type Scheduler struct {
	opt    Options
	packer vectorpack.Packer
	prio   sched.PriorityFunc
	name   string

	// Counters for tests and benchmarks: global repacks over a non-empty
	// system, allocator calls, and candidate sets the rigid capacity bound
	// ruled out without one. Solves+BoundSkips is the number of candidate
	// sets one-at-a-time shedding would have passed to the allocator.
	Reschedules, Solves, BoundSkips int

	ws      core.Workspace
	bound   core.ShedBound
	imp     core.ImproveScratch
	states  []core.StretchState
	specs   []core.JobSpec // parallel to cands
	cands   []int
	dropped []bool
	order   []int
	remap   []int
	runBuf  []int
	yields  []float64
	prioBuf []float64
	memBuf  []float64
	greedy  sched.YieldScratch
}

// New builds a DYNMCB8-family scheduler from options.
func New(opt Options) *Scheduler {
	s := &Scheduler{opt: opt, packer: opt.Packer, prio: opt.Priority}
	if s.packer == nil {
		s.packer = vectorpack.MCB8{}
	}
	if s.prio == nil {
		s.prio = core.Priority
	}
	s.name = opt.NameOverride
	if s.name == "" {
		switch {
		case opt.Period <= 0:
			s.name = "dynmcb8"
		case opt.Stretch:
			s.name = fmt.Sprintf("dynmcb8-stretch-per-%.0f", opt.Period)
		case opt.ASAP:
			s.name = fmt.Sprintf("dynmcb8-asap-per-%.0f", opt.Period)
		case opt.FairnessAge > 0:
			s.name = fmt.Sprintf("dynmcb8-per-fair-%.0f", opt.Period)
		default:
			s.name = fmt.Sprintf("dynmcb8-per-%.0f", opt.Period)
		}
	}
	return s
}

// Name implements sim.Scheduler.
func (s *Scheduler) Name() string { return s.name }

// Init implements sim.Scheduler: periodic variants arm the first tick, and
// the run's placement objective (if any) is threaded into the packing
// kernel so repacks fill bins in objective order (e.g. cheap nodes first
// under the cost objective). Scheduler instances are per-run, so the
// packer swap never leaks across simulations.
func (s *Scheduler) Init(ctl *sim.Controller) {
	if obj := ctl.Objective(); obj != nil {
		if oa, ok := s.packer.(vectorpack.ObjectiveAware); ok {
			s.packer = oa.WithObjective(obj)
		}
	}
	if s.opt.Period > 0 {
		ctl.SetTimer(ctl.Now()+s.opt.Period, tickTag)
	}
}

// OnArrival implements sim.Scheduler.
func (s *Scheduler) OnArrival(ctl *sim.Controller, jid int) {
	if s.opt.Period <= 0 {
		s.reschedule(ctl)
		return
	}
	if s.opt.ASAP {
		if nodes, ok := sched.GreedyPlace(ctl, jid); ok {
			ctl.Start(jid, nodes)
			s.greedy.Apply(ctl)
		}
	}
	// Otherwise the job waits in the queue until the next tick.
}

// OnCompletion implements sim.Scheduler.
func (s *Scheduler) OnCompletion(ctl *sim.Controller, _ int) {
	if s.opt.Period <= 0 {
		s.reschedule(ctl)
	}
	// Periodic variants let freed resources sit until the next tick
	// (Section III-B); the ASAP variant only accelerates *arrivals*.
}

// OnTimer implements sim.Scheduler: a periodic scheduling event.
func (s *Scheduler) OnTimer(ctl *sim.Controller, tag int64) {
	if tag != tickTag {
		return
	}
	s.reschedule(ctl)
	ctl.SetTimer(ctl.Now()+s.opt.Period, tickTag)
}

// reschedule runs the global repack over every job in the system. The
// candidate set is the whole system; while the allocator finds no
// allocation, however small the yield, it drops the next job in the
// removal order — ascending priority, ties toward the largest memory
// footprint (fastest route back to feasibility), then by jid — and
// retries. Removal keys depend only on the event time, so the order is
// sorted once per event. Each candidate set is first checked against the
// allocator's rigid-dimension capacity bound (core.ShedBound); a set the
// bound rules out would fail the allocator's first probe before any
// packing, so the loop jumps over it without calling the allocator.
func (s *Scheduler) reschedule(ctl *sim.Controller) {
	now := ctl.Now()
	s.cands = ctl.AppendActiveJobs(s.cands[:0])
	all := s.cands
	if len(all) == 0 {
		return
	}
	s.Reschedules++
	specs := s.specs[:0]
	for _, jid := range all {
		specs = append(specs, sched.SpecOf(ctl, jid))
	}
	s.specs = specs
	s.bound.Reset(specs, ctl.Cluster())
	if s.bound.Fits(specs, nil) {
		if alloc, ok := s.solve(ctl, all, specs, now); ok {
			s.apply(ctl, all, alloc)
			return
		}
	} else {
		s.BoundSkips++
	}
	// Memory-bound: walk the chain of candidate sets. Dropping the last
	// job leaves the empty set, which needs no solve.
	order := s.removalOrder(ctl, all, now)
	if cap(s.dropped) < len(all) {
		s.dropped = make([]bool, len(all))
	}
	dropped := s.dropped[:len(all)]
	clear(dropped)
	for m, di := range order[:len(order)-1] {
		dropped[di] = true
		s.bound.Drop(&specs[di])
		if !s.bound.Fits(specs, dropped) {
			s.BoundSkips++
			continue
		}
		// Later sets are subsets of this one, so the dropped jobs can go
		// for good; filtering keeps all ascending.
		all, specs = s.compact(all, specs, dropped, order[m+1:])
		dropped = dropped[:len(all)]
		if alloc, ok := s.solve(ctl, all, specs, now); ok {
			s.apply(ctl, all, alloc)
			return
		}
	}
	s.apply(ctl, nil, core.NewAllocation())
}

// compact filters the dropped jobs out of jids and the parallel specs in
// place, clears the marks, and renumbers the indices in rest (the removal
// order still to come) to the filtered positions.
func (s *Scheduler) compact(jids []int, specs []core.JobSpec, dropped []bool, rest []int) ([]int, []core.JobSpec) {
	if cap(s.remap) < len(jids) {
		s.remap = make([]int, len(jids))
	}
	remap := s.remap[:len(jids)]
	w := 0
	for i := range jids {
		remap[i] = w
		if !dropped[i] {
			jids[w], specs[w] = jids[i], specs[i]
			w++
		}
		dropped[i] = false
	}
	for j, i := range rest {
		rest[j] = remap[i]
	}
	return jids[:w], specs[:w]
}

// solve computes the optimal allocation for the given job set, whose specs
// are parallel to jids, under the variant's objective.
func (s *Scheduler) solve(ctl *sim.Controller, jids []int, specs []core.JobSpec, now float64) (*core.Allocation, bool) {
	s.Solves++
	c := ctl.Cluster()
	if s.opt.Stretch {
		states := s.states[:0]
		for i, jid := range jids {
			states = append(states, core.StretchState{
				JobSpec:     specs[i],
				FlowTime:    now - ctl.JobRef(jid).Submit,
				VirtualTime: ctl.VirtualTime(jid),
			})
		}
		s.states = states
		alloc, ok := s.ws.MinEstimatedStretch(states, c, s.packer, s.opt.Period)
		if !ok {
			return nil, false
		}
		// Leftover CPU goes out as in the min-yield variant: raising a
		// yield lowers the job's estimated stretch at the next event.
		s.imp.ImproveAverageYieldRanked(specs, alloc, c, nil, nil)
		return alloc, true
	}
	alloc, ok := s.ws.MaxMinYield(specs, c, s.packer)
	if !ok {
		return nil, false
	}
	var eligible func(core.JobSpec) bool
	if s.opt.FairnessAge > 0 {
		eligible = func(spec core.JobSpec) bool {
			return ctl.VirtualTime(spec.ID) <= s.opt.FairnessAge
		}
	}
	s.imp.ImproveAverageYieldRanked(specs, alloc, c, eligible, sched.ImproveRank(ctl, specs, alloc))
	return alloc, true
}

// removalOrder returns the indices into jids in removal order: ascending
// priority, then descending memory footprint (Tasks·MemReq), then
// ascending jid. Priorities must not be NaN.
func (s *Scheduler) removalOrder(ctl *sim.Controller, jids []int, now float64) []int {
	prios, mems, order := s.prioBuf[:0], s.memBuf[:0], s.order[:0]
	for i, jid := range jids {
		j := ctl.JobRef(jid)
		prios = append(prios, s.prio(now-j.Submit, ctl.VirtualTime(jid)))
		mems = append(mems, float64(j.Tasks)*j.MemReq)
		order = append(order, i)
	}
	s.prioBuf, s.memBuf, s.order = prios, mems, order
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case prios[a] != prios[b]:
			return cmp.Compare(prios[a], prios[b])
		case mems[a] != mems[b]:
			return cmp.Compare(mems[b], mems[a])
		}
		return jids[a] - jids[b]
	})
	return order
}

// apply transitions the cluster from its current allocation to alloc:
// running jobs that fell out of the set are paused; running jobs whose node
// multiset changed are paused and immediately resumed at the new location
// (the simulator reclassifies this as a migration); pending and paused jobs
// in the set are started/resumed; finally yields are applied through the
// two-phase update.
func (s *Scheduler) apply(ctl *sim.Controller, inSet []int, alloc *core.Allocation) {
	// inSet is ActiveJobs with the shed jobs filtered out, so it is sorted
	// ascending: membership is a binary search, no keep-map.
	inKeptSet := func(jid int) bool {
		i := sort.SearchInts(inSet, jid)
		return i < len(inSet) && inSet[i] == jid
	}
	// Phase 1: release everything that leaves or moves. Pausing mutates the
	// running set, so iterate a snapshot.
	s.runBuf = ctl.AppendJobsInState(s.runBuf[:0], sim.Running)
	for _, jid := range s.runBuf {
		if !inKeptSet(jid) {
			ctl.Pause(jid)
			continue
		}
		if !sim.SameMultiset(ctl.JobNodes(jid), alloc.NodesOf[jid]) {
			ctl.Pause(jid)
		}
	}
	// Phase 2: occupy new placements (deterministic ascending-jid order).
	s.yields = s.yields[:0]
	for _, jid := range inSet {
		nodes := alloc.NodesOf[jid]
		switch ctl.JobState(jid) {
		case sim.Pending:
			ctl.Start(jid, nodes)
		case sim.Paused:
			ctl.Resume(jid, nodes)
		case sim.Running:
			// Unchanged multiset; nothing to move.
		}
		s.yields = append(s.yields, alloc.YieldOf[jid])
	}
	sched.ApplyYieldsList(ctl, inSet, s.yields)
}
