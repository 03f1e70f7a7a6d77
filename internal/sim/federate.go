package sim

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/floats"
	"repro/internal/workload"
)

// This file is the simulator's federation surface: the read accessors a
// dispatch layer needs to route jobs across several simulators advancing
// under one external clock (internal/federation), and the direct-admission
// hook that hands a routed job to its destination simulator. Everything
// here composes with the step API (Start / HasPendingEvents /
// PeekNextEventTime / ProcessNextEvent / Finalize); none of it perturbs a
// conventional Run.

// Now returns the simulator's current clock in simulated seconds. Before
// the first processed event it is 0.
func (s *Simulator) Now() float64 { return s.now }

// JobsInSystem returns the number of jobs that have arrived by the
// simulator's clock and not yet completed (pending + running + paused). It
// is the count scheduler timing samples and observers report.
func (s *Simulator) JobsInSystem() int { return s.JobsInSystemAt(s.now) }

// JobsInSystemAt returns the number of unfinished jobs submitted at or
// before t. Admitted jobs submitted after t — the source's one-job
// lookahead, or jobs InjectJob delivered ahead of the clock — do not
// count. A dispatcher samples it at the arriving job's instant, so jobs
// routed earlier in a burst of coincident arrivals count as queued even
// while the member's clock lags behind them.
func (s *Simulator) JobsInSystemAt(t float64) int {
	// The arrival FIFO is in submission order, so the admitted jobs that
	// arrive after t are its suffix.
	fifo := s.arrFIFO
	arrived := sort.Search(len(fifo), func(i int) bool { return s.jobs[fifo[i]].job.Submit > t })
	return s.remainingJobs - (len(fifo) - arrived)
}

// CanAdmit reports whether job j could ever be admitted to this simulator's
// cluster: it runs the exact per-job admission checks —
// workload validation against the cluster size, per-dimension
// unschedulability, aggregate rigid capacity, and the scheduler's own
// CapacityChecker veto — without admitting anything. A nil return means an
// InjectJob of the same job cannot fail these checks (it may still fail the
// nondecreasing-submission contract).
func (s *Simulator) CanAdmit(j workload.Job) error {
	if err := j.Validate(s.cl.N()); err != nil {
		return err
	}
	return s.checkSchedulable(j)
}

// FreeTaskSlots returns how many of job j's identical tasks the cluster
// could host right now on its unallocated rigid capacity (memory and any
// further rigid dimensions), capped at the job's task count. It counts with
// cluster.Slots on free rather than total capacity, so a cluster
// whose memory is fully committed reports 0 even when the job is statically
// schedulable — the "is there room right now" signal behind cost-aware
// cloud bursting. CPU is fluid (jobs share it through yields) and never
// constrains the count.
func (s *Simulator) FreeTaskSlots(j workload.Job) int {
	return cluster.Slots(s.cl.N(), j.Tasks, cluster.DimMem, s.cl.D(), j.Demand,
		func(node, k int) float64 { return s.freeRigid[k-1][node] })
}

// InjectJob admits a job directly into the simulator, exactly as if its
// source had produced it: the job is validated, capacity-checked, given
// the next jid and queued for its arrival hook (arrivals outrank
// coincident queue events, preserving the canonical event order). It is
// the admission path of the federation layer, whose dispatcher — not a
// per-simulator source — decides which simulator each arriving job
// enters; such simulators are built over a trace with no jobs. Jobs must
// be injected in nondecreasing submission order per simulator (after any
// the source produced), and never behind the simulator's clock; both
// violations are reported as errors.
func (s *Simulator) InjectJob(j workload.Job) error {
	// Start first, so the scheduler's Init hook always runs before the
	// first injected job is admitted.
	s.Start()
	if j.Submit < s.now-floats.Eps {
		return fmt.Errorf("sim: injected job %d submitted at %.6f behind the clock %.6f", j.ID, j.Submit, s.now)
	}
	return s.admit(j)
}

// StepUntil processes pending events whose timestamps are strictly before
// horizon, up to max of them, and returns how many ran. Events at or after
// the horizon stay queued — the conservative-lookahead contract of the
// parallel federation loop, where the horizon is the next arrival instant
// and ties defer to the arrival. A return below max means no further event
// lies before the horizon; a return of exactly max means the caller should
// call again (the chunking lets it check for cancellation between chunks).
func (s *Simulator) StepUntil(horizon float64, max int) (int, error) {
	for n := 0; ; n++ {
		if n >= max {
			return n, nil
		}
		t, ok := s.PeekNextEventTime()
		if !ok || t >= horizon {
			return n, nil
		}
		if err := s.ProcessNextEvent(); err != nil {
			return n, err
		}
	}
}
