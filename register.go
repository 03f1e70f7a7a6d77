package dfrs

import (
	"repro/internal/sched"
	"repro/internal/sim"
)

// Scheduler is the algorithm interface the simulator drives: one hook per
// simulation event (Init, OnArrival, OnCompletion, OnTimer), each
// inspecting and mutating cluster state through the Controller. Implement
// it to bring an out-of-tree scheduling algorithm to Run and Campaign via
// RegisterAlgorithm; the nine paper algorithms are implementations of the
// same interface and register themselves the same way.
type Scheduler = sim.Scheduler

// Controller is the interface a Scheduler uses to inspect and mutate
// cluster state: job snapshots, per-node loads and capacities, and the
// Section II-B1 operations (Start, Pause, Resume, Migrate, SetYield,
// SetTimer).
//
// A jid exists only from the job's submission until its completion hook
// returns. Jobs are admitted lazily, so NumJobs counts the jids issued so
// far rather than the trace length; a completed job's record is recycled
// after its OnCompletion hook, so its jid must not be queried later.
// Controller.Job panics on a jid that is not yet admitted or already
// forgotten.
type Controller = sim.Controller

// JobInfo is a read-only snapshot of one job's simulation state, as
// returned by Controller.Job.
type JobInfo = sim.JobInfo

// JobState is the lifecycle state of a job inside the simulator.
type JobState = sim.JobState

// Job lifecycle states.
const (
	// JobPending jobs have been submitted and hold no resources.
	JobPending = sim.Pending
	// JobRunning jobs hold nodes and progress at their yield.
	JobRunning = sim.Running
	// JobPaused jobs were preempted and hold no resources.
	JobPaused = sim.Paused
	// JobDone jobs have completed. A completed job is forgotten once its
	// completion hook returns, so JobDone is visible only inside
	// OnCompletion: JobsInState(JobDone) is empty anywhere else.
	JobDone = sim.Done
)

// RegisterAlgorithm adds a named scheduler constructor to the registry
// shared by Run, Campaign and the CLIs, making out-of-tree schedulers
// first-class: once registered, the name is accepted everywhere a built-in
// algorithm name is and appears in Algorithms. The constructor must return
// a fresh instance on every call — schedulers carry per-run state. It
// returns an error for an empty name, a nil constructor, or a name that is
// already registered.
func RegisterAlgorithm(name string, constructor func() Scheduler) error {
	if constructor == nil {
		return sched.RegisterFactory(name, nil)
	}
	return sched.RegisterFactory(name, sched.Factory(constructor))
}
