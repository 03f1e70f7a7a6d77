package sim

import (
	"fmt"
	"sync"
	"time"
)

// Observer receives scheduling transitions as a simulation executes. Every
// transition is reported once, as an Event, by the simulator's one emit
// call, which also writes the Result.Timeline entry when
// Config.RecordTimeline is set. Submissions, starts, preemptions,
// migrations, completions and scheduler hook invocations reach a callback;
// yield changes, the end of a rescheduling freeze and the resume flag on a
// restart or migration reach only the timeline. A nil observer costs a nil
// check per transition, and hooks are then not timed. Observers are invoked
// synchronously from the simulation loop, in deterministic order for a
// deterministic (trace, algorithm, cluster, penalty) tuple; an observer
// that blocks stalls the simulation, so long-running consumers should hand
// events off (see the dfrs.Stream facade helper). To write one, pass a
// func(Event) as an ObserverFunc rather than implementing the six methods;
// Fanout combines several.
//
// All times are simulated seconds. Node slices are copies the observer may
// retain. Elapsed in SchedulerInvoked is wall-clock time and therefore the
// only nondeterministic quantity delivered through this interface.
type Observer interface {
	// JobSubmitted fires when job jid enters the system, before the
	// scheduler's OnArrival hook runs.
	JobSubmitted(now float64, jid int)
	// JobStarted fires when job jid is dispatched onto nodes (one entry
	// per task) — both the first start and every restart after a
	// preemption.
	JobStarted(now float64, jid int, nodes []int)
	// JobPreempted fires when job jid is paused and releases its nodes.
	// The stream reports raw transitions: a pause that a same-event
	// resume later refunds or reclassifies as a migration still appears
	// here, so counting JobPreempted events can exceed the run's
	// Table II preemption accounting (Result.PreemptionOps), which is
	// charged net of those refunds.
	JobPreempted(now float64, jid int)
	// JobMigrated fires when job jid moves to a new node multiset,
	// including a same-event pause+resume pair the simulator reclassifies
	// as one migration.
	JobMigrated(now float64, jid int, nodes []int)
	// JobCompleted fires after job jid finishes and releases its nodes.
	JobCompleted(now float64, jid int, turnaround float64)
	// SchedulerInvoked fires after every scheduler hook invocation with
	// the hook's name ("init", "arrival", "completion", "timer"), the
	// number of arrived, unfinished jobs in the system (JobsInSystem as
	// the hook ran), and the hook's wall-clock duration
	// (nondeterministic).
	SchedulerInvoked(now float64, hook string, jobsInSystem int, elapsed time.Duration)
}

// EventKind labels one Event delivered by an observer adapter.
type EventKind int

// Event kinds, in lifecycle order.
const (
	EvSubmitted EventKind = iota
	EvStarted
	EvPreempted
	EvMigrated
	EvCompleted
	EvSchedulerInvoked
	// evYielded is a yield change. It reaches Result.Timeline only; no
	// Observer callback carries it.
	evYielded
)

// String returns the lowercase kind name.
func (k EventKind) String() string {
	switch k {
	case EvSubmitted:
		return "submitted"
	case EvStarted:
		return "started"
	case EvPreempted:
		return "preempted"
	case EvMigrated:
		return "migrated"
	case EvCompleted:
		return "completed"
	case EvSchedulerInvoked:
		return "scheduler-invoked"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one reported transition: the value the simulator's emit builds
// at each transition site, and one observer callback flattened into a value
// (by ObserverFunc; Deliver turns it back into the callback). It is the
// unit of the streaming facade (dfrs.Stream) and of test assertions on
// event sequences. Fields beyond Kind/Time are populated per kind: JID and Nodes
// for job transitions, Turnaround for completions, Hook/JobsInSystem/
// Elapsed for scheduler invocations. Elapsed is wall-clock time; zero it
// before comparing sequences for determinism.
type Event struct {
	Kind         EventKind
	Time         float64
	JID          int
	Nodes        []int
	Turnaround   float64
	Hook         string
	JobsInSystem int
	Elapsed      time.Duration

	// Timeline detail that no Observer callback carries: the job's new
	// yield (evYielded), the end of its rescheduling freeze (resumes and
	// migrations) and whether a start or migration resumes a paused job.
	yield       float64
	frozenUntil float64
	resumed     bool
}

// String renders the event compactly for logs and live dashboards.
func (e Event) String() string {
	switch e.Kind {
	case EvCompleted:
		return fmt.Sprintf("t=%.1f job %d completed (turnaround %.1fs)", e.Time, e.JID, e.Turnaround)
	case EvStarted, EvMigrated:
		return fmt.Sprintf("t=%.1f job %d %s on %v", e.Time, e.JID, e.Kind, e.Nodes)
	case EvSchedulerInvoked:
		return fmt.Sprintf("t=%.1f scheduler %s (%d jobs in system, %v)", e.Time, e.Hook, e.JobsInSystem, e.Elapsed)
	default:
		return fmt.Sprintf("t=%.1f job %d %s", e.Time, e.JID, e.Kind)
	}
}

// Recorder is an Observer that collects every event in memory. It is safe
// for use from one simulation at a time (the simulator invokes observers
// synchronously); Events is additionally guarded so a recorder can be read
// while another goroutine runs the simulation.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// Events returns a copy of the recorded events in emission order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

func (r *Recorder) add(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// The Recorder's callbacks flatten through ObserverFunc, so both record
// the same Event.

// JobSubmitted implements Observer.
func (r *Recorder) JobSubmitted(now float64, jid int) { ObserverFunc(r.add).JobSubmitted(now, jid) }

// JobStarted implements Observer.
func (r *Recorder) JobStarted(now float64, jid int, nodes []int) {
	ObserverFunc(r.add).JobStarted(now, jid, nodes)
}

// JobPreempted implements Observer.
func (r *Recorder) JobPreempted(now float64, jid int) { ObserverFunc(r.add).JobPreempted(now, jid) }

// JobMigrated implements Observer.
func (r *Recorder) JobMigrated(now float64, jid int, nodes []int) {
	ObserverFunc(r.add).JobMigrated(now, jid, nodes)
}

// JobCompleted implements Observer.
func (r *Recorder) JobCompleted(now float64, jid int, turnaround float64) {
	ObserverFunc(r.add).JobCompleted(now, jid, turnaround)
}

// SchedulerInvoked implements Observer.
func (r *Recorder) SchedulerInvoked(now float64, hook string, jobsInSystem int, elapsed time.Duration) {
	ObserverFunc(r.add).SchedulerInvoked(now, hook, jobsInSystem, elapsed)
}

// ObserverFunc adapts a function of one Event to an Observer: each
// callback is flattened into the Event a Recorder would record and handed
// to f. It is the way to write an observer that handles every transition
// in one place (a channel bridge, a log line, a counter).
type ObserverFunc func(Event)

// JobSubmitted implements Observer.
func (f ObserverFunc) JobSubmitted(now float64, jid int) {
	f(Event{Kind: EvSubmitted, Time: now, JID: jid})
}

// JobStarted implements Observer.
func (f ObserverFunc) JobStarted(now float64, jid int, nodes []int) {
	f(Event{Kind: EvStarted, Time: now, JID: jid, Nodes: nodes})
}

// JobPreempted implements Observer.
func (f ObserverFunc) JobPreempted(now float64, jid int) {
	f(Event{Kind: EvPreempted, Time: now, JID: jid})
}

// JobMigrated implements Observer.
func (f ObserverFunc) JobMigrated(now float64, jid int, nodes []int) {
	f(Event{Kind: EvMigrated, Time: now, JID: jid, Nodes: nodes})
}

// JobCompleted implements Observer.
func (f ObserverFunc) JobCompleted(now float64, jid int, turnaround float64) {
	f(Event{Kind: EvCompleted, Time: now, JID: jid, Turnaround: turnaround})
}

// SchedulerInvoked implements Observer.
func (f ObserverFunc) SchedulerInvoked(now float64, hook string, jobsInSystem int, elapsed time.Duration) {
	f(Event{Kind: EvSchedulerInvoked, Time: now, Hook: hook, JobsInSystem: jobsInSystem, Elapsed: elapsed})
}

// Deliver is the inverse of ObserverFunc: it makes the callback on o that
// e was flattened from, with the same arguments. Yield changes have no
// callback and are dropped.
func (e Event) Deliver(o Observer) {
	switch e.Kind {
	case EvSubmitted:
		o.JobSubmitted(e.Time, e.JID)
	case EvStarted:
		o.JobStarted(e.Time, e.JID, e.Nodes)
	case EvPreempted:
		o.JobPreempted(e.Time, e.JID)
	case EvMigrated:
		o.JobMigrated(e.Time, e.JID, e.Nodes)
	case EvCompleted:
		o.JobCompleted(e.Time, e.JID, e.Turnaround)
	case EvSchedulerInvoked:
		o.SchedulerInvoked(e.Time, e.Hook, e.JobsInSystem, e.Elapsed)
	}
}

// emit is the simulator's one report of a transition at the current
// instant: the Result.Timeline entry when Config.RecordTimeline is set, and
// the Observer callback (with a copy of the node list) when an observer is
// attached.
func (s *Simulator) emit(e Event) {
	e.Time = s.now
	if s.cfg.RecordTimeline {
		if k, ok := e.timelineKind(); ok {
			s.result.Timeline = append(s.result.Timeline, TimelineEvent{
				Time: e.Time, JID: e.JID, Kind: k, Yield: e.yield, FrozenUntil: e.frozenUntil,
			})
		}
	}
	if s.obs == nil {
		return
	}
	if e.Nodes != nil {
		e.Nodes = append([]int(nil), e.Nodes...)
	}
	e.Deliver(s.obs)
}

// Fanout combines observers into one that forwards every callback to each
// of them in order: nil for none, the observer itself for one.
func Fanout(obs ...Observer) Observer {
	switch len(obs) {
	case 0:
		return nil
	case 1:
		return obs[0]
	}
	return ObserverFunc(func(e Event) {
		for _, o := range obs {
			e.Deliver(o)
		}
	})
}
