package federation

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/workload"
)

// ClusterView is the dispatcher's snapshot of one member cluster at the
// instant a job arrives at the federation. Views are recomputed for every
// arrival from live simulator state, always in member order, so any
// deterministic policy over them yields a deterministic routing.
type ClusterView struct {
	// Index is the member's position in the federation; Dispatch returns
	// one of these.
	Index int
	// Name is the member's display name.
	Name string
	// Nodes is the member's node count.
	Nodes int
	// MeanCost is the mean node cost rate of the member's inventory
	// (price units per node-second; 0 on unpriced mixes).
	MeanCost float64
	// Priced reports whether any node of the member carries a nonzero
	// cost rate.
	Priced bool
	// JobsInSystem is the member's number of unfinished jobs submitted at
	// or before the arriving job, including those routed to it earlier at
	// the same instant — the queue-depth signal.
	JobsInSystem int
	// CanRun reports whether the member could ever admit the arriving
	// job (cluster-size, per-dimension and aggregate-capacity checks).
	// Dispatching to a member with CanRun false fails the run.
	CanRun bool
	// FreeSlots is how many of the job's tasks the member could host on
	// currently unallocated rigid capacity, capped at the task count; 0
	// when CanRun is false. FreeSlots == Tasks means the job fits without
	// waiting — the bursting signal.
	FreeSlots int
	// Dispatched is how many jobs this federation has routed to the
	// member so far.
	Dispatched int
}

// Dispatcher decides which member cluster each arriving job enters. It is
// consulted once per arrival, in global submission order, with one view
// per member; it returns the chosen member index, or a negative value when
// no member can take the job (which fails the run with a descriptive
// error). Implementations may keep state (e.g. a round-robin cursor) —
// each Federation owns a fresh instance — but must be deterministic
// functions of their state and the views.
type Dispatcher interface {
	Name() string
	Dispatch(j workload.Job, clusters []ClusterView) int
}

// StatelessDispatcher is an optional capability a Dispatcher can declare:
// Stateless() returning true promises that Dispatch never reads the
// dynamic view fields (JobsInSystem, FreeSlots, Dispatched) — only the
// configuration-derived ones (Index, Name, Nodes, MeanCost, Priced, and
// CanRun, which depends on the member's inventory and the job alone) and
// the dispatcher's own internal state. The federation loop exploits the
// promise by routing whole batches of consecutive arrivals ahead of the
// members, extending the lookahead horizon across many dispatch points
// instead of barriering on every one. A policy that declared
// statelessness while reading dynamic fields would route later arrivals
// of a batch on views sampled before their own instant; policies that
// sample live state (queuedepth, costaware) must not implement it, and
// keep per-arrival barriers.
type StatelessDispatcher interface {
	Dispatcher
	Stateless() bool
}

// Factory constructs a fresh Dispatcher. Each federation gets its own
// instance, so policy state is never shared between runs.
type Factory func() Dispatcher

// DefaultDispatcher is the policy ByName resolves the empty name to.
const DefaultDispatcher = "roundrobin"

var (
	regMu      sync.RWMutex
	dispatchFs = map[string]Factory{}
)

func init() {
	for name, f := range map[string]Factory{
		"roundrobin": func() Dispatcher { return &RoundRobin{} },
		"queuedepth": func() Dispatcher { return QueueDepth{} },
		"costaware":  func() Dispatcher { return CostAware{} },
	} {
		if err := Register(name, f); err != nil {
			panic(err)
		}
	}
}

// Register adds a dispatch policy under a unique name, making it available
// to ByName, the campaign dispatcher axis and the CLIs' -dispatch flag.
func Register(name string, f Factory) error {
	if name == "" {
		return fmt.Errorf("federation: empty dispatcher name")
	}
	if f == nil {
		return fmt.Errorf("federation: nil factory for dispatcher %q", name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := dispatchFs[name]; dup {
		return fmt.Errorf("federation: dispatcher %q already registered", name)
	}
	dispatchFs[name] = f
	return nil
}

// Known reports whether name denotes a registered dispatcher ("" counts as
// the default).
func Known(name string) bool {
	if name == "" {
		return true
	}
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := dispatchFs[name]
	return ok
}

// ByName returns a fresh instance of the named dispatch policy; the empty
// name resolves to DefaultDispatcher.
func ByName(name string) (Dispatcher, error) {
	if name == "" {
		name = DefaultDispatcher
	}
	regMu.RLock()
	f, ok := dispatchFs[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("federation: unknown dispatcher %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names returns the registered dispatcher names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(dispatchFs))
	for name := range dispatchFs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RoundRobin cycles arrivals across the members that can run each job,
// skipping infeasible ones without losing its place.
type RoundRobin struct{ next int }

// Name implements Dispatcher.
func (d *RoundRobin) Name() string { return "roundrobin" }

// Stateless implements StatelessDispatcher: the cursor walks CanRun flags
// only, never dynamic member state, so arrivals can be routed arbitrarily
// far ahead of the members.
func (d *RoundRobin) Stateless() bool { return true }

// Dispatch implements Dispatcher.
func (d *RoundRobin) Dispatch(_ workload.Job, clusters []ClusterView) int {
	n := len(clusters)
	for k := 0; k < n; k++ {
		i := (d.next + k) % n
		if clusters[i].CanRun {
			d.next = (i + 1) % n
			return i
		}
	}
	return -1
}

// QueueDepth routes each job to the feasible member with the fewest jobs
// in system (ties to the lowest member index) — the classic
// join-the-shortest-queue policy.
type QueueDepth struct{}

// Name implements Dispatcher.
func (QueueDepth) Name() string { return "queuedepth" }

// Dispatch implements Dispatcher.
func (QueueDepth) Dispatch(_ workload.Job, clusters []ClusterView) int {
	best := -1
	for i, v := range clusters {
		if v.CanRun && (best < 0 || v.JobsInSystem < clusters[best].JobsInSystem) {
			best = i
		}
	}
	return best
}

// CostAware implements cloud bursting over priced inventories: each job
// goes to the cheapest member (lowest mean node cost rate, reusing
// cluster.NodeSpec.Cost; ties to the lowest index) that can host every
// task on free rigid capacity right now. When no member has room, the job
// queues on the cheapest feasible member instead — an on-prem mix at cost
// 0 therefore absorbs jobs until it is full, overflow bursts to the priced
// remote, and the backlog drains on-prem once the remote would also queue.
type CostAware struct{}

// Name implements Dispatcher.
func (CostAware) Name() string { return "costaware" }

// Dispatch implements Dispatcher.
func (CostAware) Dispatch(j workload.Job, clusters []ClusterView) int {
	cheapest := func(fits func(ClusterView) bool) int {
		best := -1
		for i, v := range clusters {
			if v.CanRun && fits(v) && (best < 0 || v.MeanCost < clusters[best].MeanCost) {
				best = i
			}
		}
		return best
	}
	if i := cheapest(func(v ClusterView) bool { return v.FreeSlots >= j.Tasks }); i >= 0 {
		return i
	}
	return cheapest(func(ClusterView) bool { return true })
}
