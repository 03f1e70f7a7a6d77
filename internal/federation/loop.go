package federation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/sim"
)

// This file is the federation loop: a conservative-lookahead (Chandy–Misra
// style) executor that advances all members between dispatch points.
// Members only interact at arrival instants, so every member event
// strictly before the next arrival is independent of the routing
// decision; the loop runs those events — inline at 1 worker, on a worker
// pool above — then barriers so the dispatcher samples member state at
// the arrival instant. The per-member event sequence does not depend on
// the worker count, which is what makes results byte-identical across
// worker counts (pinned by test).

const (
	// stepChunk bounds how many events a worker processes between
	// cancellation checks.
	stepChunk = 1024
	// dispatchBatch bounds how many arrivals a stateless dispatcher
	// routes ahead of the members between barriers — enough to amortize
	// the barrier, small enough to keep a streamed feed's read-ahead
	// memory bounded.
	dispatchBatch = 512
)

// errCancelled is the sentinel a worker returns when it observes context
// cancellation mid-round; the main loop converts it to the federation's
// standard cancellation error.
var errCancelled = errors.New("federation: cancelled")

// lockedObserver serializes one member observer behind the lock shared by
// every member's callbacks, so pooled rounds never run user callbacks
// concurrently. Per-member callback order is unchanged; interleaving
// across members is not deterministic.
func lockedObserver(mu *sync.Mutex, o sim.Observer) sim.Observer {
	return sim.ObserverFunc(func(e sim.Event) {
		mu.Lock()
		defer mu.Unlock()
		e.Deliver(o)
	})
}

// parTask asks a worker to advance one member: to the lookahead horizon
// (events strictly before it), or through its remaining jobs when the
// feed is exhausted (drain).
type parTask struct {
	member  int
	horizon float64
	drain   bool
}

// run is the loop behind Run. At 1 worker no goroutine is started.
func (f *Federation) run(ctx context.Context, workers int) (*Result, error) {
	done := ctx.Done()
	errs := make([]error, len(f.members))
	var (
		tasks chan parTask
		wg    sync.WaitGroup
	)
	if workers > 1 {
		tasks = make(chan parTask)
		var poolWG sync.WaitGroup
		poolWG.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer poolWG.Done()
				for t := range tasks {
					errs[t.member] = f.advanceMember(t.member, t.horizon, t.drain, done)
					wg.Done()
				}
			}()
		}
		defer func() {
			close(tasks)
			poolWG.Wait()
		}()
	}

	// round advances every eligible member and barriers. A member is
	// eligible when it has an event strictly before the horizon (or any
	// unfinished job, in a drain round); no other member can arm such an
	// event for it, so eligibility sampled at the barrier is exact. Errors
	// surface lowest-member-first.
	elig := make([]int, 0, len(f.members))
	round := func(horizon float64, drain bool) error {
		elig = elig[:0]
		for i, m := range f.members {
			if drain {
				if m.sim.HasPendingJobs() {
					elig = append(elig, i)
				}
			} else if t, ok := m.sim.PeekNextEventTime(); ok && t < horizon {
				elig = append(elig, i)
			}
		}
		if tasks == nil || len(elig) == 1 {
			// Without a pool, or with a single busy member, advance inline
			// in index order.
			for _, i := range elig {
				errs[i] = f.advanceMember(i, horizon, drain, done)
			}
		} else {
			wg.Add(len(elig))
			for _, i := range elig {
				tasks <- parTask{member: i, horizon: horizon, drain: drain}
			}
			wg.Wait()
		}
		for _, i := range elig {
			if err := errs[i]; err != nil {
				if errors.Is(err, errCancelled) {
					return f.cancelErr(ctx)
				}
				return fmt.Errorf("federation: member %s: %w", f.members[i].spec.Name, err)
			}
		}
		return nil
	}

	// Stateless dispatchers route independently of dynamic member state,
	// so whole arrival batches can be dispatched ahead of the members,
	// stretching the lookahead horizon across many arrivals; stateful
	// policies sample live views and barrier on every arrival. A single
	// member has no barrier to amortize, so it takes one arrival at a time
	// and never holds read-ahead jobs. The choice depends on the members,
	// never on the worker count, so Events agree across worker counts.
	batch := 1
	if s, ok := f.disp.(StatelessDispatcher); ok && s.Stateless() && len(f.members) > 1 {
		batch = dispatchBatch
	}
	advancedTo := math.Inf(-1)
	for {
		if done != nil {
			select {
			case <-done:
				return nil, f.cancelErr(ctx)
			default:
			}
		}
		if err := f.peek(); err != nil {
			return nil, err
		}
		if f.next == nil {
			// Feed exhausted: members no longer interact at all, so each
			// drains its remaining jobs independently. Trailing timer
			// events after a member's last completion stay unprocessed
			// and a member with jobs but no events reports its own
			// deadlock — both exactly as in a single run.
			if err := round(0, true); err != nil {
				return nil, err
			}
			return f.finalize()
		}
		// Advance everyone through the lookahead window: member events
		// strictly before the next arrival run now, ties defer to the
		// arrival (arrivals outrank coincident member events, as inside
		// each simulator).
		if T := f.next.Submit; T > advancedTo {
			if err := round(T, false); err != nil {
				return nil, err
			}
			advancedTo = T
		}
		for n := 0; n < batch && f.next != nil; n++ {
			j := *f.next
			f.next = nil
			if err := f.dispatch(j); err != nil {
				return nil, err
			}
			if err := f.peek(); err != nil {
				return nil, err
			}
		}
	}
}

// advanceMember runs one member's share of a round. Horizon rounds
// process events strictly before the horizon; drain rounds process events
// while the member has unfinished jobs. Both check for cancellation every
// stepChunk events.
func (f *Federation) advanceMember(i int, horizon float64, drain bool, done <-chan struct{}) error {
	m := f.members[i]
	for {
		if done != nil {
			select {
			case <-done:
				return errCancelled
			default:
			}
		}
		if drain {
			for n := 0; n < stepChunk; n++ {
				if !m.sim.HasPendingJobs() {
					return nil
				}
				if err := m.sim.ProcessNextEvent(); err != nil {
					return err
				}
			}
			continue
		}
		n, err := m.sim.StepUntil(horizon, stepChunk)
		if err != nil {
			return err
		}
		if n < stepChunk {
			return nil
		}
	}
}
