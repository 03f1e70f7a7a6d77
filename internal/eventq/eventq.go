// Package eventq implements the event calendar used by the discrete-event
// simulator: a binary min-heap of timers ordered by (time, sequence), plus
// one armed slot beside the heap for the simulator's single tentative
// completion. The sequence number breaks ties so that events scheduled
// earlier fire first at equal timestamps, which keeps simulations fully
// deterministic.
//
// Entries are values: the heap is a slice of Event, so pushing, popping and
// re-arming allocate nothing once the slice has grown to the run's largest
// calendar. There is no cancellation by handle. The one entry the simulator
// replaces on every event — the earliest tentative completion across
// running jobs — lives in the armed slot: Arm replaces it and Disarm clears
// it. Each Arm takes a fresh sequence number from the same counter as Push,
// so the calendar orders it exactly as if it had been cancelled and pushed
// again.
package eventq

// Event is an entry in the calendar.
type Event struct {
	Time float64
	Seq  uint64 // insertion order; tie-breaker at equal times
	Tag  int64  // the timer's tag as pushed; 0 for the armed entry
}

// before reports whether e fires before o: earlier time, or equal time and
// earlier sequence.
func (e Event) before(o Event) bool {
	if e.Time != o.Time {
		return e.Time < o.Time
	}
	return e.Seq < o.Seq
}

// Queue is a time-ordered event calendar. The zero value is ready to use.
// It is not safe for concurrent use.
type Queue struct {
	heap    []Event
	seq     uint64
	armed   Event
	isArmed bool
}

// Len returns the number of pending events, the armed entry included.
func (q *Queue) Len() int {
	if q.isArmed {
		return len(q.heap) + 1
	}
	return len(q.heap)
}

// Empty reports whether no events are pending.
func (q *Queue) Empty() bool { return q.Len() == 0 }

// Push schedules a timer with the given tag at the given time.
func (q *Queue) Push(time float64, tag int64) {
	q.seq++
	q.heap = append(q.heap, Event{Time: time, Seq: q.seq, Tag: tag})
	q.up(len(q.heap) - 1)
}

// Arm sets the armed entry to fire at the given time, replacing any armed
// entry. It always takes a fresh sequence number, even when the time is
// unchanged, so timers pushed since the previous Arm at the same time fire
// before it.
func (q *Queue) Arm(time float64) {
	q.seq++
	q.armed = Event{Time: time, Seq: q.seq}
	q.isArmed = true
}

// Disarm clears the armed entry, if any.
func (q *Queue) Disarm() { q.isArmed = false }

// Peek returns the earliest pending event without removing it; ok is false
// if the queue is empty.
func (q *Queue) Peek() (e Event, ok bool) {
	e, _, ok = q.head()
	return e, ok
}

// Pop removes and returns the earliest pending event. armed reports
// whether it was the armed entry, which Pop disarms; ok is false if the
// queue is empty.
func (q *Queue) Pop() (e Event, armed, ok bool) {
	e, armed, ok = q.head()
	switch {
	case !ok:
	case armed:
		q.isArmed = false
	default:
		last := len(q.heap) - 1
		q.heap[0] = q.heap[last]
		q.heap = q.heap[:last]
		if last > 0 {
			q.down(0)
		}
	}
	return e, armed, ok
}

// head returns the earliest of the heap's root and the armed entry.
func (q *Queue) head() (e Event, armed, ok bool) {
	if q.isArmed && (len(q.heap) == 0 || q.armed.before(q.heap[0])) {
		return q.armed, true, true
	}
	if len(q.heap) == 0 {
		return Event{}, false, false
	}
	return q.heap[0], false, true
}

// up moves the entry at i towards the root until its parent fires first.
func (q *Queue) up(i int) {
	e := q.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(q.heap[parent]) {
			break
		}
		q.heap[i] = q.heap[parent]
		i = parent
	}
	q.heap[i] = e
}

// down moves the entry at i towards the leaves until it fires before both
// children.
func (q *Queue) down(i int) {
	n := len(q.heap)
	e := q.heap[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && q.heap[right].before(q.heap[child]) {
			child = right
		}
		if !q.heap[child].before(e) {
			break
		}
		q.heap[i] = q.heap[child]
		i = child
	}
	q.heap[i] = e
}
