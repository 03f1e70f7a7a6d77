package sim

import (
	"fmt"
	"sort"
)

// TimelineKind labels one recorded scheduling transition.
type TimelineKind int

// Timeline event kinds, in rough lifecycle order.
const (
	TlSubmit TimelineKind = iota
	TlStart
	TlYield
	TlPause
	TlResume
	TlMigrate
	TlFinish
)

// String returns the lowercase kind name.
func (k TimelineKind) String() string {
	switch k {
	case TlSubmit:
		return "submit"
	case TlStart:
		return "start"
	case TlYield:
		return "yield"
	case TlPause:
		return "pause"
	case TlResume:
		return "resume"
	case TlMigrate:
		return "migrate"
	case TlFinish:
		return "finish"
	}
	return fmt.Sprintf("TimelineKind(%d)", int(k))
}

// TimelineEvent is one recorded transition of one job. Yield carries the
// job's yield after the transition; FrozenUntil is non-zero for resumes and
// migrations under a rescheduling penalty.
type TimelineEvent struct {
	Time        float64
	JID         int
	Kind        TimelineKind
	Yield       float64
	FrozenUntil float64
}

// timelineKind maps an event to the timeline entry it records as; hook
// invocations record none.
func (e Event) timelineKind() (TimelineKind, bool) {
	if e.resumed {
		return TlResume, true
	}
	switch e.Kind {
	case EvSubmitted:
		return TlSubmit, true
	case EvStarted:
		return TlStart, true
	case EvMigrated:
		return TlMigrate, true
	case EvPreempted:
		return TlPause, true
	case evYielded:
		return TlYield, true
	case EvCompleted:
		return TlFinish, true
	}
	return 0, false
}

// SegmentState classifies one interval of a job's life.
type SegmentState int

// Segment states.
const (
	SegWaiting SegmentState = iota // submitted, not yet dispatched
	SegRunning                     // holding nodes and progressing at Yield
	SegFrozen                      // holding nodes, rescheduling penalty
	SegPaused                      // preempted, holding nothing
)

// String returns the lowercase state name.
func (s SegmentState) String() string {
	switch s {
	case SegWaiting:
		return "waiting"
	case SegRunning:
		return "running"
	case SegFrozen:
		return "frozen"
	case SegPaused:
		return "paused"
	}
	return fmt.Sprintf("SegmentState(%d)", int(s))
}

// Segment is one homogeneous interval of a job's timeline.
type Segment struct {
	From, To float64
	State    SegmentState
	Yield    float64 // meaningful for SegRunning
}

// JobSegments reconstructs job jid's life as a sequence of contiguous
// segments from the recorded timeline. It returns nil when the run did not
// record a timeline or the job never appears.
func (r *Result) JobSegments(jid int) []Segment {
	var evs []TimelineEvent
	for _, e := range r.Timeline {
		if e.JID == jid {
			evs = append(evs, e)
		}
	}
	if len(evs) == 0 {
		return nil
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].Time < evs[b].Time })

	var segs []Segment
	cur := Segment{From: evs[0].Time, State: SegWaiting}
	// While a freeze is open, thaw is its end and cur.Yield the yield the
	// job runs at once it thaws.
	var thaw float64
	closeAt := func(t float64) {
		if t > cur.From {
			seg := cur
			seg.To = t
			if seg.State == SegFrozen {
				seg.Yield = 0
			}
			segs = append(segs, seg)
		}
	}
	open := func(t float64, st SegmentState, y float64) {
		cur = Segment{From: t, State: st, Yield: y}
	}
	for _, e := range evs {
		// A freeze ends silently when the clock passes its end, so split
		// there before the next transition.
		if cur.State == SegFrozen && thaw < e.Time {
			closeAt(thaw)
			open(thaw, SegRunning, cur.Yield)
		}
		switch e.Kind {
		case TlStart:
			closeAt(e.Time)
			open(e.Time, SegRunning, e.Yield)
		case TlYield:
			if cur.State == SegRunning && cur.Yield != e.Yield {
				closeAt(e.Time)
				open(e.Time, SegRunning, e.Yield)
			} else if cur.State == SegFrozen {
				cur.Yield = e.Yield
			}
		case TlPause:
			closeAt(e.Time)
			open(e.Time, SegPaused, 0)
		case TlResume, TlMigrate:
			closeAt(e.Time)
			if e.FrozenUntil > e.Time {
				open(e.Time, SegFrozen, e.Yield)
				thaw = e.FrozenUntil
			} else {
				open(e.Time, SegRunning, e.Yield)
			}
		case TlFinish:
			closeAt(e.Time)
			cur = Segment{From: e.Time, To: e.Time, State: SegRunning}
		}
	}
	return segs
}
