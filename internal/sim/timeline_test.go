package sim

import (
	"math"
	"testing"
)

func runTimeline(t *testing.T, cfg Config, s Scheduler) *Result {
	t.Helper()
	cfg.RecordTimeline = true
	cfg.CheckInvariants = true
	simulator, err := New(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTimelineSimpleRun(t *testing.T) {
	res := runTimeline(t, Config{Trace: trace(job(0, 10, 1, 100))}, startImmediately(1))
	segs := res.JobSegments(0)
	if len(segs) != 1 {
		t.Fatalf("segments: %+v", segs)
	}
	s := segs[0]
	if s.State != SegRunning || s.From != 10 || math.Abs(s.To-110) > 1e-9 || s.Yield != 1 {
		t.Errorf("segment: %+v", s)
	}
}

func TestTimelineWaitingSegment(t *testing.T) {
	// A scheduler that delays the start by a timer creates a waiting
	// segment first.
	s := &script{
		onArrival: func(ctl *Controller, jid int) { ctl.SetTimer(50, int64(jid)) },
		onTimer: func(ctl *Controller, tag int64) {
			ctl.Start(int(tag), []int{0})
			ctl.SetYield(int(tag), 1)
		},
	}
	res := runTimeline(t, Config{Trace: trace(job(0, 0, 1, 100))}, s)
	segs := res.JobSegments(0)
	if len(segs) != 2 {
		t.Fatalf("segments: %+v", segs)
	}
	if segs[0].State != SegWaiting || segs[0].From != 0 || segs[0].To != 50 {
		t.Errorf("waiting segment: %+v", segs[0])
	}
	if segs[1].State != SegRunning || segs[1].To != 150 {
		t.Errorf("running segment: %+v", segs[1])
	}
}

func TestTimelineYieldChangeSplitsSegments(t *testing.T) {
	s := startImmediately(1)
	s.onInit = func(ctl *Controller) { ctl.SetTimer(40, 1) }
	s.onTimer = func(ctl *Controller, tag int64) { ctl.SetYield(0, 0.5) }
	res := runTimeline(t, Config{Trace: trace(job(0, 0, 1, 100))}, s)
	segs := res.JobSegments(0)
	if len(segs) != 2 {
		t.Fatalf("segments: %+v", segs)
	}
	if segs[0].Yield != 1 || segs[0].To != 40 {
		t.Errorf("first segment: %+v", segs[0])
	}
	// Remaining 60 virtual seconds at yield 0.5 = 120 wall seconds.
	if segs[1].Yield != 0.5 || math.Abs(segs[1].To-160) > 1e-9 {
		t.Errorf("second segment: %+v", segs[1])
	}
}

// TestTimelinePauseResumeWithPenalty: the freeze after a resume or a
// migration splits at its end, and the running segment after a thaw
// carries the yields set after it.
func TestTimelinePauseResumeWithPenalty(t *testing.T) {
	type seg struct {
		state    SegmentState
		from, to float64
		yield    float64
	}
	cases := []struct {
		name    string
		exec    float64
		onTimer func(ctl *Controller, tag int64)
		want    []seg
	}{{
		name: "pause-resume",
		exec: 100,
		onTimer: func(ctl *Controller, tag int64) {
			switch tag {
			case 10:
				ctl.Pause(0)
			case 20:
				ctl.Resume(0, []int{1})
				ctl.SetYield(0, 1)
			}
		},
		want: []seg{{SegRunning, 0, 10, 1}, {SegPaused, 10, 20, 0}, {SegFrozen, 20, 320, 0}, {SegRunning, 320, 410, 1}},
	}, {
		name: "yield-after-thaw",
		exec: 1000,
		onTimer: func(ctl *Controller, tag int64) {
			switch tag {
			case 10:
				ctl.Migrate(0, []int{1})
				ctl.SetYield(0, 0.8)
			case 500:
				ctl.SetYield(0, 0.5)
			}
		},
		want: []seg{{SegRunning, 0, 10, 1}, {SegFrozen, 10, 310, 0}, {SegRunning, 310, 500, 0.8}, {SegRunning, 500, 2176, 0.5}},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := startImmediately(1)
			s.onInit = func(ctl *Controller) {
				for _, at := range []float64{10, 20, 500} {
					ctl.SetTimer(at, int64(at))
				}
			}
			s.onTimer = tc.onTimer
			res := runTimeline(t, Config{Trace: trace(job(0, 0, 1, tc.exec)), Penalty: 300}, s)
			segs := res.JobSegments(0)
			if len(segs) != len(tc.want) {
				t.Fatalf("segments: %+v", segs)
			}
			for i, w := range tc.want {
				g := segs[i]
				if g.State != w.state || math.Abs(g.From-w.from) > 1e-9 || math.Abs(g.To-w.to) > 1e-9 || g.Yield != w.yield {
					t.Errorf("segment %d = %+v, want %+v", i, g, w)
				}
			}
		})
	}
}

func TestTimelineDisabledByDefault(t *testing.T) {
	res := mustRun(t, Config{Trace: trace(job(0, 0, 1, 10))}, startImmediately(1))
	if len(res.Timeline) != 0 {
		t.Errorf("timeline recorded without opt-in: %d events", len(res.Timeline))
	}
	if segs := res.JobSegments(0); segs != nil {
		t.Errorf("segments from empty timeline: %+v", segs)
	}
}

func TestTimelineKindStrings(t *testing.T) {
	names := map[TimelineKind]string{
		TlSubmit: "submit", TlStart: "start", TlYield: "yield",
		TlPause: "pause", TlResume: "resume", TlMigrate: "migrate", TlFinish: "finish",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q", int(k), got)
		}
	}
	states := map[SegmentState]string{
		SegWaiting: "waiting", SegRunning: "running", SegFrozen: "frozen", SegPaused: "paused",
	}
	for s, want := range states {
		if got := s.String(); got != want {
			t.Errorf("SegmentState(%d).String() = %q", int(s), got)
		}
	}
}
