package sim

import "testing"

// TestEventLoopAllocationFree: once warm, processing an event allocates
// nothing. The scheduler only re-arms a timer one second ahead, while one
// running job at a tiny yield keeps the tentative completion armed, so
// every event pops a timer, pushes one and re-arms the completion slot.
func TestEventLoopAllocationFree(t *testing.T) {
	s, err := New(Config{Trace: trace(job(0, 0, 1, 100))}, &script{
		onInit: func(ctl *Controller) {
			ctl.Start(0, []int{0})
			ctl.SetYield(0, 1e-6)
			ctl.SetTimer(1, 7)
		},
		onTimer: func(ctl *Controller, tag int64) { ctl.SetTimer(ctl.Now()+1, tag) },
	})
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if err := s.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("ProcessNextEvent allocates %v times per event, want 0", allocs)
	}
	if ev, ok := s.queue.Peek(); !ok || ev.Time != s.Now()+1 || ev.Tag != 7 {
		t.Errorf("calendar head %+v (ok=%v) at t=%g, want the re-armed timer one second ahead", ev, ok, s.Now())
	}
	if s.queue.Len() != 2 {
		t.Errorf("calendar holds %d entries, want the timer and the armed completion", s.queue.Len())
	}
}
