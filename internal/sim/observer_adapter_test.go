package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// callbacks makes one observer callback of every kind, with distinct
// arguments, indexed by the kind it makes.
var callbacks = map[EventKind]func(Observer){
	EvSubmitted: func(o Observer) { o.JobSubmitted(1.5, 3) },
	EvStarted:   func(o Observer) { o.JobStarted(2.5, 4, []int{0, 0, 7}) },
	EvPreempted: func(o Observer) { o.JobPreempted(3.5, 5) },
	EvMigrated:  func(o Observer) { o.JobMigrated(4.5, 6, []int{2, 1}) },
	EvCompleted: func(o Observer) { o.JobCompleted(5.5, 7, 123.25) },
	EvSchedulerInvoked: func(o Observer) {
		o.SchedulerInvoked(6.5, "arrival", 9, 17*time.Microsecond)
	},
}

// flattened is the Event each of callbacks' calls flattens to.
var flattened = map[EventKind]Event{
	EvSubmitted:        {Kind: EvSubmitted, Time: 1.5, JID: 3},
	EvStarted:          {Kind: EvStarted, Time: 2.5, JID: 4, Nodes: []int{0, 0, 7}},
	EvPreempted:        {Kind: EvPreempted, Time: 3.5, JID: 5},
	EvMigrated:         {Kind: EvMigrated, Time: 4.5, JID: 6, Nodes: []int{2, 1}},
	EvCompleted:        {Kind: EvCompleted, Time: 5.5, JID: 7, Turnaround: 123.25},
	EvSchedulerInvoked: {Kind: EvSchedulerInvoked, Time: 6.5, Hook: "arrival", JobsInSystem: 9, Elapsed: 17 * time.Microsecond},
}

// TestObserverFuncDeliverRoundTrip: for every kind, ObserverFunc flattens
// a callback into its Event, and the same callback routed through
// ObserverFunc and Deliver reaches a Recorder exactly as the direct call
// does.
func TestObserverFuncDeliverRoundTrip(t *testing.T) {
	for k := EvSubmitted; k <= EvSchedulerInvoked; k++ {
		call, ok := callbacks[k]
		if !ok {
			t.Fatalf("no callback for kind %v", k)
		}
		var got []Event
		call(ObserverFunc(func(e Event) { got = append(got, e) }))
		if want := []Event{flattened[k]}; !reflect.DeepEqual(got, want) {
			t.Errorf("%v: flattened to %+v, want %+v", k, got, want)
		}
		direct, routed := &Recorder{}, &Recorder{}
		call(direct)
		call(ObserverFunc(func(e Event) { e.Deliver(routed) }))
		if got, want := routed.Events(), direct.Events(); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: routed %+v, direct %+v", k, got, want)
		}
	}
}

// TestObserverFuncMatchesRecorderOnRun: a whole run observed through an
// ObserverFunc that appends to a slice sees what a Recorder records,
// timing aside.
func TestObserverFuncMatchesRecorderOnRun(t *testing.T) {
	tr := obsTrace(t)
	want := stripElapsed(runObserved(t, tr))
	var got []Event
	s, err := New(Config{Trace: tr, MaxSimTime: 1e9,
		Observer: ObserverFunc(func(e Event) { got = append(got, e) })}, newTestGreedy())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := map[EventKind]bool{}
	for _, e := range want {
		kinds[e.Kind] = true
	}
	if !kinds[EvPreempted] || !kinds[EvSchedulerInvoked] {
		t.Fatalf("run too tame to compare: kinds %v", kinds)
	}
	if got = stripElapsed(got); !reflect.DeepEqual(got, want) {
		t.Fatalf("ObserverFunc saw %d events, Recorder %d:\n%v\nvs\n%v", len(got), len(want), got, want)
	}
}

// TestFanout: no observers fan out to nil, one to itself, and several to
// each of them in argument order.
func TestFanout(t *testing.T) {
	if o := Fanout(); o != nil {
		t.Errorf("Fanout() = %v, want nil", o)
	}
	rec := &Recorder{}
	if o := Fanout(rec); o != Observer(rec) {
		t.Errorf("Fanout(rec) = %v, want rec itself", o)
	}

	var log []string
	tagged := func(tag int) Observer {
		return ObserverFunc(func(e Event) { log = append(log, fmt.Sprintf("%d:%v", tag, e.Kind)) })
	}
	recs := []*Recorder{{}, {}, {}}
	fan := Fanout(
		Fanout(tagged(0), recs[0]),
		Fanout(tagged(1), recs[1]),
		Fanout(tagged(2), recs[2]),
	)
	direct := &Recorder{}
	var want []string
	for k := EvSubmitted; k <= EvSchedulerInvoked; k++ {
		callbacks[k](fan)
		callbacks[k](direct)
		for tag := 0; tag < 3; tag++ {
			want = append(want, fmt.Sprintf("%d:%v", tag, k))
		}
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("delivery order %v, want %v", log, want)
	}
	for i, r := range recs {
		if !reflect.DeepEqual(r.Events(), direct.Events()) {
			t.Errorf("member %d recorded %+v, want %+v", i, r.Events(), direct.Events())
		}
	}
}
