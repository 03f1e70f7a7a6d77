package dfrs_test

import (
	"context"
	"reflect"
	"testing"

	dfrs "repro"
)

// TestObserversFanOutWithOnlineMetrics: two WithObserver recorders (and a
// nil one, which is ignored) next to WithOnlineMetrics each see what a
// single observer sees, and the aggregator counts exactly the
// submissions, starts, preemptions and migrations the recorder saw.
func TestObserversFanOutWithOnlineMetrics(t *testing.T) {
	tr := v2Trace(t)
	const alg = "dynmcb8-asap-per"
	single := &dfrs.EventRecorder{}
	if _, err := dfrs.Run(context.Background(), tr, alg,
		dfrs.WithPenalty(300), dfrs.WithObserver(single)); err != nil {
		t.Fatal(err)
	}
	want := stripElapsed(single.Events())

	a, b := &dfrs.EventRecorder{}, &dfrs.EventRecorder{}
	agg := dfrs.NewOnlineAggregator()
	if _, err := dfrs.Run(context.Background(), tr, alg, dfrs.WithPenalty(300),
		dfrs.WithObserver(a), dfrs.WithObserver(nil), dfrs.WithOnlineMetrics(agg), dfrs.WithObserver(b)); err != nil {
		t.Fatal(err)
	}
	for name, rec := range map[string]*dfrs.EventRecorder{"first": a, "second": b} {
		if got := stripElapsed(rec.Events()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s recorder: %d events, single-observer run %d", name, len(got), len(want))
		}
	}

	counts := map[dfrs.EventKind]int64{}
	for _, e := range want {
		counts[e.Kind]++
	}
	if counts[dfrs.EvPreempted] == 0 || counts[dfrs.EvMigrated] == 0 {
		t.Fatalf("run too tame to check the counters: %v", counts)
	}
	snap := agg.Snapshot()
	got := map[dfrs.EventKind]int64{
		dfrs.EvSubmitted: snap.Submitted,
		dfrs.EvStarted:   snap.Started,
		dfrs.EvPreempted: snap.Preemptions,
		dfrs.EvMigrated:  snap.Migrations,
	}
	for k, n := range got {
		if n != counts[k] {
			t.Errorf("aggregator counted %d %v events, recorder %d", n, k, counts[k])
		}
	}
}
