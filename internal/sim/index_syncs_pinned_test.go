package sim_test

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

// TestIndexSyncsPinned pins the node-index leaf writes of whole runs on the
// contended invariant trace. Schedulers that never read the index — the
// periodic DYNMCB8 repack, the batch baselines — must never pay for it;
// dynmcb8-asap-per reads it on arrivals only (greedy placement and yields),
// so it syncs just the nodes that changed since its previous read. A count
// change is a change of when the index is written, not noise. The runs go
// without CheckInvariants, whose sweep syncs the index after every event.
func TestIndexSyncsPinned(t *testing.T) {
	tr := invariantTrace(t)
	for _, tc := range []struct {
		alg  string
		want int
	}{
		{"dynmcb8-per", 0},
		{"easy", 0},
		{"dynmcb8-asap-per", 170},
	} {
		s, err := sched.New(tc.alg)
		if err != nil {
			t.Fatal(err)
		}
		simulator, err := sim.New(sim.Config{Trace: tr, Penalty: 300, MaxSimTime: 50 * 365 * 24 * 3600}, s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := simulator.Run(); err != nil {
			t.Fatalf("%s: %v", tc.alg, err)
		}
		if got := simulator.IndexSyncs(); got != tc.want {
			t.Errorf("%s: %d node-index leaf writes, want %d", tc.alg, got, tc.want)
		}
	}
}
