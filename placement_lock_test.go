package dfrs_test

// Default-objective lock: running with no objective and running with each
// family's default rule spelled as an explicit objective ("loadbalance" for
// the greedy/DYNMCB8 families, "first" for batch and gang) must produce
// identical simulations — same node choices, same event sequences, same
// metrics — over 200+ random instances spanning homogeneous,
// heterogeneous and GPU platforms. At whole-simulation level this locks
// two things: on two-resource platforms, greedy placement's node-index
// path (taken only when no objective is configured) against the
// placement.Pick scan under LoadBalance; and, in every family, the
// resolution of "no objective" to the family default. Batch and gang run
// one selection path either way, so their node choices themselves are
// pinned by the placement-families golden grid (golden_test.go) and by
// internal/sched/batch's reference takeFor.

import (
	"context"
	"reflect"
	"testing"

	dfrs "repro"
)

// defaultObjectiveOf maps each scheduler family to the registered
// objective that spells out its published selection rule.
func defaultObjectiveOf(alg string) string {
	switch alg {
	case "fcfs", "easy", "conservative", "gang":
		return "first"
	}
	// greedy family and DYNMCB8 family (greedy placement + index bin
	// order, which every uniform-score objective preserves).
	return "loadbalance"
}

func normalizeEvents(evs []dfrs.Event) []dfrs.Event {
	out := append([]dfrs.Event(nil), evs...)
	for i := range out {
		out[i].Elapsed = 0 // wall-clock timing is nondeterministic
	}
	return out
}

func TestDefaultObjectiveLock(t *testing.T) {
	if testing.Short() {
		t.Skip("lock battery is slow")
	}
	algorithms := []string{
		"greedy", "greedy-pmtn", "greedy-pmtn-migr",
		"dynmcb8", "dynmcb8-per", "dynmcb8-asap-per", "dynmcb8-stretch-per",
		"fcfs", "easy", "conservative", "gang",
	}
	mixes := []string{"", "bimodal", "powerlaw", "gpu-uniform", "bimodal-priced"}
	loads := []float64{0.3, 0.6, 0.9}
	instances := 0
	for seed := uint64(1); seed <= 10; seed++ {
		for li, alg := range algorithms {
			mix := mixes[(int(seed)+li)%len(mixes)]
			load := loads[(int(seed)+li)%len(loads)]
			gpuFrac := 0.0
			if mix == "gpu-uniform" {
				gpuFrac = 0.3
			}
			tr, err := dfrs.SyntheticTrace(dfrs.SyntheticOptions{
				Seed: seed, Nodes: 16, Jobs: 25, GPUFrac: gpuFrac,
			})
			if err != nil {
				t.Fatal(err)
			}
			tr, err = tr.ScaleToLoad(load)
			if err != nil {
				t.Fatal(err)
			}
			run := func(objective string) (dfrs.Result, []dfrs.Event) {
				rec := &dfrs.EventRecorder{}
				opts := []dfrs.RunOption{
					dfrs.WithPenalty(300),
					dfrs.WithNodeMix(mix),
					dfrs.WithObserver(rec),
					dfrs.WithInvariantChecking(),
				}
				if objective != "" {
					opts = append(opts, dfrs.WithObjective(objective))
				}
				res, err := dfrs.Run(context.Background(), tr, alg, opts...)
				if err != nil {
					t.Fatalf("seed %d alg %s mix %q obj %q: %v", seed, alg, mix, objective, err)
				}
				return res, normalizeEvents(rec.Events())
			}
			defRes, defEvents := run("")
			objRes, objEvents := run(defaultObjectiveOf(alg))
			if !reflect.DeepEqual(defEvents, objEvents) {
				t.Fatalf("seed %d alg %s mix %q: event sequences differ between the default path and objective %q",
					seed, alg, mix, defaultObjectiveOf(alg))
			}
			if !reflect.DeepEqual(defRes.Jobs(), objRes.Jobs()) {
				t.Fatalf("seed %d alg %s mix %q: per-job outcomes differ", seed, alg, mix)
			}
			if defRes.Makespan() != objRes.Makespan() || defRes.MaxStretch() != objRes.MaxStretch() ||
				defRes.Events() != objRes.Events() || defRes.Cost() != objRes.Cost() {
				t.Fatalf("seed %d alg %s mix %q: metrics differ", seed, alg, mix)
			}
			instances += 2
		}
	}
	if instances < 200 {
		t.Fatalf("battery ran only %d simulations", instances)
	}
}

// TestObjectiveChangesPlacement guards against the opposite failure: a
// non-default objective must actually reach the selection layer. On the
// priced bimodal mix the cost objective must move occupancy off the
// expensive fat nodes for at least one family.
func TestObjectiveChangesPlacement(t *testing.T) {
	tr, err := dfrs.SyntheticTrace(dfrs.SyntheticOptions{Seed: 11, Nodes: 16, Jobs: 30})
	if err != nil {
		t.Fatal(err)
	}
	tr, err = tr.ScaleToLoad(0.5)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for _, alg := range []string{"greedy-pmtn", "easy", "dynmcb8-per", "gang"} {
		base, err := dfrs.Run(context.Background(), tr, alg, dfrs.WithNodeMix("bimodal-priced"))
		if err != nil {
			t.Fatal(err)
		}
		cost, err := dfrs.Run(context.Background(), tr, alg, dfrs.WithNodeMix("bimodal-priced"),
			dfrs.WithObjective("cost"))
		if err != nil {
			t.Fatal(err)
		}
		if base.Cost() <= 0 || cost.Cost() <= 0 {
			t.Fatalf("%s: cost accounting missing on a priced mix (base %g, cost %g)", alg, base.Cost(), cost.Cost())
		}
		if cost.Cost() < base.Cost() {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("cost objective never reduced cost-weighted occupancy on the priced mix")
	}
}
