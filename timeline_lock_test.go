package dfrs_test

// Timeline lock: the SHA-256 of every algorithm's Result.Timeline and of
// its observer event sequence (wall-clock Elapsed zeroed), at penalties 0
// and 300 on a small synthetic trace, plus the deterministic fields of
// campaign hook timing (sample count, peak jobs in system, samples above
// ten jobs) on one-member and two-member cells, must match
// testdata/timeline_golden.json. It pins the raw transitions, not the
// segments JobSegments derives from them. Regenerate only for an intended
// behaviour change:
//
//	go test -run TestTimelineGolden -update-timeline .

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	dfrs "repro"
)

var updateTimeline = flag.Bool("update-timeline", false, "rewrite testdata/timeline_golden.json from the current code")

const timelineGoldenPath = "testdata/timeline_golden.json"

// timelineAlgorithms is the built-in registry, spelled out so algorithms
// other tests register never enter the lock.
var timelineAlgorithms = []string{
	"conservative", "dynmcb8", "dynmcb8-asap-per", "dynmcb8-per",
	"dynmcb8-per-fair", "dynmcb8-stretch-per", "easy", "fcfs", "gang",
	"greedy", "greedy-pmtn", "greedy-pmtn-linprio", "greedy-pmtn-migr",
}

func timelineLockTrace(t *testing.T) dfrs.Trace {
	t.Helper()
	tr, err := dfrs.SyntheticTrace(dfrs.SyntheticOptions{Seed: 5, Nodes: 16, Jobs: 80})
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := tr.ScaleToLoad(0.9)
	if err != nil {
		t.Fatal(err)
	}
	return scaled
}

func digestJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// timelineDigests runs every algorithm at both penalties and digests the
// timeline and the zero-Elapsed event sequence of each run.
func timelineDigests(t *testing.T) map[string]string {
	t.Helper()
	tr := timelineLockTrace(t)
	out := map[string]string{}
	for _, alg := range timelineAlgorithms {
		for _, pen := range []float64{0, 300} {
			rec := &dfrs.EventRecorder{}
			res, err := dfrs.Run(context.Background(), tr, alg,
				dfrs.WithPenalty(pen), dfrs.WithTimeline(), dfrs.WithObserver(rec))
			if err != nil {
				t.Fatalf("%s/pen=%g: %v", alg, pen, err)
			}
			evs := rec.Events()
			for i := range evs {
				evs[i].Elapsed = 0
			}
			name := fmt.Sprintf("%s/pen=%g", alg, pen)
			out["timeline/"+name] = digestJSON(t, res.Timeline())
			out["events/"+name] = digestJSON(t, evs)
		}
	}
	return out
}

// timingDigest runs a Timing grid and digests each record's deterministic
// timing fields, in key order.
func timingDigest(t *testing.T, topologies []string, fedWorkers int) string {
	t.Helper()
	g := dfrs.Grid{
		Name:         "timing-lock",
		Seeds:        []uint64{5},
		Algorithms:   []string{"easy", "greedy-pmtn", "dynmcb8-asap-per", "dynmcb8-per"},
		Families:     []dfrs.CampaignFamily{{Kind: dfrs.FamilyLublin, Count: 1}},
		Loads:        []float64{0.9},
		Penalties:    []float64{0, 300},
		Nodes:        []int{16},
		JobsPerTrace: 80,
		Topologies:   topologies,
		Timing:       true,
	}
	run, err := dfrs.Campaign(context.Background(), g, dfrs.CampaignOptions{Workers: 1, FedWorkers: fedWorkers})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 0, len(recs))
	for _, r := range recs {
		if r.Timing == nil {
			t.Fatalf("%s: no timing aggregate", r.Key)
		}
		lines = append(lines, fmt.Sprintf("%s samples=%d max_jobs=%d large_n=%d",
			r.Key, r.Timing.Samples, r.Timing.MaxJobs, r.Timing.LargeN))
	}
	sort.Strings(lines)
	return digestJSON(t, lines)
}

func TestTimelineGolden(t *testing.T) {
	got := timelineDigests(t)
	timing := map[string][]string{"timing/one-member": nil, "timing/two-member": {"2"}}
	for name, topo := range timing {
		got[name] = timingDigest(t, topo, 1)
	}

	if *updateTimeline {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(timelineGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", timelineGoldenPath)
		return
	}

	data, err := os.ReadFile(timelineGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test -run TestTimelineGolden -update-timeline .)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", timelineGoldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d digests, the lock computes %d", timelineGoldenPath, len(want), len(got))
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got[name], want[name])
		}
	}
	// Member clusters advanced on a pool time the same hooks as inline.
	for name, topo := range timing {
		if d := timingDigest(t, topo, 2); d != want[name] {
			t.Errorf("%s at fed-workers=2: digest %s, want %s", name, d, want[name])
		}
	}
}

// TestJobSegmentsIntegrateToExecTime: a job's running segments deliver
// exactly its work, Σ Yield·(To−From) = ExecTime, for every algorithm with
// and without a rescheduling penalty.
func TestJobSegmentsIntegrateToExecTime(t *testing.T) {
	tr := timelineLockTrace(t)
	for _, alg := range timelineAlgorithms {
		for _, pen := range []float64{0, 300} {
			res, err := dfrs.Run(context.Background(), tr, alg, dfrs.WithPenalty(pen), dfrs.WithTimeline())
			if err != nil {
				t.Fatalf("%s/pen=%g: %v", alg, pen, err)
			}
			bad := 0
			for _, jr := range res.Jobs() {
				work := 0.0
				for _, seg := range res.JobSegments(jr.Job.ID) {
					if seg.State.String() == "running" {
						work += seg.Yield * (seg.To - seg.From)
					}
				}
				if math.Abs(work-jr.Job.ExecTime) > 1e-6*math.Max(1, jr.Job.ExecTime) {
					bad++
				}
			}
			if bad > 0 {
				t.Errorf("%s/pen=%g: %d of %d jobs' running segments do not integrate to ExecTime",
					alg, pen, bad, len(res.Jobs()))
			}
		}
	}
}
