package experiments

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// tinyConfig keeps experiment tests fast while still exercising the full
// pipeline: trace generation, scaling, all algorithms, aggregation and
// rendering.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Traces = 1
	cfg.JobsPerTrace = 40
	cfg.Nodes = 32
	cfg.Loads = []float64{0.3, 0.7}
	cfg.HPC2NWeeks = 1
	cfg.Check = true
	return cfg
}

func TestBaseTracesDeterministic(t *testing.T) {
	cfg := tinyConfig()
	a, err := cfg.BaseTraces()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.BaseTraces()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i].Jobs) != len(b[i].Jobs) {
			t.Fatal("trace sizes differ across generations")
		}
		for j := range a[i].Jobs {
			if !reflect.DeepEqual(a[i].Jobs[j], b[i].Jobs[j]) {
				t.Fatalf("trace %d job %d differs", i, j)
			}
		}
	}
}

func TestFigure1EndToEnd(t *testing.T) {
	cfg := tinyConfig()
	cfg.Algorithms = []string{"easy", "greedy-pmtn", "dynmcb8-per"}
	res, err := Figure1(context.Background(), cfg, PaperPenalty)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != len(cfg.Loads)*cfg.Traces {
		t.Errorf("%d instances", len(res.Instances))
	}
	for _, alg := range cfg.Algorithms {
		if len(res.Mean[alg]) != len(cfg.Loads) {
			t.Errorf("%s has %d points", alg, len(res.Mean[alg]))
		}
		for i, m := range res.Mean[alg] {
			if math.IsNaN(m) || m < 1-1e-9 {
				t.Errorf("%s mean degradation at load %v = %v", alg, cfg.Loads[i], m)
			}
		}
	}
	var b strings.Builder
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "greedy-pmtn") {
		t.Errorf("render output incomplete:\n%s", out)
	}
}

func TestTableIEndToEnd(t *testing.T) {
	cfg := tinyConfig()
	cfg.Algorithms = []string{"easy", "dynmcb8-asap-per"}
	res, err := TableI(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range cfg.Algorithms {
		if res.Scaled[alg].N == 0 || res.Unscaled[alg].N == 0 || res.RealWorld[alg].N == 0 {
			t.Errorf("%s missing observations: %+v %+v %+v",
				alg, res.Scaled[alg], res.Unscaled[alg], res.RealWorld[alg])
		}
	}
	var b strings.Builder
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Table I") {
		t.Error("render output missing title")
	}
}

func TestTableIIEndToEnd(t *testing.T) {
	cfg := tinyConfig()
	cfg.Algorithms = []string{"greedy-pmtn", "dynmcb8-per"}
	res, err := TableII(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range cfg.Algorithms {
		row := res.Streams[alg]
		for k := range row {
			if row[k].N == 0 {
				t.Errorf("%s column %d has no observations", alg, k)
			}
			if row[k].Mean < 0 {
				t.Errorf("%s column %d mean %v < 0", alg, k, row[k].Mean)
			}
		}
	}
	var b strings.Builder
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Table II") {
		t.Error("render output missing title")
	}
}

func TestTableIIRequiresHighLoads(t *testing.T) {
	cfg := tinyConfig()
	cfg.Loads = []float64{0.1, 0.2}
	if _, err := TableII(context.Background(), cfg); err == nil {
		t.Error("Table II without >=0.7 loads should fail")
	}
}

func TestTimingStudy(t *testing.T) {
	cfg := tinyConfig()
	res, err := TimingStudy(context.Background(), cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "dynmcb8" {
		t.Errorf("default algorithm = %q", res.Algorithm)
	}
	if res.Observations == 0 {
		t.Error("no timing observations")
	}
	if res.All.Mean < 0 {
		t.Errorf("negative mean time %v", res.All.Mean)
	}
	var b strings.Builder
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "timing study") {
		t.Error("render output missing title")
	}
}

func TestAblations(t *testing.T) {
	cfg := tinyConfig()
	cfg.Loads = []float64{0.7}
	for name, run := range map[string]func(context.Context, Config) (*AblationResult, error){
		"priority": AblationPriorityPower,
		"period":   AblationPeriod,
		"packer":   AblationPacker,
		"fairness": ExtensionFairness,
	} {
		res, err := run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, alg := range res.Algorithms {
			if res.Stats[alg].N == 0 {
				t.Errorf("%s: %s has no observations", name, alg)
			}
		}
		var b strings.Builder
		if err := res.Render(&b); err != nil {
			t.Fatalf("%s render: %v", name, err)
		}
	}
}

// TestInstancesFromRecords checks the record-to-instance reconstruction
// that every table builds on: grouping by instance key, degradation
// derivation, and the missing-algorithm error path.
func TestInstancesFromRecords(t *testing.T) {
	mk := func(alg string, trace int, load, maxStretch float64) campaign.Record {
		c := campaign.Cell{Seed: 1, Family: campaign.FamilyLublin, TraceIdx: trace,
			Load: load, Nodes: 32, Jobs: 10, Penalty: 300, Algorithm: alg}
		return campaign.Record{Key: c.Key(), Seed: 1, Family: c.Family, TraceIdx: trace,
			Load: load, Nodes: 32, Jobs: 10, Penalty: 300, Algorithm: alg, MaxStretch: maxStretch}
	}
	algs := []string{"a", "b"}
	recs := []campaign.Record{
		mk("a", 0, 0.5, 10), mk("b", 0, 0.5, 5),
		mk("a", 1, 0.5, 4), mk("b", 1, 0.5, 8),
	}
	instances, err := instancesFromRecords(recs, algs)
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) != 2 {
		t.Fatalf("%d instances, want 2", len(instances))
	}
	if d := instances[0].Degradation["a"]; math.Abs(d-2) > 1e-12 {
		t.Errorf("instance 0 degradation[a] = %v, want 2", d)
	}
	if d := instances[1].Degradation["b"]; math.Abs(d-2) > 1e-12 {
		t.Errorf("instance 1 degradation[b] = %v, want 2", d)
	}
	if _, err := instancesFromRecords(recs[:1], algs); err == nil {
		t.Error("instance missing an algorithm should be rejected")
	}
}
