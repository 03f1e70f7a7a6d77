package main

import (
	"context"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestMetricsMatchBenchmarkJSON pins the workloads and metric tables to
// BENCHMARK.json, the contract later changes are measured against.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames())
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the code's table")
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the code's table")
	}
}

// TestEmittedMetrics runs every workload at a shrunken size, untraced and
// traced, and checks that a run reports exactly the declared metrics with
// their units, and that it fails nothing.
func TestEmittedMetrics(t *testing.T) {
	for _, def := range defs {
		for _, traced := range []bool{false, true} {
			rep := measure(def, 3, 0.001, traced, true, t.TempDir(), testLog{t})
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", def.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			var got, exp []string
			for name, m := range rep.Metrics {
				got = append(got, name+" "+m.Unit)
			}
			for _, m := range want {
				exp = append(exp, m.Name+" "+m.Unit)
			}
			sort.Strings(got)
			sort.Strings(exp)
			if !reflect.DeepEqual(got, exp) {
				t.Errorf("%s traced=%v emits %v, want %v", def.name, traced, got, exp)
			}
		}
	}
}

// TestWorkloadsDeterministic runs each workload's first pass twice from
// fresh set-ups, expecting one digest, and on one worker, expecting the
// same outcomes.
func TestWorkloadsDeterministic(t *testing.T) {
	ctx := context.Background()
	for _, def := range defs {
		var digests, outcomes []string
		for _, w := range []int{workers, workers, 1} {
			wl := def.make(true)
			if _, err := wl.setup(ctx, 5); err != nil {
				t.Fatalf("%s: setup: %v", def.name, err)
			}
			pr, err := wl.pass(ctx, 0, w, nil)
			if err != nil || pr.bad != 0 || pr.ops == 0 {
				t.Fatalf("%s: pass: err=%v bad=%d ops=%d", def.name, err, pr.bad, pr.ops)
			}
			digests = append(digests, pr.digest)
			outcomes = append(outcomes, pr.outcome)
		}
		if digests[0] != digests[1] || outcomes[0] != outcomes[2] {
			t.Errorf("%s: digests %v, outcomes %v", def.name, digests, outcomes)
		}
	}
}

// TestGoldensCoverEveryWorkload checks that golden.json pins each
// workload on each golden seed.
func TestGoldensCoverEveryWorkload(t *testing.T) {
	for _, name := range workloadNames() {
		for _, seed := range goldenSeeds {
			if d := goldens[name][strconv.FormatUint(seed, 10)]; len(d) != 64 {
				t.Errorf("%s seed %d: golden digest %q", name, seed, d)
			}
		}
	}
}

// TestFacadeOnly keeps the benchmark on the public API: a change to the
// simulator's internals must not be able to break it.
func TestFacadeOnly(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "repro/internal" || strings.HasPrefix(path, "repro/internal/") {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
}

// testLog sends a run's breakdown to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}
