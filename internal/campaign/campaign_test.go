package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	// Register every scheduling algorithm for runner tests.
	_ "repro/internal/sched/batch"
	_ "repro/internal/sched/gang"
	_ "repro/internal/sched/greedy"
	_ "repro/internal/sched/mcb"
)

// testGrid is small enough for CI yet crosses every dimension: two
// algorithms, two families, two loads, two penalties.
func testGrid() *Grid {
	return &Grid{
		Name:         "test",
		Seeds:        []uint64{7},
		Algorithms:   []string{"easy", "greedy-pmtn"},
		Families:     []Family{{Kind: FamilyLublin, Count: 2}, {Kind: FamilyHPC2N, Count: 1, Loads: []float64{Unscaled}}},
		Loads:        []float64{0.3, 0.7},
		Penalties:    []float64{0, 300},
		Nodes:        []int{32},
		JobsPerTrace: 30,
	}
}

func TestGridCells(t *testing.T) {
	g := testGrid()
	cells := g.Cells()
	// lublin: 2 traces x 2 loads x 1 nodes x 2 penalties x 2 algs = 16
	// hpc2n:  1 week   x 1 load  x 1 nodes x 2 penalties x 2 algs = 4
	if len(cells) != 20 {
		t.Fatalf("expanded to %d cells, want 20", len(cells))
	}
	keys := map[string]bool{}
	for _, c := range cells {
		if keys[c.Key()] {
			t.Fatalf("duplicate cell key %s", c.Key())
		}
		keys[c.Key()] = true
		// HPC2N fixes its own platform: the grid's nodes/jobs dimensions
		// must not leak into its cells (and thus its checkpoint keys).
		if c.Family == FamilyHPC2N && (c.Nodes != 0 || c.Jobs != 0) {
			t.Fatalf("hpc2n cell carries grid nodes/jobs: %+v", c)
		}
	}
}

// TestGridCellDedup covers overlapping families: Table I sweeps the same
// lublin traces both scaled and unscaled, and a grid-level load of 0 would
// otherwise expand the unscaled cells twice.
func TestGridCellDedup(t *testing.T) {
	g := &Grid{
		Algorithms: []string{"easy"},
		Families: []Family{
			{Kind: FamilyLublin, Count: 2},
			{Kind: FamilyLublin, Count: 2, Loads: []float64{Unscaled}},
		},
		Loads:        []float64{Unscaled, 0.5},
		JobsPerTrace: 30,
	}
	cells := g.Cells()
	// 2 traces x {0, 0.5} from family one; family two's unscaled cells
	// duplicate family one's load-0 cells and must collapse: 4 total.
	if len(cells) != 4 {
		t.Fatalf("expanded to %d cells, want 4", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.Key()] {
			t.Fatalf("duplicate cell key %s", c.Key())
		}
		seen[c.Key()] = true
	}
}

func TestGridDefaults(t *testing.T) {
	g := &Grid{Algorithms: []string{"easy"}, Families: []Family{{Kind: FamilyLublin, Count: 1}}}
	cells := g.Cells()
	if len(cells) != 1 {
		t.Fatalf("%d cells", len(cells))
	}
	c := cells[0]
	if c.Seed != 42 || c.Load != Unscaled || c.Penalty != 0 || c.Nodes != 128 || c.Jobs != 1000 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
}

func TestGridValidate(t *testing.T) {
	cases := []Grid{
		{},                             // no algorithms
		{Algorithms: []string{"easy"}}, // no families
		{Algorithms: []string{"easy"}, Families: []Family{{Kind: "bogus", Count: 1}}},
		{Algorithms: []string{"easy"}, Families: []Family{{Kind: FamilyLublin, Count: 0}}},
		{Algorithms: []string{"easy"}, Families: []Family{{Kind: FamilyLublin, Count: 1}}, Loads: []float64{1.5}},
		{Algorithms: []string{"easy"}, Families: []Family{{Kind: FamilyLublin, Count: 1}}, Penalties: []float64{-1}},
		{Algorithms: []string{"easy"}, Families: []Family{{Kind: FamilyLublin, Count: 1}}, Nodes: []int{0}},
	}
	for i, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid grid %+v", i, g)
		}
	}
	if err := testGrid().Validate(); err != nil {
		t.Errorf("valid grid rejected: %v", err)
	}
}

func TestKeyStability(t *testing.T) {
	c := Cell{Seed: 42, Family: FamilyLublin, TraceIdx: 3, Load: 0.7, Nodes: 128, Jobs: 150, Penalty: 300, Algorithm: "easy"}
	// The key format is a checkpoint contract: changing it silently
	// invalidates every saved campaign, so pin it.
	want := "seed=42/family=lublin/trace=3/load=0.7/nodes=128/jobs=150/pen=300/alg=easy"
	if got := c.Key(); got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
}

func TestUnknownAlgorithmFails(t *testing.T) {
	g := testGrid()
	g.Algorithms = []string{"no-such-algorithm"}
	if _, err := (&Runner{Workers: 2}).Run(g); err == nil {
		t.Fatal("runner accepted unregistered algorithm")
	}
}

// runJSONL executes the grid with the given worker count and returns the
// JSONL output lines sorted lexicographically.
func runJSONL(t *testing.T, g *Grid, workers int) []string {
	t.Helper()
	var buf bytes.Buffer
	r := &Runner{Workers: workers, Sink: NewJSONLSink(&buf)}
	if _, err := r.Run(g); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	sort.Strings(lines)
	return lines
}

// TestDeterminismAcrossWorkerCounts is the engine's core guarantee: the
// same grid produces byte-identical (sorted) JSONL whether cells run
// serially or on eight workers in arbitrary interleavings.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	g := testGrid()
	serial := runJSONL(t, g, 1)
	parallel := runJSONL(t, g, 8)
	if len(serial) != len(parallel) {
		t.Fatalf("serial run emitted %d records, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("record %d differs:\nserial:   %s\nparallel: %s", i, serial[i], parallel[i])
		}
	}
}

// TestResumeSkipsFinishedCells interrupts a campaign (by keeping only a
// prefix of its output) and verifies that a resumed run computes exactly
// the missing cells and that the union matches an uninterrupted run.
func TestResumeSkipsFinishedCells(t *testing.T) {
	g := testGrid()
	full, err := (&Runner{Workers: 4}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate an interrupted campaign: half the records made it to disk,
	// plus a truncated final line from the cut-off write.
	var partial bytes.Buffer
	sink := NewJSONLSink(&partial)
	for _, rec := range full[:len(full)/2] {
		if err := sink.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	partial.WriteString(`{"key":"seed=7/family=lublin/trace`) // torn write
	keys, err := ReadKeys(bytes.NewReader(partial.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(full)/2 {
		t.Fatalf("recovered %d keys, want %d", len(keys), len(full)/2)
	}
	resumed, err := (&Runner{Workers: 4, Skip: keys}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != len(full)-len(full)/2 {
		t.Fatalf("resume ran %d cells, want %d", len(resumed), len(full)-len(full)/2)
	}
	for _, rec := range resumed {
		if keys[rec.Key] {
			t.Fatalf("resume recomputed finished cell %s", rec.Key)
		}
	}
	// Union of checkpointed + resumed records must equal the full run.
	merged := append(append([]Record(nil), full[:len(full)/2]...), resumed...)
	SortRecords(merged)
	if len(merged) != len(full) {
		t.Fatalf("merged %d records, want %d", len(merged), len(full))
	}
	for i := range merged {
		if !reflect.DeepEqual(merged[i], full[i]) {
			t.Fatalf("record %d differs after resume:\nfull:   %+v\nmerged: %+v", i, full[i], merged[i])
		}
	}
}

// TestOpenCheckpoint exercises the on-disk resume protocol: keys recovered,
// torn final line repaired, appended records parseable.
func TestOpenCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	g := testGrid()
	g.Families = g.Families[:1]
	g.Loads = []float64{0.5}
	g.Penalties = []float64{300}
	full, err := (&Runner{Workers: 2}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint one finished record plus a torn trailing write.
	f, skip, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(skip) != 0 {
		t.Fatalf("fresh checkpoint has %d keys", len(skip))
	}
	if err := NewJSONLSink(f).Write(full[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Reopen: the finished key is recovered, the torn line repaired, and a
	// resumed run appended after it stays parseable.
	f, skip, err = OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(skip) != 1 || !skip[full[0].Key] {
		t.Fatalf("recovered keys %v, want just %s", skip, full[0].Key)
	}
	if _, err := (&Runner{Workers: 2, Skip: skip, Sink: NewJSONLSink(f)}).Run(g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadRecords(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	SortRecords(back)
	if len(back) != len(full) {
		t.Fatalf("checkpoint file holds %d parseable records, want %d", len(back), len(full))
	}
	for i := range back {
		if !reflect.DeepEqual(back[i], full[i]) {
			t.Fatalf("record %d differs after checkpointed resume", i)
		}
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	g := testGrid()
	g.Families = g.Families[:1]
	g.Loads = []float64{0.5}
	g.Penalties = []float64{300}
	var buf bytes.Buffer
	recs, err := (&Runner{Workers: 2, Sink: NewJSONLSink(&buf)}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	SortRecords(back)
	if len(back) != len(recs) {
		t.Fatalf("round-tripped %d records, want %d", len(back), len(recs))
	}
	for i := range back {
		if !reflect.DeepEqual(back[i], recs[i]) {
			t.Fatalf("record %d changed in round trip:\n%+v\n%+v", i, recs[i], back[i])
		}
	}
}

func TestInstanceGrouping(t *testing.T) {
	g := testGrid()
	recs, err := (&Runner{Workers: 4}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	byInstance := map[string]int{}
	for _, rec := range recs {
		byInstance[rec.InstanceKey()]++
	}
	for key, n := range byInstance {
		if n != len(g.Algorithms) {
			t.Errorf("instance %s has %d records, want %d", key, n, len(g.Algorithms))
		}
	}
}

func TestTimingRecords(t *testing.T) {
	g := &Grid{
		Name:         "timing",
		Algorithms:   []string{"dynmcb8"},
		Families:     []Family{{Kind: FamilyLublin, Count: 1}},
		Nodes:        []int{32},
		JobsPerTrace: 30,
		Timing:       true,
	}
	recs, err := (&Runner{Workers: 1}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Timing == nil {
		t.Fatalf("expected one record with timing, got %+v", recs)
	}
	agg := recs[0].Timing
	if agg.Samples == 0 || agg.Sum < 0 || agg.Max < agg.Min {
		t.Fatalf("implausible timing aggregate %+v", agg)
	}
}

func TestProgressCallback(t *testing.T) {
	g := testGrid()
	g.Families = g.Families[:1]
	var calls int
	var lastDone, lastTotal int
	r := &Runner{Workers: 4, Progress: func(done, total int, rec Record) {
		calls++
		lastDone, lastTotal = done, total
		if rec.Key == "" {
			t.Error("progress callback got empty record")
		}
	}}
	recs, err := r.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(recs) || lastDone != len(recs) || lastTotal != len(recs) {
		t.Fatalf("progress calls=%d lastDone=%d lastTotal=%d, want all %d", calls, lastDone, lastTotal, len(recs))
	}
}
