package dfrs_test

// Golden campaign lock: reduced versions of the paper's campaigns (Figure
// 1a/1b, Tables I/II) and of the scenario axes layered on top of them
// (heterogeneous and GPU node mixes, the cost objective on a priced mix,
// every family's node selection under default and cost objectives,
// federated dispatch) run through the public campaign API, and the SHA-256
// of each grid's key-sorted JSONL must match testdata/campaign_golden.json.
// Refactors that claim "same behaviour" are held to it. Regenerate the file
// only for an intended behaviour change:
//
//	go test -run TestCampaignGolden -update .

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	dfrs "repro"
	"repro/internal/experiments"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/campaign_golden.json from the current code")

const goldenPath = "testdata/campaign_golden.json"

// goldenGrids are the locked grids, small enough to run in seconds.
func goldenGrids() map[string]dfrs.Grid {
	lublin := func(count int) []dfrs.CampaignFamily {
		return []dfrs.CampaignFamily{{Kind: dfrs.FamilyLublin, Count: count}}
	}
	base := func(name string, algs []string) dfrs.Grid {
		return dfrs.Grid{
			Name:         name,
			Seeds:        []uint64{11},
			Algorithms:   algs,
			Families:     lublin(2),
			Loads:        []float64{0.4, 0.8},
			Penalties:    []float64{0},
			Nodes:        []int{64},
			JobsPerTrace: 150,
		}
	}
	fig1a := base("fig1a", experiments.Algorithms)
	fig1b := base("fig1b", experiments.Algorithms)
	fig1b.Penalties = []float64{experiments.PaperPenalty}

	table1 := base("table1", []string{"fcfs", "easy", "greedy-pmtn", "dynmcb8-asap-per"})
	table1.Penalties = []float64{experiments.PaperPenalty}
	table1.Loads = []float64{0.7}
	table1.Families = []dfrs.CampaignFamily{
		{Kind: dfrs.FamilyLublin, Count: 1},
		{Kind: dfrs.FamilyLublin, Count: 1, Loads: []float64{dfrs.UnscaledLoad}},
		{Kind: dfrs.FamilyHPC2N, Count: 1, Loads: []float64{dfrs.UnscaledLoad}},
	}

	table2 := base("table2", experiments.PreemptingAlgorithms)
	table2.Penalties = []float64{experiments.PaperPenalty}
	table2.Loads = []float64{0.7, 0.9}

	het := base("heterogeneous", []string{"easy", "greedy-pmtn", "dynmcb8-per"})
	het.NodeMixes = []string{"bimodal", "powerlaw"}
	het.Loads = []float64{0.5, 0.9}

	gpu := base("gpu-uniform", []string{"easy", "greedy-pmtn", "dynmcb8-per"})
	gpu.NodeMixes = []string{"gpu-uniform"}
	gpu.GPUFrac = 0.3
	gpu.Loads = []float64{0.5, 0.9}

	priced := base("priced-cost", []string{"easy", "greedy-pmtn", "dynmcb8-per"})
	priced.NodeMixes = []string{"bimodal-priced"}
	priced.Objectives = []string{"cost"}
	priced.Loads = []float64{0.5, 0.9}

	// Every scheduler family's node selection — batch, gang, greedy and
	// DYNMCB8-ASAP's immediate placement — on the two-resource bimodal
	// mixes (greedy's default picks come from the node index) and the
	// three-resource GPU mix (every greedy pick is a placement.Pick scan),
	// under the family default and the cost objective.
	families := base("placement-families", []string{
		"fcfs", "easy", "conservative", "gang", "greedy", "greedy-pmtn", "dynmcb8-asap-per",
	})
	families.NodeMixes = []string{"bimodal", "bimodal-priced", "gpu-uniform"}
	families.Objectives = []string{"", "cost"}
	families.Loads = []float64{0.5, 0.9}

	fed := base("federated", []string{"greedy", "dynmcb8-asap-per"})
	fed.Penalties = []float64{experiments.PaperPenalty}
	fed.Loads = []float64{0.9}
	fed.JobsPerTrace = 400
	fed.Topologies = []string{"uniform:64+bimodal-priced:32+uniform:32"}
	fed.Dispatchers = []string{"roundrobin", "queuedepth", "costaware"}

	// MCB8 at benchmark scale on the three-resource priced and GPU mixes,
	// under the default and cost objectives. The reduced grids above never
	// reach a headroom comparison that the packer's capacity decremented
	// item by item and capacity minus usage would order differently; at
	// 128 nodes and 300 jobs this one does (seed 11 happens not to; seed 1,
	// like seven of seeds 1-12, does).
	mcbScale := base("mcb8-scale", []string{"dynmcb8-per"})
	mcbScale.Seeds = []uint64{1}
	mcbScale.Families = lublin(1)
	mcbScale.Loads = []float64{0.7}
	mcbScale.Penalties = []float64{experiments.PaperPenalty}
	mcbScale.Nodes = []int{128}
	mcbScale.JobsPerTrace = 300
	mcbScale.NodeMixes = []string{"bimodal-priced", "gpu-uniform"}
	mcbScale.Objectives = []string{"", "cost"}
	mcbScale.GPUFrac = 0.3

	grids := map[string]dfrs.Grid{}
	for _, g := range []dfrs.Grid{fig1a, fig1b, table1, table2, het, gpu, priced, families, fed, mcbScale} {
		grids[g.Name] = g
	}
	return grids
}

// goldenDigest runs the grid and hashes its JSONL: records sorted by key,
// the wall-clock timing field dropped, each line re-encoded with sorted
// fields.
func goldenDigest(t *testing.T, g dfrs.Grid, workers, fedWorkers int) string {
	t.Helper()
	var out bytes.Buffer
	opt := dfrs.CampaignOptions{Workers: workers, Output: &out}
	if len(g.Topologies) > 0 {
		opt.FedWorkers = fedWorkers
	}
	run, err := dfrs.Campaign(context.Background(), g, opt)
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	if _, err := run.Wait(); err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	type line struct {
		key  string
		data []byte
	}
	var lines []line
	for _, raw := range bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n")) {
		var rec map[string]json.RawMessage
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatalf("%s: bad JSONL line %q: %v", g.Name, raw, err)
		}
		delete(rec, "timing")
		var key string
		if err := json.Unmarshal(rec["key"], &key); err != nil {
			t.Fatalf("%s: record without key: %q", g.Name, raw)
		}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line{key, data})
	}
	if want := len(g.Cells()); len(lines) != want {
		t.Fatalf("%s: %d records, want %d", g.Name, len(lines), want)
	}
	sort.Slice(lines, func(a, b int) bool { return lines[a].key < lines[b].key })
	h := sha256.New()
	for _, l := range lines {
		h.Write(l.data)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestCampaignGolden(t *testing.T) {
	grids := goldenGrids()
	names := make([]string, 0, len(grids))
	for name := range grids {
		names = append(names, name)
	}
	sort.Strings(names)

	if *updateGolden {
		digests := map[string]string{}
		for _, name := range names {
			digests[name] = goldenDigest(t, grids[name], 4, 2)
		}
		data, err := json.MarshalIndent(digests, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test -run TestCampaignGolden -update .)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(want) != len(grids) {
		t.Errorf("%s holds %d digests for %d grids", goldenPath, len(want), len(grids))
	}
	// Cell workers 1 and 4 cover the serial and concurrent campaign pools;
	// federated cells advance their members inline (1) and on a pool (2).
	for _, workers := range []struct{ cells, fed int }{{1, 1}, {4, 2}} {
		for _, name := range names {
			t.Run(fmt.Sprintf("%s/workers=%d/fed-workers=%d", name, workers.cells, workers.fed), func(t *testing.T) {
				if got := goldenDigest(t, grids[name], workers.cells, workers.fed); got != want[name] {
					t.Errorf("digest %s, golden %s", got, want[name])
				}
			})
		}
	}
}
