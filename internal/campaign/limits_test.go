package campaign

import (
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestGridValidateRejectsHugeSizes: a cluster size, a trace length or a
// cell count above its limit is an error naming the value, found without
// expanding the grid.
func TestGridValidateRejectsHugeSizes(t *testing.T) {
	base := func() Grid {
		return Grid{Name: "huge", Algorithms: []string{"easy"}, Families: []Family{{Kind: FamilyLublin, Count: 1}}}
	}
	huge := base()
	huge.Families[0].Count = 1_000_000_000
	huge.Nodes = []int{1_000_000_000}
	huge.JobsPerTrace = 1_000_000_000

	nodes := base()
	nodes.Nodes = []int{64, cluster.MaxNodes + 1}
	jobs := base()
	jobs.JobsPerTrace = MaxJobsPerTrace + 1
	cells := base()
	cells.Families[0].Count = 1_000_000_000
	// Every axis at 2^10: the product overflows int64 unless it saturates.
	wide := base()
	wide.Families[0].Count = 1 << 10
	for i := 0; i < 1<<10; i++ {
		wide.Seeds = append(wide.Seeds, uint64(i))
		wide.Penalties = append(wide.Penalties, float64(i))
		wide.Loads = append(wide.Loads, float64(i)/(1<<10))
		wide.Nodes = append(wide.Nodes, i+1)
		wide.Algorithms = append(wide.Algorithms, "easy")
		wide.Objectives = append(wide.Objectives, "")
		wide.NodeMixes = append(wide.NodeMixes, "")
	}
	for _, tc := range []struct {
		name  string
		g     Grid
		names string
	}{
		{"all huge", huge, "1000000000"},
		{"nodes", nodes, "1048577"},
		{"jobs", jobs, "1048577"},
		{"cells", cells, "1000000000"},
		{"wide", wide, "9223372036854775807"},
	} {
		err := tc.g.Validate()
		if err == nil {
			t.Fatalf("%s: grid accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.names)
		}
	}

	limit := base()
	limit.Nodes = []int{cluster.MaxNodes}
	limit.JobsPerTrace = MaxJobsPerTrace
	limit.Families[0].Count = MaxCells
	if err := limit.Validate(); err != nil {
		t.Errorf("grid at every limit rejected: %v", err)
	}
}

// TestCellBoundCoversCells: the bound Validate checks is never below the
// expanded cell count, across defaulted axes, per-family loads, the
// HPC2N family's collapsed sizes, federated cells and deduplication.
func TestCellBoundCoversCells(t *testing.T) {
	grids := []Grid{
		*testGrid(),
		{Algorithms: []string{"easy"}, Families: []Family{{Kind: FamilyLublin, Count: 1}}},
		{
			Algorithms: []string{"easy", "fcfs"},
			Families: []Family{
				{Kind: FamilyLublin, Count: 3, Loads: []float64{0.5, 0.9}},
				{Kind: FamilyLublin, Count: 3, Loads: []float64{0.5}},
				{Kind: FamilyHPC2N, Count: 2},
			},
			Seeds: []uint64{1, 2}, Loads: []float64{0.7}, Nodes: []int{16, 32},
			Penalties: []float64{0, 300}, NodeMixes: []string{"", "uniform", "bimodal"},
			Objectives:  []string{"", "cost"},
			Topologies:  []string{"2", "uniform:8+bimodal:8"},
			Dispatchers: []string{"roundrobin", "costaware"},
		},
	}
	for i := range grids {
		g := &grids[i]
		if err := g.Validate(); err != nil {
			t.Fatalf("grid %d: %v", i, err)
		}
		if n, bound := len(g.Cells()), g.cellBound(); n > bound || n == 0 {
			t.Errorf("grid %d: %d cells, bound %d", i, n, bound)
		}
	}
}
