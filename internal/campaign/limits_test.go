package campaign

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hpc2n"
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

// TestGridValidateChecksTopologyAtCellSizes: a topology is checked against
// the cluster sizes its cells get — the Nodes axis, 128 when that axis is
// empty, and the HPC2N model's own size for hpc2n families — on both sides
// of cluster.MaxNodes, so a grid whose cells would all fail at run time is
// rejected up front, naming the topology and the size.
func TestGridValidateChecksTopologyAtCellSizes(t *testing.T) {
	lublin := []Family{{Kind: FamilyLublin, Count: 1}}
	hpc := []Family{{Kind: FamilyHPC2N, Count: 1}}
	// members bare members next to one explicit member of rest nodes.
	topo := func(rest, members int) string {
		return fmt.Sprintf("uniform:%d", rest) + strings.Repeat("+uniform", members)
	}
	for _, tc := range []struct {
		name     string
		families []Family
		nodes    []int
		topology string
		reject   int // the cell size the error names; 0 for a valid grid
	}{
		{"bare count at the limit", lublin, []int{1024}, "1024", 0},
		{"bare count above the limit", lublin, []int{2048}, "1024", 2048},
		{"bare count one node above", lublin, []int{1025}, "1024", 1025},
		{"largest size decides", lublin, []int{64, 2048, 16}, "1024", 2048},
		{"default size at the limit", lublin, nil, topo(cluster.MaxNodes-128, 1), 0},
		{"default size above the limit", lublin, nil, topo(cluster.MaxNodes-127, 1), 128},
		{"hpc2n size at the limit", hpc, []int{2048}, topo(cluster.MaxNodes-2*hpc2n.Nodes, 2), 0},
		{"hpc2n size above the limit", hpc, []int{64}, topo(cluster.MaxNodes-2*hpc2n.Nodes+1, 2), hpc2n.Nodes},
		{"both families", append(lublin, hpc...), []int{64}, topo(cluster.MaxNodes-2*hpc2n.Nodes+1, 2), hpc2n.Nodes},
	} {
		g := Grid{Name: "topo", Algorithms: []string{"easy"}, Families: tc.families, Nodes: tc.nodes, Topologies: []string{tc.topology}}
		err := g.Validate()
		switch {
		case tc.reject == 0 && err != nil:
			t.Errorf("%s: valid grid rejected: %v", tc.name, err)
		case tc.reject != 0 && err == nil:
			t.Errorf("%s: grid accepted", tc.name)
		case tc.reject != 0 && (!strings.Contains(err.Error(), fmt.Sprintf("%q", tc.topology)) ||
			!strings.Contains(err.Error(), fmt.Sprintf("%d-node", tc.reject))):
			t.Errorf("%s: error %q does not name the topology and %d nodes", tc.name, err, tc.reject)
		}
	}
}
