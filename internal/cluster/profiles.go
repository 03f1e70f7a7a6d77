package cluster

import (
	"fmt"
	"sort"
	"sync"
)

// Named node-mix profiles. A profile is a deterministic function of
// (name, node count): no randomness, so campaign cells using a profile stay
// byte-reproducible. Every profile keeps each node at or above the
// reference CPU and memory capacity 1.0 x 1.0, guaranteeing that any
// workload valid on the paper's homogeneous platform remains schedulable;
// three-dimensional profiles additionally declare a GPU capacity, which may
// be zero on some nodes (a GPU-demanding job then only fits the GPU nodes),
// and priced profiles declare per-node cost rates (NodeSpec.Cost) for the
// cost-aware placement objectives.
const (
	// ProfileUniform is the paper's homogeneous platform (all nodes
	// 1.0 x 1.0). The empty string is an accepted alias.
	ProfileUniform = "uniform"
	// ProfileBimodal is a fat/thin mix: every other node is a double
	// capacity (2.0 x 2.0) "fat" node, the rest are reference nodes.
	ProfileBimodal = "bimodal"
	// ProfilePowerlaw is a power-law tier mix: 1/8 of the nodes are 4.0x,
	// a further 1/8 are 2.0x, and the remaining 3/4 are reference nodes —
	// few very fat nodes, many thin ones.
	ProfilePowerlaw = "powerlaw"
	// ProfileGPUUniform is the three-dimensional reference platform: every
	// node is 1.0 x 1.0 with one GPU unit (dimensions cpu, mem, gpu).
	ProfileGPUUniform = "gpu-uniform"
	// ProfileGPUBimodal is a GPU-partitioned mix: every fourth node is a
	// double-GPU accelerator node (1.0 x 1.0 x 2.0), the rest carry no GPU
	// (1.0 x 1.0 x 0.0) — GPU-demanding jobs compete for a quarter of the
	// cluster while CPU/memory stay uniform.
	ProfileGPUBimodal = "gpu-bimodal"
	// ProfileBimodalPriced is the bimodal fat/thin capacity mix with
	// super-linear per-node-type pricing: fat 2.0 x 2.0 nodes cost 3.0 per
	// second of occupancy, reference nodes cost 1.0 — double the capacity
	// at triple the price, the classic premium-tier trade-off that makes
	// cost-aware placement objectives bite (a cost-minimizing scheduler
	// keeps the fat nodes idle unless capacity forces their use).
	ProfileBimodalPriced = "bimodal-priced"
)

// gpuDims is the dimension-name set of the three-dimensional profiles.
var gpuDims = []string{"cpu", "mem", "gpu"}

// profile is one named node-mix layout: its dimension names (nil = the
// canonical d=2 pair) and the per-node capacity function.
type profile struct {
	dims  []string
	build func(i int) NodeSpec
}

// profileBuilders maps canonical profile names to their layouts. Built-ins
// are installed here; RegisterProfile adds named inventories at run time,
// so all access goes through profileMu.
var (
	profileMu       sync.RWMutex
	profileBuilders = map[string]profile{
		ProfileUniform: {build: func(int) NodeSpec { return Unit() }},
		ProfileBimodal: {build: func(i int) NodeSpec {
			if i%2 == 0 {
				return Spec(2, 2)
			}
			return Unit()
		}},
		ProfilePowerlaw: {build: func(i int) NodeSpec {
			switch {
			case i%8 == 0:
				return Spec(4, 4)
			case i%8 == 4:
				return Spec(2, 2)
			default:
				return Unit()
			}
		}},
		ProfileGPUUniform: {dims: gpuDims, build: func(int) NodeSpec { return Spec(1, 1, 1) }},
		ProfileGPUBimodal: {dims: gpuDims, build: func(i int) NodeSpec {
			if i%4 == 0 {
				return Spec(1, 1, 2)
			}
			return Spec(1, 1, 0)
		}},
		ProfileBimodalPriced: {build: func(i int) NodeSpec {
			if i%2 == 0 {
				return Spec(2, 2).WithCost(3)
			}
			return Unit().WithCost(1)
		}},
	}
)

// RegisterProfile adds a named node-mix profile built from an explicit
// node inventory (e.g. one parsed by FromSpecs): the profile lays the
// specs out cyclically over any requested node count (node i receives
// specs[i mod len(specs)]), so an inventory describes a node-type pattern
// rather than one fixed cluster size, exactly like the built-in profiles.
// dims optionally names the dimensions (nil means the canonical names).
// Registration fails on an empty name, an empty inventory, a duplicate
// name, or specs of unequal dimension counts.
func RegisterProfile(name string, dims []string, specs []NodeSpec) error {
	if name == "" {
		return fmt.Errorf("cluster: empty profile name")
	}
	if len(specs) == 0 {
		return fmt.Errorf("cluster: profile %q has no node specs", name)
	}
	d := specs[0].Dims()
	for i, s := range specs {
		if s.Dims() != d {
			return fmt.Errorf("cluster: profile %q: node %d has %d dimensions, node 0 has %d", name, i, s.Dims(), d)
		}
	}
	if dims != nil && len(dims) != d {
		return fmt.Errorf("cluster: profile %q: %d dimension names for %d dimensions", name, len(dims), d)
	}
	owned := append([]NodeSpec(nil), specs...)
	var ownedDims []string
	if dims != nil {
		ownedDims = append([]string(nil), dims...)
	}
	profileMu.Lock()
	defer profileMu.Unlock()
	if _, dup := profileBuilders[name]; dup {
		return fmt.Errorf("cluster: duplicate registration of profile %q", name)
	}
	profileBuilders[name] = profile{
		dims:  ownedDims,
		build: func(i int) NodeSpec { return owned[i%len(owned)] },
	}
	return nil
}

// ProfileNames lists the canonical profile names, sorted.
func ProfileNames() []string {
	profileMu.RLock()
	defer profileMu.RUnlock()
	names := make([]string, 0, len(profileBuilders))
	for n := range profileBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NormalizeProfile maps a profile name to its canonical form: the empty
// string and "uniform" both canonicalize to "" (the homogeneous default, so
// campaign cell keys for homogeneous runs are identical with and without
// the heterogeneity axis); any other name is returned unchanged.
func NormalizeProfile(name string) string {
	if name == ProfileUniform {
		return ""
	}
	return name
}

// ValidProfile reports whether name denotes a known profile ("" counts as
// uniform).
func ValidProfile(name string) bool {
	if name == "" {
		return true
	}
	profileMu.RLock()
	defer profileMu.RUnlock()
	_, ok := profileBuilders[name]
	return ok
}

// MaxNodes is the most nodes one cluster may have. Node counts arrive from
// untrusted input (a trace header or a grid posted to dfrs-serve), and a
// cluster is allocated node by node before any job runs, so an unchecked
// count is an allocation of the caller's choosing. The limit sits far
// above the paper's 128 nodes and the 100k-node scale runs.
const MaxNodes = 1 << 20

// Profile builds the named node-mix over n nodes, at most MaxNodes. The
// empty name is the uniform (homogeneous) profile.
func Profile(name string, n int) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: profile %q needs a positive node count, got %d", name, n)
	}
	if n > MaxNodes {
		return nil, fmt.Errorf("cluster: profile %q: %d nodes, above the limit of %d", name, n, MaxNodes)
	}
	if name == "" {
		name = ProfileUniform
	}
	profileMu.RLock()
	p, ok := profileBuilders[name]
	profileMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cluster: unknown node-mix profile %q (known: %v)", name, ProfileNames())
	}
	nodes := make([]NodeSpec, n)
	for i := range nodes {
		nodes[i] = p.build(i)
	}
	c := &Cluster{Nodes: nodes}
	if p.dims != nil {
		c.DimNames = append([]string(nil), p.dims...)
	}
	return c, nil
}
