// Package cluster defines the shared cluster resource model: a set of
// nodes, each with its own capacity vector over d named resource
// dimensions, expressed in units of the paper's reference node. Dimensions
// 0 and 1 are always CPU and memory — the paper's two resources — so the
// published DFRS platform is exactly the d=2 special case; further
// dimensions (GPU, network, disk, ...) are optional and rigid (hard
// constraints, like memory). Every layer of the reproduction — the
// vector-packing kernel, the DFRS allocation math, the discrete-event
// simulator and the scheduling algorithms — works against this model, so
// heterogeneous and multi-resource platforms are first-class scenario axes
// rather than special cases.
//
// A homogeneous cluster (Homogeneous, or the "uniform" profile) reproduces
// the paper's platform exactly: two dimensions, capacities of 1.0, which
// collapse every per-node per-dimension computation to the original
// unit-capacity arithmetic, bit-for-bit. Heterogeneous platforms come from
// explicit NodeSpec lists or from the named node-mix profiles (Profile):
// deterministic capacity layouts such as a bimodal fat/thin mix, a
// power-law tier mix, or the three-dimensional GPU mixes, keyed only by
// profile name and node count so campaign results stay reproducible.
//
// Job CPU and memory requirements remain fractions of the reference node in
// (0, 1]; profiles therefore never shrink those two dimensions below 1.0,
// which guarantees that every workload valid on the paper's platform stays
// schedulable on every profile. Extra dimensions may have zero capacity on
// some nodes (a node without GPUs); the packing and placement layers treat
// such nodes correctly, and the simulator rejects jobs whose demand exceeds
// every node eagerly.
package cluster

import (
	"fmt"
	"math"

	"repro/internal/floats"
)

// Dimension indices of the canonical resource vector. CPU is the only
// fluid dimension (consumption scales with the allocated yield); every
// other dimension is rigid — a hard constraint on the sum of demands of
// the tasks a node hosts, exactly like the paper's memory constraint.
const (
	// DimCPU is the CPU dimension, dimension 0.
	DimCPU = 0
	// DimMem is the memory dimension, dimension 1.
	DimMem = 1
)

// MinDims is the minimum number of dimensions of any node or cluster: the
// paper's (CPU, memory) pair.
const MinDims = 2

// Vec is a resource vector: one value per dimension, in units of the
// reference node.
type Vec []float64

// Clone returns a copy of the vector.
func (v Vec) Clone() Vec { return append(Vec(nil), v...) }

// Equal reports whether the vectors have identical length and values.
func (v Vec) Equal(o Vec) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// NodeSlots is the rigid-fit rule: how many identical tasks of demand dm
// a node with free capacity free holds in one dimension, counting at most
// max. A node takes another task while floats.LessEq(dm, free-acc), acc
// being the demand of the tasks already taken, summed one dm at a time —
// the test every placement runs task by task. The test is monotone in acc,
// so the count is the first task it rejects.
func NodeSlots(dm, free float64, max int) int {
	k := 0
	for acc := 0.0; k < max && floats.LessEq(dm, free-acc); acc += dm {
		k++
	}
	return k
}

// Slots returns how many of tasks identical tasks n nodes hold at once,
// capped at tasks. A task demands dem(k) in each dimension k in [lo, hi)
// and free(node, k) is the node's free capacity there. A node holds the
// minimum of its NodeSlots over those dimensions: a placement stops taking
// tasks on a node as soon as one dimension runs out. Counting stops once
// the tasks are covered.
func Slots(n, tasks, lo, hi int, dem func(k int) float64, free func(node, k int) float64) int {
	slots := 0
	for node := 0; node < n && slots < tasks; node++ {
		s := tasks - slots
		for k := lo; k < hi && s > 0; k++ {
			s = NodeSlots(dem(k), free(node, k), s)
		}
		slots += s
	}
	return slots
}

// NodeSpec is the capacity vector of one node in units of the reference
// node. Caps[DimCPU] is the CPU capacity — a task with CPU need c consumes
// c*yield of it; Caps[DimMem] and every further dimension are rigid
// capacities, hard constraints on the sum of the demands of the tasks the
// node hosts. The paper's reference node is Unit(): capacity 1.0 in every
// dimension.
type NodeSpec struct {
	Caps Vec
	// Cost is the node's cost rate in abstract price units per second of
	// occupancy (per-node-type pricing). It never constrains scheduling —
	// the paper's model has no prices and its platform is the all-zero
	// special case — but the simulator accounts cost-weighted occupancy
	// (cost x seconds, accrued once per task the node hosts) and the cost
	// placement objective minimizes it.
	Cost float64
}

// check validates one node with at least MinDims dimensions: finite
// positive CPU and memory capacities, finite non-negative extra capacities
// and cost rate. dimName names dimension k in the error.
func (n NodeSpec) check(dimName func(k int) string) error {
	for k, v := range n.Caps {
		if k < MinDims && !(v > 0 && v <= math.MaxFloat64) {
			return fmt.Errorf("%s capacity %g is not finite and positive", dimName(k), v)
		}
		if !(v >= 0 && v <= math.MaxFloat64) {
			return fmt.Errorf("%s capacity %g is not finite and non-negative", dimName(k), v)
		}
	}
	if !(n.Cost >= 0 && n.Cost <= math.MaxFloat64) {
		return fmt.Errorf("cost rate %g is not finite and non-negative", n.Cost)
	}
	return nil
}

// Spec builds a node spec from explicit capacities; the first two are CPU
// and memory.
func Spec(caps ...float64) NodeSpec {
	return NodeSpec{Caps: append(Vec(nil), caps...)}
}

// Unit returns the reference node of the paper's homogeneous platform:
// capacity 1.0 x 1.0 over the two canonical dimensions.
func Unit() NodeSpec { return NodeSpec{Caps: Vec{1, 1}} }

// Dims returns the node's dimension count.
func (n NodeSpec) Dims() int { return len(n.Caps) }

// Cap returns the capacity in dimension k, or 0 for dimensions beyond the
// node's vector (a node has none of a resource it does not declare).
func (n NodeSpec) Cap(k int) float64 {
	if k >= len(n.Caps) {
		return 0
	}
	return n.Caps[k]
}

// CPUCap returns the CPU capacity (dimension 0).
func (n NodeSpec) CPUCap() float64 { return n.Caps[DimCPU] }

// MemCap returns the memory capacity (dimension 1).
func (n NodeSpec) MemCap() float64 { return n.Caps[DimMem] }

// isUnit reports whether the node is a d=2 reference node (capacity
// exactly 1.0 in CPU and memory and no further dimensions).
func (n NodeSpec) isUnit() bool {
	return len(n.Caps) == MinDims && n.Caps[DimCPU] == 1 && n.Caps[DimMem] == 1
}

// Equal reports whether both specs have identical capacity vectors and
// cost rates.
func (n NodeSpec) Equal(o NodeSpec) bool { return n.Cost == o.Cost && n.Caps.Equal(o.Caps) }

// WithCost returns a copy of the spec with the given cost rate.
func (n NodeSpec) WithCost(cost float64) NodeSpec {
	n.Cost = cost
	return n
}

// WithDims returns a copy of the spec extended (or truncated — never below
// MinDims) to d dimensions; new dimensions receive capacity fill. The cost
// rate is preserved.
func (n NodeSpec) WithDims(d int, fill float64) NodeSpec {
	if d < MinDims {
		d = MinDims
	}
	caps := make(Vec, d)
	copy(caps, n.Caps)
	for i := len(n.Caps); i < d; i++ {
		caps[i] = fill
	}
	return NodeSpec{Caps: caps, Cost: n.Cost}
}

// CanonicalDimName returns the conventional name of dimension k: "cpu",
// "mem", "gpu" for the conventional third axis, and "res<k>" beyond it.
// It is the single source of the naming rule shared by cluster metadata,
// trace column headers and simulator error messages.
func CanonicalDimName(k int) string {
	switch k {
	case DimCPU:
		return "cpu"
	case DimMem:
		return "mem"
	case 2:
		return "gpu"
	}
	return fmt.Sprintf("res%d", k)
}

// DefaultDimNames returns the canonical names of the first d dimensions
// (see CanonicalDimName).
func DefaultDimNames(d int) []string {
	names := make([]string, d)
	for i := range names {
		names[i] = CanonicalDimName(i)
	}
	return names
}

// Cluster is an immutable-by-convention set of nodes sharing one dimension
// count. Construct one with New, NewWithDims, Homogeneous or Profile;
// callers must not mutate Nodes or DimNames afterwards.
type Cluster struct {
	// Nodes holds one capacity vector per node, indexed by node id. All
	// nodes of a cluster have the same dimension count.
	Nodes []NodeSpec
	// DimNames optionally names the dimensions ("cpu", "mem", "gpu", ...).
	// Nil means DefaultDimNames(D()). When set its length must equal the
	// node dimension count.
	DimNames []string
}

// New builds a cluster from explicit node specs (the slice is copied).
func New(nodes []NodeSpec) *Cluster {
	return &Cluster{Nodes: append([]NodeSpec(nil), nodes...)}
}

// NewWithDims builds a cluster with explicit dimension names.
func NewWithDims(dimNames []string, nodes []NodeSpec) *Cluster {
	return &Cluster{
		Nodes:    append([]NodeSpec(nil), nodes...),
		DimNames: append([]string(nil), dimNames...),
	}
}

// Homogeneous returns the paper's platform: n reference nodes of capacity
// 1.0 x 1.0 over the two canonical dimensions.
func Homogeneous(n int) *Cluster {
	return &Cluster{Nodes: Uniform(n)}
}

// Uniform returns n reference node specs (capacity 1.0 x 1.0).
func Uniform(n int) []NodeSpec {
	nodes := make([]NodeSpec, n)
	for i := range nodes {
		nodes[i] = Unit()
	}
	return nodes
}

// N returns the number of nodes.
func (c *Cluster) N() int { return len(c.Nodes) }

// D returns the cluster's dimension count (MinDims for an empty cluster).
func (c *Cluster) D() int {
	if len(c.Nodes) == 0 {
		return MinDims
	}
	return c.Nodes[0].Dims()
}

// DimName returns the name of dimension k.
func (c *Cluster) DimName(k int) string {
	if k < len(c.DimNames) {
		return c.DimNames[k]
	}
	return CanonicalDimName(k)
}

// Cap returns node i's capacity in dimension k (0 beyond the cluster's
// dimensions).
func (c *Cluster) Cap(i, k int) float64 { return c.Nodes[i].Cap(k) }

// CPUCap returns node i's CPU capacity.
func (c *Cluster) CPUCap(i int) float64 { return c.Nodes[i].Caps[DimCPU] }

// MemCap returns node i's memory capacity.
func (c *Cluster) MemCap(i int) float64 { return c.Nodes[i].Caps[DimMem] }

// Cost returns node i's cost rate (price units per second of occupancy;
// 0 on unpriced platforms).
func (c *Cluster) Cost(i int) float64 { return c.Nodes[i].Cost }

// Priced reports whether any node carries a non-zero cost rate; the
// simulator skips cost accounting entirely on unpriced platforms.
func (c *Cluster) Priced() bool {
	for _, n := range c.Nodes {
		if n.Cost != 0 {
			return true
		}
	}
	return false
}

// TotalCap returns the cluster's aggregate capacity in dimension k.
func (c *Cluster) TotalCap(k int) float64 {
	var t float64
	for _, n := range c.Nodes {
		t += n.Cap(k)
	}
	return t
}

// TotalCPU returns the cluster's aggregate CPU capacity. For a homogeneous
// cluster this is exactly float64(n), matching the unit-capacity arithmetic
// the paper's formulas use.
func (c *Cluster) TotalCPU() float64 { return c.TotalCap(DimCPU) }

// Homogeneous reports whether every node is the d=2 reference node.
func (c *Cluster) Homogeneous() bool {
	for _, n := range c.Nodes {
		if !n.isUnit() {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (c *Cluster) Clone() *Cluster {
	return &Cluster{
		Nodes:    append([]NodeSpec(nil), c.Nodes...),
		DimNames: append([]string(nil), c.DimNames...),
	}
}

// WithDims returns a copy of the cluster extended to d dimensions; new
// dimensions receive capacity fill on every node and the given names (or
// the canonical defaults when names is nil). A cluster that already has at
// least d dimensions is returned unchanged (as a clone).
func (c *Cluster) WithDims(d int, fill float64, names []string) *Cluster {
	if d <= c.D() {
		return c.Clone()
	}
	out := &Cluster{Nodes: make([]NodeSpec, len(c.Nodes))}
	for i, n := range c.Nodes {
		out.Nodes[i] = n.WithDims(d, fill)
	}
	if names != nil {
		out.DimNames = append([]string(nil), names...)
	} else if c.DimNames != nil {
		out.DimNames = append(append([]string(nil), c.DimNames...), DefaultDimNames(d)[c.D():]...)
	}
	return out
}

// ExtendUnit returns the cluster extended to d dimensions with capacity
// 1.0 per node in each added dimension and the canonical dimension names —
// the shared rule by which the facade and the campaign engine make a
// demand axis (e.g. GPU jobs on a two-resource mix) satisfiable
// everywhere. A cluster already declaring at least d dimensions is
// returned as is.
func (c *Cluster) ExtendUnit(d int) *Cluster {
	if d <= c.D() {
		return c
	}
	return c.WithDims(d, 1, DefaultDimNames(d))
}

// Validate checks that the cluster is non-empty, that every node has the
// same dimension count (at least MinDims), that CPU and memory capacities
// are finite and positive, that extra dimensions and cost rates are finite
// and non-negative, and that DimNames (when set) matches the dimension
// count.
func (c *Cluster) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("cluster: no nodes")
	}
	d := c.Nodes[0].Dims()
	if d < MinDims {
		return fmt.Errorf("cluster: nodes have %d dimensions, want at least %d (cpu, mem)", d, MinDims)
	}
	for i, n := range c.Nodes {
		if n.Dims() != d {
			return fmt.Errorf("cluster: node %d has %d dimensions, node 0 has %d", i, n.Dims(), d)
		}
		if err := n.check(c.DimName); err != nil {
			return fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	if c.DimNames != nil && len(c.DimNames) != d {
		return fmt.Errorf("cluster: %d dimension names for %d dimensions", len(c.DimNames), d)
	}
	return nil
}
