package vectorpack

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/placement"
)

// newItem builds an item from explicit requirements; the first two are CPU
// and memory.
func newItem(req ...float64) Item {
	return Item{Req: append(cluster.Vec(nil), req...)}
}

var allPackers = []Packer{MCB8{}, FirstFitDecreasing{}, BestFitDecreasing{}}

func TestPackEmpty(t *testing.T) {
	for _, p := range allPackers {
		assign, ok := p.Pack(nil, cluster.Uniform(3))
		if !ok || len(assign) != 0 {
			t.Errorf("%s: empty pack failed", p.Name())
		}
	}
}

func TestPackSingleItem(t *testing.T) {
	for _, p := range allPackers {
		assign, ok := p.Pack([]Item{newItem(0.5, 0.5)}, cluster.Uniform(1))
		if !ok || assign[0] != 0 {
			t.Errorf("%s: single item pack: %v %v", p.Name(), assign, ok)
		}
	}
}

func TestPackInfeasible(t *testing.T) {
	// Three items of 0.6 memory cannot share two nodes.
	items := []Item{newItem(0.1, 0.6), newItem(0.1, 0.6), newItem(0.1, 0.6)}
	for _, p := range allPackers {
		if _, ok := p.Pack(items, cluster.Uniform(2)); ok {
			t.Errorf("%s: infeasible instance packed", p.Name())
		}
	}
}

func TestPackZeroNodes(t *testing.T) {
	items := []Item{newItem(0.1, 0.1)}
	for _, p := range allPackers {
		if _, ok := p.Pack(items, nil); ok {
			t.Errorf("%s: packed onto zero nodes", p.Name())
		}
		// Zero items onto zero nodes is trivially feasible.
		if _, ok := p.Pack(nil, nil); !ok {
			t.Errorf("%s: empty instance on zero nodes failed", p.Name())
		}
	}
}

func TestPackItemLargerThanAnyNode(t *testing.T) {
	// A 0.9 x 0.9 item cannot fit a cluster of 0.5-capacity thin nodes.
	thin := []cluster.NodeSpec{cluster.Spec(0.5, 0.5), cluster.Spec(0.5, 0.5)}
	items := []Item{newItem(0.9, 0.9)}
	for _, p := range allPackers {
		if _, ok := p.Pack(items, thin); ok {
			t.Errorf("%s: oversized item placed on thin nodes", p.Name())
		}
	}
	// The same item fits as soon as one node is fat enough.
	mixed := append([]cluster.NodeSpec{}, thin...)
	mixed = append(mixed, cluster.Spec(1, 1))
	for _, p := range allPackers {
		assign, ok := p.Pack(items, mixed)
		if !ok || assign[0] != 2 {
			t.Errorf("%s: oversized item not routed to the fat node: %v %v", p.Name(), assign, ok)
		}
	}
}

func TestPackExactFit(t *testing.T) {
	// Four 0.5x0.5 items exactly fill two nodes.
	items := []Item{
		newItem(0.5, 0.5), newItem(0.5, 0.5),
		newItem(0.5, 0.5), newItem(0.5, 0.5),
	}
	for _, p := range allPackers {
		assign, ok := p.Pack(items, cluster.Uniform(2))
		if !ok {
			t.Errorf("%s: exact fit failed", p.Name())
			continue
		}
		if err := Validate(items, assign, cluster.Uniform(2)); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

// TestPackCumulativeFit: every packer tests an item against its node's
// capacity net of the items already there (cluster.NodeSlots' rule), not
// against a free vector decremented one item at a time. Thirteen items of
// 0.07692307699999999 GPU fit the one unit GPU node under that rule; the
// decremented vector drifts a rounding step low and refuses the
// thirteenth. Two items a rounding step above half a node cannot share it.
func TestPackCumulativeFit(t *testing.T) {
	packers := slices.Concat(allPackers, []Packer{FirstFitDecreasing{Objective: placement.First{}}, BestFitDecreasing{Objective: placement.Cost{}}})
	gpuNodes := []cluster.NodeSpec{cluster.Spec(1, 1, 1)}
	for range 12 {
		gpuNodes = append(gpuNodes, cluster.Spec(1, 1, 0))
	}
	gpu := newItem(0, 0.01, 0.07692307699999999)
	gpuItems := make([]Item, 13)
	for i := range gpuItems {
		gpuItems[i] = gpu // shared Req: MCB8 packs them as one group
	}
	half := []Item{newItem(0.1, 0.5000000005), newItem(0.1, 0.5000000005)}
	for _, p := range packers {
		if assign, ok := p.Pack(gpuItems, gpuNodes); !ok || slices.ContainsFunc(assign, func(n int) bool { return n != 0 }) {
			t.Errorf("%s: 13 GPU items = %v (ok %v), want all on node 0", p.Name(), assign, ok)
		}
		if assign, ok := p.Pack(half, cluster.Uniform(2)); !ok || assign[0] == assign[1] {
			t.Errorf("%s: two items above half a node = %v (ok %v), want one per node", p.Name(), assign, ok)
		}
	}
}

// TestPackUnequalBins: six 0.5x0.5 items fit one 2.0 fat node plus one
// reference node (4 + 2 tasks) but not two reference nodes.
func TestPackUnequalBins(t *testing.T) {
	items := make([]Item, 6)
	for i := range items {
		items[i] = newItem(0.5, 0.5)
	}
	het := []cluster.NodeSpec{cluster.Spec(2, 2), cluster.Spec(1, 1)}
	for _, p := range allPackers {
		if _, ok := p.Pack(items, cluster.Uniform(2)); ok {
			t.Errorf("%s: six half-items packed into two reference nodes", p.Name())
		}
		assign, ok := p.Pack(items, het)
		if !ok {
			t.Errorf("%s: heterogeneous exact fit failed", p.Name())
			continue
		}
		if err := Validate(items, assign, het); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

// TestMCB8Balancing checks the defining property of MCB8: it packs
// complementary (CPU-heavy + memory-heavy) items together where a naive
// first fit would fragment. Two nodes, two CPU-heavy and two memory-heavy
// items that only fit pairwise complementary.
func TestMCB8Balancing(t *testing.T) {
	items := []Item{
		newItem(0.9, 0.1), // cpu-heavy
		newItem(0.9, 0.1),
		newItem(0.1, 0.9), // mem-heavy
		newItem(0.1, 0.9),
	}
	assign, ok := MCB8{}.Pack(items, cluster.Uniform(2))
	if !ok {
		t.Fatal("MCB8 failed a feasible complementary instance")
	}
	if err := Validate(items, assign, cluster.Uniform(2)); err != nil {
		t.Fatal(err)
	}
	// Each node must hold one of each kind.
	if assign[0] == assign[1] {
		t.Errorf("both CPU-heavy items on node %d: %v", assign[0], assign)
	}
	if assign[2] == assign[3] {
		t.Errorf("both memory-heavy items on node %d: %v", assign[2], assign)
	}
}

func TestValidate(t *testing.T) {
	items := []Item{newItem(0.7, 0.2), newItem(0.5, 0.2)}
	if err := Validate(items, []int{0, 0}, cluster.Uniform(1)); err == nil {
		t.Error("CPU oversubscription not detected")
	}
	if err := Validate(items, []int{0, 1}, cluster.Uniform(2)); err != nil {
		t.Errorf("valid assignment rejected: %v", err)
	}
	if err := Validate(items, []int{0}, cluster.Uniform(2)); err == nil {
		t.Error("length mismatch not detected")
	}
	if err := Validate(items, []int{0, 5}, cluster.Uniform(2)); err == nil {
		t.Error("out-of-range node not detected")
	}
	memItems := []Item{newItem(0.1, 0.8), newItem(0.1, 0.8)}
	if err := Validate(memItems, []int{0, 0}, cluster.Uniform(1)); err == nil {
		t.Error("memory oversubscription not detected")
	}
	// Per-node capacities: the same two items that oversubscribe a
	// reference node are fine on a fat node.
	fat := []cluster.NodeSpec{cluster.Spec(2, 2)}
	if err := Validate(items, []int{0, 0}, fat); err != nil {
		t.Errorf("fat-node assignment rejected: %v", err)
	}
}

// randomItems draws n items with requirements in (0, maxReq].
func randomItems(r *rand.Rand, n int, maxReq float64) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = newItem(
			r.Float64()*maxReq,
			0.01+r.Float64()*(maxReq-0.01),
		)
	}
	return items
}

// randomNodes draws n node specs with capacities in [0.5, 2.5).
func randomNodes(r *rand.Rand, n int) []cluster.NodeSpec {
	nodes := make([]cluster.NodeSpec, n)
	for i := range nodes {
		nodes[i] = cluster.Spec(
			0.5+2*r.Float64(),
			0.5+2*r.Float64(),
		)
	}
	return nodes
}

// Property: whenever a packer reports success, the assignment is valid —
// on homogeneous and heterogeneous clusters alike.
func TestPackSoundnessProperty(t *testing.T) {
	f := func(seed int64, nItems, nNodes uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(nNodes%16)
		items := randomItems(r, int(nItems%64), 0.8)
		for _, nodes := range [][]cluster.NodeSpec{cluster.Uniform(n), randomNodes(r, n)} {
			for _, p := range allPackers {
				assign, ok := p.Pack(items, nodes)
				if ok {
					if err := Validate(items, assign, nodes); err != nil {
						t.Logf("%s: %v", p.Name(), err)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: an instance where every item fits on its own node and there are
// enough nodes must always pack.
func TestPackTrivialFeasibilityProperty(t *testing.T) {
	f := func(seed int64, nItems uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nItems % 32)
		items := randomItems(r, n, 0.99)
		for _, p := range allPackers {
			if _, ok := p.Pack(items, cluster.Uniform(len(items))); n > 0 && !ok {
				t.Logf("%s failed with one node per item", p.Name())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"mcb8", "ffd", "bfd"} {
		p, err := ByName(name)
		if err != nil || p.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown packer accepted")
	}
}

// TestMCB8Determinism: identical inputs give identical assignments.
func TestMCB8Determinism(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	items := randomItems(r, 40, 0.5)
	for _, nodes := range [][]cluster.NodeSpec{cluster.Uniform(10), randomNodes(r, 10)} {
		a1, ok1 := MCB8{}.Pack(items, nodes)
		a2, ok2 := MCB8{}.Pack(items, nodes)
		if ok1 != ok2 {
			t.Fatal("determinism: ok flags differ")
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("determinism: assignments differ at %d", i)
			}
		}
	}
}

func BenchmarkMCB8Pack(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	items := randomItems(r, 500, 0.3)
	nodes := cluster.Uniform(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := (MCB8{}).Pack(items, nodes); !ok {
			b.Fatal("bench instance infeasible")
		}
	}
}

func BenchmarkMCB8PackHeterogeneous(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	items := randomItems(r, 500, 0.3)
	c, err := cluster.Profile(cluster.ProfileBimodal, 128)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := (MCB8{}).Pack(items, c.Nodes); !ok {
			b.Fatal("bench instance infeasible")
		}
	}
}
