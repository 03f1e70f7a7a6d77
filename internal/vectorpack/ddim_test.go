package vectorpack

// Tests for the d-dimensional generalization of the packing kernel:
//
//   - a frozen copy of the historical two-list MCB8 (exactly the PR 3
//     implementation) pins the d=2 behaviour on reference nodes — the
//     generalized kernel must reproduce its assignments bit-for-bit;
//   - property tests drive random items and node vectors through every
//     packer in 2, 3 and 4 dimensions: every successful Pack must satisfy
//     Validate;
//   - directed tests cover the capacity-normalized sorting bugfix and the
//     GPU-dimension routing.

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/floats"
)

// chain is the historical per-item singly linked list over a sorted item
// order (the production kernel now chains same-requirement groups); it is
// kept here verbatim as part of the frozen PR 3 reference below.
type chain struct {
	order []int // item indices in sorted order
	next  []int // next[k] = position after k in the chain, len(order) = end
	head  int
}

func newChain(order []int) *chain {
	c := &chain{order: order, next: make([]int, len(order)), head: 0}
	for k := range c.next {
		c.next[k] = k + 1
	}
	return c
}

// unlink removes position pos (whose predecessor is prev, -1 for the head)
// from the chain.
func (c *chain) unlink(pos, prev int) {
	if prev < 0 {
		c.head = c.next[pos]
	} else {
		c.next[prev] = c.next[pos]
	}
}

// legacyMCB8Pack is the historical two-resource MCB8 exactly as shipped in
// PR 3 (absolute-requirement sorting, CPU/memory lists), kept verbatim as
// the reference for the d=2 equivalence lock below.
func legacyMCB8Pack(items []Item, nodes []cluster.NodeSpec) ([]int, bool) {
	if len(items) == 0 {
		return []int{}, true
	}
	itemCPU := func(i int) float64 { return items[i].Req[0] }
	itemMem := func(i int) float64 { return items[i].Req[1] }
	max2 := func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	var cpuHeavy, memHeavy []int
	for i := range items {
		if itemCPU(i) >= itemMem(i) {
			cpuHeavy = append(cpuHeavy, i)
		} else {
			memHeavy = append(memHeavy, i)
		}
	}
	byMaxReq := func(list []int) {
		sort.SliceStable(list, func(a, b int) bool {
			ma := max2(itemCPU(list[a]), itemMem(list[a]))
			mb := max2(itemCPU(list[b]), itemMem(list[b]))
			if ma != mb {
				return ma > mb
			}
			return list[a] < list[b]
		})
	}
	byMaxReq(cpuHeavy)
	byMaxReq(memHeavy)
	cpuChain := newChain(cpuHeavy)
	memChain := newChain(memHeavy)

	findFit2 := func(c *chain, cpuFree, memFree float64) (pos, prev int) {
		prev = -1
		for k := c.head; k < len(c.order); k = c.next[k] {
			idx := c.order[k]
			if floats.LessEq(itemCPU(idx), cpuFree) && floats.LessEq(itemMem(idx), memFree) {
				return k, prev
			}
			prev = k
		}
		return -1, -1
	}
	firstFit2 := func(c *chain, cpuFree, memFree float64) int {
		pos, prev := findFit2(c, cpuFree, memFree)
		if pos < 0 {
			return -1
		}
		c.unlink(pos, prev)
		return c.order[pos]
	}
	itemMax := func(c *chain, pos int) float64 {
		return max2(itemCPU(c.order[pos]), itemMem(c.order[pos]))
	}

	assign := make([]int, len(items))
	for i := range assign {
		assign[i] = -1
	}
	placed := 0
	for node := 0; node < len(nodes) && placed < len(items); node++ {
		cpuFree, memFree := nodes[node].CPUCap(), nodes[node].MemCap()
		cPos, cPrev := findFit2(cpuChain, cpuFree, memFree)
		mPos, mPrev := findFit2(memChain, cpuFree, memFree)
		var seed int
		switch {
		case cPos < 0 && mPos < 0:
			continue
		case mPos < 0 || (cPos >= 0 && itemMax(cpuChain, cPos) >= itemMax(memChain, mPos)):
			seed = cpuChain.order[cPos]
			cpuChain.unlink(cPos, cPrev)
		default:
			seed = memChain.order[mPos]
			memChain.unlink(mPos, mPrev)
		}
		assign[seed] = node
		cpuFree -= itemCPU(seed)
		memFree -= itemMem(seed)
		placed++
		for {
			var primary, secondary *chain
			if cpuFree/nodes[node].CPUCap() >= memFree/nodes[node].MemCap() {
				primary, secondary = cpuChain, memChain
			} else {
				primary, secondary = memChain, cpuChain
			}
			idx := firstFit2(primary, cpuFree, memFree)
			if idx < 0 {
				idx = firstFit2(secondary, cpuFree, memFree)
			}
			if idx < 0 {
				break
			}
			assign[idx] = node
			cpuFree -= itemCPU(idx)
			memFree -= itemMem(idx)
			placed++
		}
	}
	if placed < len(items) {
		return nil, false
	}
	return assign, true
}

// TestMCB8MatchesLegacyOnReferenceNodes is the d=2 equivalence lock:
// on clusters of reference nodes the generalized kernel must return
// exactly the assignments of the historical two-list implementation, item
// by item, over a large randomized corpus. The second half of the corpus
// groups items into jobs sharing one Req slice, so the kernel replays
// node patterns across the identical reference nodes while the per-item
// legacy kernel searches every node.
func TestMCB8MatchesLegacyOnReferenceNodes(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 1000; trial++ {
		n := 1 + r.Intn(24)
		items := randomItems(r, r.Intn(80), 0.9)
		if trial >= 500 {
			items, _ = groupedItems(randomReplayJobs(r, 2))
			n = 1 + r.Intn(64)
		}
		nodes := cluster.Uniform(n)
		want, wantOK := legacyMCB8Pack(items, nodes)
		got, gotOK := MCB8{}.Pack(items, nodes)
		if wantOK != gotOK {
			t.Fatalf("trial %d: ok=%v, legacy ok=%v", trial, gotOK, wantOK)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: item %d on node %d, legacy packs node %d",
					trial, i, got[i], want[i])
			}
		}
	}
}

// randomItemsD draws n items with d-dimensional requirements; dimensions
// beyond CPU/memory may be zero (a job without GPU demand).
func randomItemsD(r *rand.Rand, n, d int, maxReq float64) []Item {
	items := make([]Item, n)
	for i := range items {
		req := make(cluster.Vec, d)
		req[0] = r.Float64() * maxReq
		req[1] = 0.01 + r.Float64()*(maxReq-0.01)
		for k := 2; k < d; k++ {
			if r.Intn(2) == 0 {
				req[k] = r.Float64() * maxReq
			}
		}
		items[i] = Item{Req: req}
	}
	return items
}

// randomNodesD draws n node specs with d dimensions: CPU/memory in
// [0.5, 2.5), extra dimensions in [0, 2) with occasional zero-capacity
// nodes (no GPU).
func randomNodesD(r *rand.Rand, n, d int) []cluster.NodeSpec {
	nodes := make([]cluster.NodeSpec, n)
	for i := range nodes {
		caps := make(cluster.Vec, d)
		caps[0] = 0.5 + 2*r.Float64()
		caps[1] = 0.5 + 2*r.Float64()
		for k := 2; k < d; k++ {
			if r.Intn(3) > 0 {
				caps[k] = 2 * r.Float64()
			}
		}
		nodes[i] = cluster.NodeSpec{Caps: caps}
	}
	return nodes
}

// Property: in every dimension count, whenever a packer reports success
// the assignment respects every node's capacity vector.
func TestPackSoundnessPropertyDDim(t *testing.T) {
	f := func(seed int64, nItems, nNodes, dd uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(nNodes%12)
		d := 2 + int(dd%3) // 2, 3 or 4 dimensions
		items := randomItemsD(r, int(nItems%48), d, 0.8)
		for _, nodes := range [][]cluster.NodeSpec{
			{cluster.Unit().WithDims(d, 1)}, // degenerate single node
			randomNodesD(r, n, d),
		} {
			for _, p := range allPackers {
				assign, ok := p.Pack(items, nodes)
				if !ok {
					continue
				}
				if err := Validate(items, assign, nodes); err != nil {
					t.Logf("%s d=%d: %v", p.Name(), d, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a d-dimensional instance with one dedicated unit node per item
// always packs (every item fits alone on a reference node).
func TestPackTrivialFeasibilityPropertyDDim(t *testing.T) {
	f := func(seed int64, nItems, dd uint8) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + int(dd%3)
		n := int(nItems % 24)
		items := randomItemsD(r, n, d, 0.99)
		nodes := make([]cluster.NodeSpec, n)
		for i := range nodes {
			nodes[i] = cluster.Unit().WithDims(d, 1)
		}
		for _, p := range allPackers {
			if _, ok := p.Pack(items, nodes); n > 0 && !ok {
				t.Logf("%s failed with one unit node per item (d=%d)", p.Name(), d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPackGPURouting: items with a GPU demand must land on the GPU nodes;
// GPU-less items may go anywhere. One 2-GPU node plus two GPU-less nodes.
func TestPackGPURouting(t *testing.T) {
	nodes := []cluster.NodeSpec{
		cluster.Spec(1, 1, 0),
		cluster.Spec(1, 1, 2),
		cluster.Spec(1, 1, 0),
	}
	items := []Item{
		newItem(0.2, 0.2, 1.0), // gpu task
		newItem(0.2, 0.2, 1.0), // gpu task
		newItem(0.2, 0.2, 0),
		newItem(0.2, 0.2, 0),
	}
	for _, p := range allPackers {
		assign, ok := p.Pack(items, nodes)
		if !ok {
			t.Fatalf("%s: feasible gpu instance failed", p.Name())
		}
		if err := Validate(items, assign, nodes); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if assign[0] != 1 || assign[1] != 1 {
			t.Errorf("%s: gpu tasks on nodes %d,%d, want the gpu node 1", p.Name(), assign[0], assign[1])
		}
	}
	// Three GPU tasks exceed the single 2-GPU node.
	over := append(items[:2:2], newItem(0.1, 0.1, 1.0))
	for _, p := range allPackers {
		if _, ok := p.Pack(over, nodes); ok {
			t.Errorf("%s: packed 3 gpu units onto a 2-gpu cluster", p.Name())
		}
	}
}

// TestNormalizedSortingOnUnequalBins pins the heterogeneity bugfix: on
// unequal bins items are ordered by capacity-normalized requirement, so a
// memory-demand that is large relative to the platform is placed before an
// absolutely-larger CPU demand on a CPU-rich cluster.
func TestNormalizedSortingOnUnequalBins(t *testing.T) {
	// Mean caps: cpu 4, mem 1. Item A (cpu 0.9) normalizes to 0.225;
	// item B (mem 0.8) normalizes to 0.8 and must sort first.
	nodes := []cluster.NodeSpec{cluster.Spec(6, 1), cluster.Spec(2, 1)}
	items := []Item{newItem(0.9, 0.1), newItem(0.1, 0.8)}
	norm := meanCaps(nodes)
	if norm[0] != 4 || norm[1] != 1 {
		t.Fatalf("meanCaps = %v", norm)
	}
	order := sortedByNormMax(items, norm)
	if order[0] != 1 || order[1] != 0 {
		t.Fatalf("normalized order = %v, want the memory-heavy item first", order)
	}
	// And on the reference platform the normalization is the identity:
	// the absolutely-larger item keeps first place.
	unitOrder := sortedByNormMax(items, meanCaps(cluster.Uniform(2)))
	if unitOrder[0] != 0 {
		t.Fatalf("unit-cluster order = %v, want the 0.9-CPU item first", unitOrder)
	}
}

// TestMeanCapsZeroDimension: a dimension no node provides normalizes by 1
// (not 0), so zero demands stay zero instead of NaN.
func TestMeanCapsZeroDimension(t *testing.T) {
	nodes := []cluster.NodeSpec{cluster.Spec(1, 1, 0), cluster.Spec(1, 1, 0)}
	norm := meanCaps(nodes)
	if norm[2] != 1 {
		t.Fatalf("zero-capacity dimension normalizes by %g, want 1", norm[2])
	}
	items := []Item{newItem(0.5, 0.5, 0)}
	for _, p := range allPackers {
		assign, ok := p.Pack(items, nodes)
		if !ok || assign[0] < 0 {
			t.Fatalf("%s: gpu-less item failed on a gpu-less 3-dim cluster", p.Name())
		}
	}
}
