// Package vectorpack implements d-dimensional vector packing heuristics for
// the DFRS resource-allocation problem: place tasks, each with a
// requirement vector over the cluster's resource dimensions (CPU, memory,
// and optionally GPU or further rigid resources, as fractions of the
// reference node), onto a cluster of nodes with individual capacity
// vectors (internal/cluster.NodeSpec). On the paper's homogeneous
// two-resource platform every bin is the 1.0 x 1.0 reference node and the
// heuristics reduce exactly to their published form; heterogeneous or
// higher-dimensional clusters simply present unequal, longer bins.
//
// The primary algorithm is MCB8, the multi-capacity bin-packing heuristic
// of Leinberger, Karypis and Kumar ("Multi-capacity bin packing algorithms
// with applications to job scheduling under multiple constraints", ICPP
// 1999) as used by Stillwell et al., generalized from two lists to d:
// every item is classified by its dominant dimension (the corner of the
// capacity space its requirement vector leans into), each of the d lists
// is sorted by non-increasing largest requirement, and nodes are filled
// one at a time, always trying lists in the order of the node's current
// per-dimension headroom so that the chosen item goes against the node's
// resource imbalance (the imbalance window). With d=2 this is exactly the
// published CPU-heavy/memory-heavy two-list scheme.
//
// The fill walks per-dimension block-skip lists (group chains with
// 64-group blocks carrying component minima and live bitmaps), so a node
// that cannot hold any group of a block skips the whole block, and the
// sorted-key jump proves the own dimension fits before any member test.
//
// On heterogeneous clusters all classification and sorting uses
// capacity-normalized requirements — each dimension divided by the
// cluster's mean per-node capacity in that dimension — so that "large" is
// judged relative to what the platform can hold, not in absolute reference
// units (absolute sorting misorders items when bins are unequal). On any
// cluster whose mean capacities are 1.0 — in particular the paper's
// homogeneous platform — normalization is exact identity and the packing
// is bit-for-bit the published one.
//
// First-fit-decreasing and best-fit-decreasing packers are provided as
// ablation baselines.
//
// Node choice is split from feasibility through the placement-objective
// layer (internal/placement): with an objective configured,
// FirstFitDecreasing and BestFitDecreasing route every bin choice through
// placement.Pick, and MCB8 opens bins in objective order (the within-bin
// imbalance-window fill is part of the algorithm and never delegated) — a
// cost objective therefore makes every packer fill cheap nodes first on
// priced inventories. With no objective the published loops run inlined;
// they are exactly the First (FFD) and BestFit (BFD, under the packers'
// mean-capacity normalization) objectives and the index bin order (MCB8),
// locked bit-for-bit by the frozen-copy tests.
//
// # Node-pattern replay
//
// A DYNMCB8 packing holds hundreds of tasks but only a dozen or so jobs,
// spread over many identical nodes, so consecutive nodes usually receive
// exactly the same sequence of jobs. Filling a node therefore records its
// pattern — the groups it took and how many items of each — and the
// following nodes in fill order with equal capacity vectors receive the
// same pattern directly, as many of them as every pattern group still has
// items for, with no seed search, headroom order or first-fit scan. The groups left after a node are a subset of those it
// saw, which makes every replayed node's search return exactly the
// recorded choices (the argument is spelled out on fill), so replay
// changes the time a packing takes and never its assignment. It is pinned
// by a differential test against the same items as singleton groups, which
// never replay, and by a replay count on a fixed instance.
package vectorpack

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/floats"
	"repro/internal/placement"
)

// Item is one task to pack. Req holds one requirement per cluster
// dimension (Req[cluster.DimCPU], Req[cluster.DimMem], ...), as fractions
// of the reference node. Items are identified by index so callers can map
// assignments back to (job, task) pairs; items of one job may share the
// same backing Req vector.
type Item struct {
	Req cluster.Vec
}

// Packer places items onto the given nodes (one NodeSpec per bin). Pack
// returns, for each item, the node index it was assigned to, and reports
// whether every item was placed. A failed pack returns a nil assignment.
// Every item's Req must have exactly the nodes' dimension count.
type Packer interface {
	Name() string
	Pack(items []Item, nodes []cluster.NodeSpec) (assign []int, ok bool)
}

// Validate checks that an assignment respects every node's capacities in
// every dimension; it is used by tests and the simulator's paranoia mode.
// A nil error means the assignment is feasible.
func Validate(items []Item, assign []int, nodes []cluster.NodeSpec) error {
	if len(assign) != len(items) {
		return fmt.Errorf("vectorpack: %d assignments for %d items", len(assign), len(items))
	}
	n := len(nodes)
	d := dims(nodes)
	used := make([]float64, n*d)
	for i, node := range assign {
		if node < 0 || node >= n {
			return fmt.Errorf("vectorpack: item %d assigned to node %d of %d", i, node, n)
		}
		if len(items[i].Req) != d {
			return fmt.Errorf("vectorpack: item %d has %d dimensions, nodes have %d", i, len(items[i].Req), d)
		}
		for k := 0; k < d; k++ {
			used[node*d+k] += items[i].Req[k]
		}
	}
	for node := 0; node < n; node++ {
		for k := 0; k < d; k++ {
			if floats.Greater(used[node*d+k], nodes[node].Caps[k]) {
				return fmt.Errorf("vectorpack: node %d dimension %d usage %.6f > capacity %.6f",
					node, k, used[node*d+k], nodes[node].Caps[k])
			}
		}
	}
	return nil
}

// dims returns the dimension count of the bin set (cluster.MinDims when
// empty).
func dims(nodes []cluster.NodeSpec) int {
	if len(nodes) == 0 {
		return cluster.MinDims
	}
	return nodes[0].Dims()
}

// meanCaps returns the per-dimension mean node capacity, the normalization
// the heuristics sort by. Dimensions with non-positive mean capacity (a
// resource no node has) normalize by 1 so zero demands stay zero instead
// of NaN. On the paper's homogeneous platform every entry is exactly 1.0
// and normalization is the identity.
func meanCaps(nodes []cluster.NodeSpec) cluster.Vec {
	return meanCapsInto(nodes, make(cluster.Vec, dims(nodes)))
}

// meanCapsInto is meanCaps computing into a caller-provided d-sized vector.
func meanCapsInto(nodes []cluster.NodeSpec, norm cluster.Vec) cluster.Vec {
	d := len(norm)
	for k := range norm {
		norm[k] = 0
	}
	for _, n := range nodes {
		for k := 0; k < d; k++ {
			norm[k] += n.Caps[k]
		}
	}
	for k := 0; k < d; k++ {
		norm[k] /= float64(len(nodes))
		if !(norm[k] > 0) {
			norm[k] = 1
		}
	}
	return norm
}

// normMax returns the item's largest capacity-normalized requirement, the
// sort key of every heuristic, and the dimension attaining it (ties go to
// the lowest dimension index, keeping the d=2 tie rule "CPU-heavy wins").
func normMax(req, norm cluster.Vec) (float64, int) {
	best, bestDim := math.Inf(-1), 0
	for k := range req {
		if v := req[k] / norm[k]; v > best {
			best, bestDim = v, k
		}
	}
	return best, bestDim
}

// fits reports whether the requirement vector fits the free vector in
// every dimension. The d=2 case — the paper's platform, and the packing
// hot path — is unrolled.
func fits(req cluster.Vec, free []float64) bool {
	if len(req) == 2 {
		return floats.LessEq(req[0], free[0]) && floats.LessEq(req[1], free[1])
	}
	for k := range req {
		if !floats.LessEq(req[k], free[k]) {
			return false
		}
	}
	return true
}

// fitsExcept is fits with one dimension already proven to fit (the chain
// scan's own dimension, established by the sorted-key jump in findFit).
func fitsExcept(req, free []float64, skip int) bool {
	if len(req) == 2 {
		o := 1 - skip
		return floats.LessEq(req[o], free[o])
	}
	for k := range req {
		if k != skip && !floats.LessEq(req[k], free[k]) {
			return false
		}
	}
	return true
}

// ObjectiveAware is implemented by packers whose node choice can be
// steered by a placement objective; the DYNMCB8 schedulers use it to
// thread the run's configured objective into their packer.
type ObjectiveAware interface {
	// WithObjective returns a copy of the packer applying the objective
	// (nil restores the published default).
	WithObjective(placement.Objective) Packer
}

// packState adapts a packer's free-capacity matrix (row-major, stride d)
// to placement.State. Cap returns the packing normalization — the
// cluster's mean per-dimension capacity, the same normalization the
// decreasing-order sorts use — so bestfit/worstfit slack is measured in
// the packers' canonical units; on the paper's homogeneous platform the
// normalization is the identity and Cap is the true node capacity.
type packState struct {
	d     int
	specs []cluster.NodeSpec
	free  []float64
	norm  cluster.Vec
}

// Dims implements placement.State.
func (s packState) Dims() int { return s.d }

// Cap implements placement.State (see packState).
func (s packState) Cap(node, k int) float64 { return s.norm[k] }

// Free implements placement.State.
func (s packState) Free(node, k int) float64 { return s.free[node*s.d+k] }

// CPULoad implements placement.State: the CPU already packed into the bin.
func (s packState) CPULoad(node int) float64 { return s.specs[node].Cap(0) - s.free[node*s.d] }

// Cost implements placement.State.
func (s packState) Cost(node int) float64 { return s.specs[node].Cost }

// vecDemand adapts a requirement vector to placement.Demand.
func vecDemand(req cluster.Vec) placement.Demand {
	return func(k int) float64 { return req[k] }
}

// MCB8 is the multi-capacity bin-packing heuristic used by every DYNMCB8
// scheduler variant, generalized to d dimensions. The zero value is ready
// to use. Objective, when non-nil, selects the order in which bins are
// opened (ascending score on the empty bin, ties by index); the default is
// the published index order.
type MCB8 struct {
	Objective placement.Objective
}

// Name returns "mcb8".
func (MCB8) Name() string { return "mcb8" }

// WithObjective implements ObjectiveAware.
func (m MCB8) WithObjective(obj placement.Objective) Packer {
	m.Objective = obj
	return m
}

// PackBuffer holds the scratch state of one MCB8.PackBuf call so repeated
// packings — the min-yield binary search runs dozens per scheduling event —
// reuse their allocations. The zero value is ready; a buffer must not be
// shared between concurrent packings. The assignment returned by PackBuf
// aliases the buffer and is only valid until the next PackBuf call with the
// same buffer.
//
// The buffer also keeps what depends only on the node set: the
// mean-capacity normalization and, under an objective, the bin opening
// order. Both are keyed on the identity of the nodes slice (its first
// element and length), so a node slice must not be modified in place
// between packings with one buffer; node sets are never modified once a
// cluster is built. The bin order belongs to the objective that computed
// it: a caller switching to another objective starts a fresh buffer.
type PackBuffer struct {
	assign []int
	// The node-set cache: nodesFirst/nodesLen identify the node slice that
	// norm and binOrder (nil until an objective asks for it) belong to.
	nodesFirst *cluster.NodeSpec
	nodesLen   int
	norm       cluster.Vec
	binOrder   []int

	// Packs counts PackBuf calls on the buffer and Replays the bins they
	// filled by replaying the previous bin's pattern; tests pin both.
	Packs, Replays int

	gFirst   []int // group -> index of its first (lowest) item
	gCount   []int // group -> number of items
	gUsed    []int // group -> items already placed this packing
	gMax     []float64
	gHeavy   []int
	listMem  []int // backing for the d per-dimension group lists
	listLen  []int
	listOff  []int
	listFill []int
	chains   []groupChain
	free     []float64
	used     []float64
	left     []float64
	dimOrder []int
	// The pattern of the node being filled: each group it took once, as
	// (list, position) in first-take order, with gTake[g] counting the
	// items of group g it took.
	pattern []patternTake
	gTake   []int
}

// patternTake names one group of a node's pattern by its list and position
// in that list's chain.
type patternTake struct{ list, pos int }

// chainBlock is the block size of groupChain's skip structure; a power of
// two so position→block is a shift.
const (
	chainShift = 6
	chainBlock = 1 << chainShift
)

// groupChain walks a sorted group order in blocks of chainBlock
// positions. Each block keeps the component-wise minimum requirement over
// its groups (computed once at reset — exhausting a group can only raise
// the true minimum, so the cached value stays a valid lower bound) and a
// bitmap of non-exhausted groups, so a first-fit scan skips a whole block
// in O(1) when the block's minimum cannot fit the free vector or no group
// in it is live, and within a visited block only live groups are touched.
// The scan resumes from a per-node mark: a node's free vector only
// shrinks while it is being filled, so positions that failed under a
// larger free vector can never fit it again and are never revisited
// (startNode rewinds the mark when a fresh node is opened). Every prune
// is exact — it only skips groups proven unable to fit — so the walk
// returns precisely the first fitting group of the published scan order.
type groupChain struct {
	order []int     // group ids in sorted order
	keys  []float64 // raw requirement in the list's own dimension, per position (non-increasing)
	bMin  []float64 // per block, stride d: min requirement over the block's groups
	bBits []uint64  // per block: bit q set = group at position blk*64+q live
	d     int
	dim   int // the dimension this list is sorted by
	mark  int
}

func (c *groupChain) reset(order []int, b *PackBuffer, items []Item, d, dim int) {
	c.order = order
	c.d = d
	c.dim = dim
	c.mark = 0
	if cap(c.keys) < len(order) {
		c.keys = make([]float64, len(order))
	}
	c.keys = c.keys[:len(order)]
	for q, g := range order {
		c.keys[q] = items[b.gFirst[g]].Req[dim]
	}
	nb := (len(order) + chainBlock - 1) >> chainShift
	if cap(c.bMin) < nb*d {
		c.bMin = make([]float64, nb*d)
	}
	c.bMin = c.bMin[:nb*d]
	if cap(c.bBits) < nb {
		c.bBits = make([]uint64, nb)
	}
	c.bBits = c.bBits[:nb]
	for blk := 0; blk < nb; blk++ {
		lo, hi := blk<<chainShift, (blk+1)<<chainShift
		if hi > len(order) {
			hi = len(order)
		}
		if hi-lo == chainBlock {
			c.bBits[blk] = ^uint64(0)
		} else {
			c.bBits[blk] = (uint64(1) << (hi - lo)) - 1
		}
		mn := c.bMin[blk*d : (blk+1)*d]
		copy(mn, items[b.gFirst[order[lo]]].Req)
		for q := lo + 1; q < hi; q++ {
			req := items[b.gFirst[order[q]]].Req
			for j := 0; j < d; j++ {
				if req[j] < mn[j] {
					mn[j] = req[j]
				}
			}
		}
	}
}

// startNode rewinds the scan mark to the start of the order for a freshly
// opened node.
func (c *groupChain) startNode() { c.mark = 0 }

// findFit returns the position of the first live group fitting the free
// vector, or -1. All items of a group share one requirement vector, so
// one fits test covers the whole group. The list is sorted non-increasing
// in its own dimension, so every position before the first one whose key
// fits free in that dimension provably fails; a binary search jumps the
// scan straight to that suffix. Past the jump every key fits the own
// dimension (the keys only decrease), so the scan tests only the other
// d-1 dimensions.
func (c *groupChain) findFit(b *PackBuffer, items []Item, free []float64) int {
	n := len(c.order)
	d := c.d
	q := c.mark
	if q < n && !floats.LessEq(c.keys[q], free[c.dim]) {
		q += sort.Search(n-q, func(i int) bool {
			return floats.LessEq(c.keys[q+i], free[c.dim])
		})
		c.mark = q // the skipped prefix can never fit this node again
	}
	for q < n {
		blk := q >> chainShift
		w := c.bBits[blk] &^ ((uint64(1) << (q & (chainBlock - 1))) - 1)
		if w == 0 || !fitsExcept(c.bMin[blk*d:(blk+1)*d], free, c.dim) {
			q = (blk + 1) << chainShift
			continue
		}
		for w != 0 {
			pos := blk<<chainShift + bits.TrailingZeros64(w)
			if fitsExcept(items[b.gFirst[c.order[pos]]].Req, free, c.dim) {
				c.mark = pos
				return pos
			}
			w &= w - 1
		}
		q = (blk + 1) << chainShift
	}
	c.mark = n
	return -1
}

// take consumes the next item of the group at position pos (items of a
// group are handed out in ascending index order, exactly the tie-by-index
// order of the per-item formulation), clears the group's live bit once
// empty, and records the take in the node's pattern.
func (b *PackBuffer) take(list, pos int) int {
	c := &b.chains[list]
	g := c.order[pos]
	item := b.gFirst[g] + b.gUsed[g]
	b.gUsed[g]++
	if b.gUsed[g] == b.gCount[g] {
		c.bBits[pos>>chainShift] &^= uint64(1) << (pos & (chainBlock - 1))
	}
	if b.gTake[g] == 0 {
		b.pattern = append(b.pattern, patternTake{list, pos})
	}
	b.gTake[g]++
	return item
}

// replay gives the bins at fill positions lo..hi-1 the pattern just
// recorded: every pattern group's next gTake[g] items per bin, ascending
// index, as take would hand them out. It clears the live bit of every group
// it exhausts, resets the pattern for the next node, and returns the number
// of items placed.
func (b *PackBuffer) replay(order []int, lo, hi int, assign []int) int {
	placed := 0
	for bi := lo; bi < hi; bi++ {
		node := binAt(order, bi)
		for _, e := range b.pattern {
			g := b.chains[e.list].order[e.pos]
			for u := b.gTake[g]; u > 0; u-- {
				assign[b.gFirst[g]+b.gUsed[g]] = node
				b.gUsed[g]++
			}
			placed += b.gTake[g]
		}
	}
	for _, e := range b.pattern {
		g := b.chains[e.list].order[e.pos]
		if b.gUsed[g] == b.gCount[g] {
			b.chains[e.list].bBits[e.pos>>chainShift] &^= uint64(1) << (e.pos & (chainBlock - 1))
		}
		b.gTake[g] = 0
	}
	b.pattern = b.pattern[:0]
	return placed
}

// Pack implements Packer.
func (m MCB8) Pack(items []Item, nodes []cluster.NodeSpec) ([]int, bool) {
	var b PackBuffer
	assign, ok := m.PackBuf(items, nodes, &b)
	if !ok {
		return nil, false
	}
	return assign, ok
}

// PackBuf is Pack with caller-provided scratch. Runs of consecutive items
// sharing one requirement vector (all tasks of one job, as built by the
// core allocators) are collapsed into a single group, so the classify/sort/
// first-fit machinery works on O(jobs) groups instead of O(tasks) items;
// items that share nothing degrade to singleton groups and reproduce the
// per-item algorithm exactly. The returned assignment aliases buf.
func (m MCB8) PackBuf(items []Item, nodes []cluster.NodeSpec, b *PackBuffer) ([]int, bool) {
	b.Packs++
	if len(items) == 0 {
		return []int{}, true
	}
	if len(nodes) == 0 {
		return nil, false
	}
	d := dims(nodes)
	norm := b.normFor(nodes, d)
	// Collapse adjacent items with the same backing requirement vector
	// into groups, classify every group by its dominant (largest
	// capacity-normalized) dimension — the corner of the capacity space it
	// leans into — and remember its sort key. Ties go to the lowest
	// dimension, so with d=2 an equal-requirement group counts as
	// CPU-heavy, as published.
	b.gFirst, b.gCount, b.gUsed, b.gMax = b.gFirst[:0], b.gCount[:0], b.gUsed[:0], b.gMax[:0]
	b.gHeavy = b.gHeavy[:0]
	if cap(b.listLen) < d {
		b.listLen = make([]int, d)
		b.listOff = make([]int, d+1)
		b.listFill = make([]int, d)
	}
	b.listLen, b.listOff, b.listFill = b.listLen[:d], b.listOff[:d+1], b.listFill[:d]
	for k := range b.listLen {
		b.listLen[k] = 0
	}
	for i := 0; i < len(items); {
		req := items[i].Req
		j := i + 1
		if len(req) > 0 {
			for j < len(items) && len(items[j].Req) == len(req) && &items[j].Req[0] == &req[0] {
				j++
			}
		}
		mx, heavy := normMax(req, norm)
		b.gFirst = append(b.gFirst, i)
		b.gCount = append(b.gCount, j-i)
		b.gUsed = append(b.gUsed, 0)
		b.gMax = append(b.gMax, mx)
		b.gHeavy = append(b.gHeavy, heavy)
		b.listLen[heavy]++
		i = j
	}
	// Bucket the groups into the d per-dimension lists (one shared backing
	// array, offsets from the counts) and sort each list by non-increasing
	// largest normalized requirement, ties by first item index — the exact
	// expansion of the per-item (key desc, index asc) order, since a
	// group's items occupy consecutive indices.
	if cap(b.listMem) < len(b.gFirst) {
		b.listMem = make([]int, len(b.gFirst))
	}
	b.listMem = b.listMem[:len(b.gFirst)]
	off := b.listOff
	off[0] = 0
	for k := 0; k < d; k++ {
		off[k+1] = off[k] + b.listLen[k]
		b.listFill[k] = off[k]
	}
	for g, heavy := range b.gHeavy {
		b.listMem[b.listFill[heavy]] = g
		b.listFill[heavy]++
	}
	if cap(b.chains) < d {
		b.chains = make([]groupChain, d)
	}
	b.chains = b.chains[:d]
	for k := 0; k < d; k++ {
		list := b.listMem[off[k]:off[k+1]]
		slices.SortFunc(list, func(ga, gb int) int {
			if b.gMax[ga] != b.gMax[gb] {
				if b.gMax[ga] > b.gMax[gb] {
					return -1
				}
				return 1
			}
			return b.gFirst[ga] - b.gFirst[gb]
		})
		b.chains[k].reset(list, b, items, d, k)
	}
	// The published kernel opens bins in index order; only a configured
	// objective pays for an explicit order, once per node set.
	var order []int
	if m.Objective != nil {
		if b.binOrder == nil {
			b.binOrder = binOrder(m.Objective, nodes, d, norm)
		}
		order = b.binOrder
	}
	return b.fill(items, nodes, d, order)
}

// fill runs PackBuf's bin-filling phase: the chains in b hold each
// dimension's group list in (key desc, first-item asc) order, and the loop
// below is the only consumer of that order. order is the bin opening order
// (nil: index order). Bins filled by replay are added to b.Replays.
//
// After filling a node, fill replays its pattern onto the following bins
// in fill order with equal capacity vectors, as many as every pattern
// group still has items for. That is exact. Groups only
// leave the live set, so at every step of a later node the live set is a
// subset of the live set at the same step of the recorded one. While every
// pattern group still holds its per-node count, the group chosen at each
// step is still live; the usage and remainder vectors have gone through
// the same updates from the same capacities, so the headroom order and every
// fit test repeat; and the first live fitting group of a list, taken from a
// subset that still contains the recorded choice, is that same choice. The
// seed repeats too: any other list's first fit can only move later in its
// list, to an equal or smaller key. The closing "nothing fits" repeats for
// the same reason, and a node that took nothing leaves every identical
// node after it empty as well. Items of a group go out in ascending index
// either way, so the assignment matches item for item.
func (b *PackBuffer) fill(items []Item, nodes []cluster.NodeSpec, d int, order []int) ([]int, bool) {
	// No reset of assign: a pack succeeds only once every item is placed,
	// and a failed one returns no assignment.
	b.assign = slices.Grow(b.assign[:0], len(items))[:len(items)]
	assign := b.assign
	if cap(b.free) < d {
		b.free = make([]float64, d)
		b.used = make([]float64, d)
		b.left = make([]float64, d)
		b.dimOrder = make([]int, d)
	}
	b.free, b.used, b.left, b.dimOrder = b.free[:d], b.used[:d], b.left[:d], b.dimOrder[:d]
	b.gTake = slices.Grow(b.gTake[:0], len(b.gCount))[:len(b.gCount)]
	clear(b.gTake)
	b.pattern = b.pattern[:0]
	placed := 0
	for bi := 0; bi < len(nodes) && placed < len(items); bi++ {
		node := binAt(order, bi)
		caps := nodes[node].Caps
		placed += b.fillNode(items, node, caps, assign)
		r := len(nodes) - 1 - bi
		for _, e := range b.pattern {
			g := b.chains[e.list].order[e.pos]
			if n := (b.gCount[g] - b.gUsed[g]) / b.gTake[g]; n < r {
				r = n
			}
		}
		run := 0
		for run < r && caps.Equal(nodes[binAt(order, bi+1+run)].Caps) {
			run++
		}
		placed += b.replay(order, bi+1, bi+1+run, assign)
		bi += run
		b.Replays += run
	}
	if placed < len(items) {
		return nil, false
	}
	return assign, true
}

// fillNode fills one node by the imbalance-window search, recording its
// pattern, and returns the number of items placed.
func (b *PackBuffer) fillNode(items []Item, node int, caps cluster.Vec, assign []int) int {
	free, used, left, dimOrder := b.free, b.used, b.left, b.dimOrder
	d := len(free)
	copy(free, caps)
	copy(left, caps)
	clear(used)
	for k := 0; k < d; k++ {
		b.chains[k].startNode()
	}
	// Seed the node with the first fitting item of any list, preferring the
	// one with the overall largest normalized requirement (the original
	// algorithm picks arbitrarily; this choice is deterministic and matches
	// the sort order — ties go to the lowest list, the published CPU-first
	// rule). On a reference node every item fits, so each list's candidate
	// is its head and the behaviour is identical to the homogeneous
	// algorithm; a thin node may have to skip items too large for it.
	seedList, seedPos := -1, -1
	best := math.Inf(-1)
	for k := 0; k < d; k++ {
		pos := b.chains[k].findFit(b, items, free)
		if pos < 0 {
			continue
		}
		if g := b.chains[k].order[pos]; b.gMax[g] > best {
			best = b.gMax[g]
			seedList, seedPos = k, pos
		}
	}
	if seedList < 0 {
		return 0
	}
	idx := b.take(seedList, seedPos)
	placed := 0
	// Keep filling: try the lists in order of the node's remaining
	// per-dimension headroom, measured relative to the node's own
	// capacities, so the chosen item goes against the current imbalance (on
	// equal-ratio nodes — every built-in d=2 profile and the reference node
	// — this is exactly the absolute comparison of the published algorithm;
	// ties keep the lower dimension first, the published CPU-primary rule).
	// The order reads left, the capacity decremented item by item as
	// published: its rounding decides which equal-ratio dimensions tie, and
	// campaign outputs depend on it. Fit tests read free.
	for idx >= 0 {
		assign[idx] = node
		occupy(free, used, caps, items[idx].Req)
		for k, r := range items[idx].Req {
			left[k] -= r
		}
		placed++
		headroomOrder(left, caps, dimOrder)
		idx = -1
		for _, k := range dimOrder {
			if pos := b.chains[k].findFit(b, items, free); pos >= 0 {
				idx = b.take(k, pos)
				break
			}
		}
	}
	return placed
}

// binAt returns the bin opened at fill position bi: bi itself in the
// published index order, order[bi] under an objective.
func binAt(order []int, bi int) int {
	if order != nil {
		return order[bi]
	}
	return bi
}

// normFor returns the mean-capacity normalization of nodes, computing it
// (and dropping the bin order, which depends on it) when the node set is
// not the one the buffer last saw.
func (b *PackBuffer) normFor(nodes []cluster.NodeSpec, d int) cluster.Vec {
	if b.nodesFirst == &nodes[0] && b.nodesLen == len(nodes) && len(b.norm) == d {
		return b.norm
	}
	if cap(b.norm) < d {
		b.norm = make(cluster.Vec, d)
	}
	b.norm = meanCapsInto(nodes, b.norm[:d])
	b.nodesFirst, b.nodesLen = &nodes[0], len(nodes)
	b.binOrder = nil
	return b.norm
}

// binIndices is the identity bin order of the published kernels.
func binIndices(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// binOrder returns the order in which a packer opens bins: the published
// index order when obj is nil, otherwise ascending objective score on the
// empty bin (zero demand), ties by index — so a cost objective opens cheap
// bins first while score-uniform objectives keep the published order.
func binOrder(obj placement.Objective, nodes []cluster.NodeSpec, d int, norm cluster.Vec) []int {
	if obj == nil {
		return binIndices(len(nodes))
	}
	st := packState{d: d, specs: nodes, free: freeCaps(nodes, d), norm: norm}
	return placement.Rank(binIndices(len(nodes)), placement.ZeroDemand, st, obj)
}

// headroomOrder fills order with the dimension indices sorted by
// non-increasing relative headroom free[k]/caps[k]; ties keep the lower
// dimension first (insertion sort with strict comparison — d is small).
// Zero-capacity dimensions (a node without that resource) have no headroom
// and sort last.
func headroomOrder(free []float64, caps cluster.Vec, order []int) {
	ratio := func(k int) float64 {
		if caps[k] > 0 {
			return free[k] / caps[k]
		}
		return math.Inf(-1)
	}
	for k := range order {
		order[k] = k
	}
	for i := 1; i < len(order); i++ {
		k := order[i]
		r := ratio(k)
		j := i - 1
		for j >= 0 && ratio(order[j]) < r {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = k
	}
}

// FirstFitDecreasing packs items in non-increasing order of their largest
// capacity-normalized requirement onto the first node with room in every
// dimension. Ablation baseline A3. The node choice routes through the
// placement layer: the published first-fit rule is exactly the First
// objective (the zero value's default), and a configured objective (cost,
// bestfit, ...) replaces it under the same feasibility filter.
type FirstFitDecreasing struct {
	Objective placement.Objective
}

// Name returns "ffd".
func (FirstFitDecreasing) Name() string { return "ffd" }

// WithObjective implements ObjectiveAware.
func (p FirstFitDecreasing) WithObjective(obj placement.Objective) Packer {
	p.Objective = obj
	return p
}

// Pack implements Packer. The nil-objective path is the published
// first-fit loop inlined (it sits inside DYNMCB8 binary searches, where
// the scoring indirection is measurable); it is exactly the First
// objective, locked bit-for-bit by TestPackersMatchFrozenPR4Copies.
func (p FirstFitDecreasing) Pack(items []Item, nodes []cluster.NodeSpec) ([]int, bool) {
	if p.Objective != nil {
		return packDecreasing(items, nodes, p.Objective)
	}
	d := dims(nodes)
	norm := meanCaps(nodes)
	order := sortedByNormMax(items, norm)
	assign := make([]int, len(items))
	for i := range assign {
		assign[i] = -1
	}
	free, used := freeCaps(nodes, d), make([]float64, len(nodes)*d)
	for _, idx := range order {
		placedNode := -1
		for node := range nodes {
			if fits(items[idx].Req, free[node*d:(node+1)*d]) {
				placedNode = node
				break
			}
		}
		if placedNode < 0 {
			return nil, false
		}
		assign[idx] = placedNode
		row := placedNode * d
		occupy(free[row:row+d], used[row:row+d], nodes[placedNode].Caps, items[idx].Req)
	}
	return assign, true
}

// BestFitDecreasing packs items in non-increasing order of largest
// capacity-normalized requirement onto the feasible node with the least
// remaining slack (the normalized sum of leftover capacities). Ablation
// baseline A3. The node choice routes through the placement layer: the
// published slack rule is exactly the BestFit objective under the packers'
// mean-capacity normalization (the zero value's default), and a configured
// objective replaces it under the same feasibility filter.
type BestFitDecreasing struct {
	Objective placement.Objective
}

// Name returns "bfd".
func (BestFitDecreasing) Name() string { return "bfd" }

// WithObjective implements ObjectiveAware.
func (p BestFitDecreasing) WithObjective(obj placement.Objective) Packer {
	p.Objective = obj
	return p
}

// Pack implements Packer. The nil-objective path is the published
// best-fit loop inlined (see FirstFitDecreasing.Pack); it is exactly the
// BestFit objective under the packers' mean-capacity normalization, locked
// bit-for-bit by TestPackersMatchFrozenPR4Copies.
func (p BestFitDecreasing) Pack(items []Item, nodes []cluster.NodeSpec) ([]int, bool) {
	if p.Objective != nil {
		return packDecreasing(items, nodes, p.Objective)
	}
	d := dims(nodes)
	norm := meanCaps(nodes)
	order := sortedByNormMax(items, norm)
	assign := make([]int, len(items))
	for i := range assign {
		assign[i] = -1
	}
	free, used := freeCaps(nodes, d), make([]float64, len(nodes)*d)
	for _, idx := range order {
		best := -1
		bestSlack := math.Inf(1)
		for node := range nodes {
			nodeFree := free[node*d : (node+1)*d]
			if !fits(items[idx].Req, nodeFree) {
				continue
			}
			slack := 0.0
			for k := 0; k < d; k++ {
				slack += (nodeFree[k] - items[idx].Req[k]) / norm[k]
			}
			if slack < bestSlack {
				bestSlack = slack
				best = node
			}
		}
		if best < 0 {
			return nil, false
		}
		assign[idx] = best
		row := best * d
		occupy(free[row:row+d], used[row:row+d], nodes[best].Caps, items[idx].Req)
	}
	return assign, true
}

// packDecreasing is the shared decreasing-order packing loop of FFD/BFD:
// items in non-increasing largest-normalized-requirement order, each
// placed on the feasible node minimizing the objective score (ties to the
// lowest index).
func packDecreasing(items []Item, nodes []cluster.NodeSpec, obj placement.Objective) ([]int, bool) {
	d := dims(nodes)
	norm := meanCaps(nodes)
	order := sortedByNormMax(items, norm)
	assign := make([]int, len(items))
	for i := range assign {
		assign[i] = -1
	}
	st := packState{d: d, specs: nodes, free: freeCaps(nodes, d), norm: norm}
	used := make([]float64, len(nodes)*d)
	for _, idx := range order {
		req := items[idx].Req
		feasible := func(node int) bool {
			return fits(req, st.free[node*d:(node+1)*d])
		}
		best := placement.Pick(len(nodes), vecDemand(req), st, feasible, obj)
		if best < 0 {
			return nil, false
		}
		assign[idx] = best
		row := best * d
		occupy(st.free[row:row+d], used[row:row+d], nodes[best].Caps, req)
	}
	return assign, true
}

// ByName returns the packer registered under name ("mcb8", "ffd", "bfd").
func ByName(name string) (Packer, error) {
	switch name {
	case "mcb8":
		return MCB8{}, nil
	case "ffd":
		return FirstFitDecreasing{}, nil
	case "bfd":
		return BestFitDecreasing{}, nil
	}
	return nil, fmt.Errorf("vectorpack: unknown packer %q", name)
}

// sortedByNormMax returns item indices by non-increasing largest
// normalized requirement, ties by index.
func sortedByNormMax(items []Item, norm cluster.Vec) []int {
	keys := make([]float64, len(items))
	for i, it := range items {
		keys[i], _ = normMax(it.Req, norm)
	}
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if keys[order[a]] != keys[order[b]] {
			return keys[order[a]] > keys[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// occupy adds req to a node's usage and sets its free vector to capacity
// minus usage, so each later fit test is the cumulative rule of
// cluster.NodeSlots, floats.LessEq(req, caps-used), rather than a test
// against a vector decremented one item at a time.
func occupy(free, used []float64, caps, req cluster.Vec) {
	for k := range free {
		used[k] += req[k]
		free[k] = caps[k] - used[k]
	}
}

// freeCaps returns the per-node free-capacity matrix (row-major, stride d)
// initialized to each node's capacities.
func freeCaps(nodes []cluster.NodeSpec, d int) []float64 {
	free := make([]float64, len(nodes)*d)
	for i, n := range nodes {
		copy(free[i*d:(i+1)*d], n.Caps)
	}
	return free
}
