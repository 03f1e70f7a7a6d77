package vectorpack

import (
	"slices"

	"repro/internal/cluster"
)

// repackMaxDelta bounds how many group insertions plus removals the warm
// path absorbs incrementally; a larger structural change re-sorts from
// scratch (one event rarely changes more than a handful of jobs, and past
// a few dozen the incremental bookkeeping costs more than the sort).
const repackMaxDelta = 32

// RepackState carries one MCB8 packing instance's sorted group orders and
// cached normalization across PackWarm calls, so consecutive packings —
// which differ by one arrival or completion, or only by a rescaled yield
// inside the min-yield binary search — skip the full classify-and-sort
// phase. The state is advisory: PackWarm verifies every cached order
// against the current requirement values before using it and falls back
// to a fresh sort on any divergence, so its result is always identical to
// PackBuf on the same inputs (pinned by the differential property test).
//
// A state is keyed to one packer configuration and one PackBuffer: reuse
// it only for the same MCB8 value, and call Invalidate (or let the
// verification fallback absorb it) when the instance it tracks changes
// wholesale. The zero value is ready to use.
type RepackState struct {
	// Cached normalization, keyed on the identity of the nodes slice
	// (node sets are immutable for a simulation run, so pointer+length
	// equality means the per-dimension means are unchanged).
	nodesPtr *cluster.NodeSpec
	nodesLen int
	norm     cluster.Vec

	// Cached objective bin order for the same node set: it depends only on
	// the objective, the nodes and norm, scored with every bin empty.
	binOrder   []int
	binOrderOK bool

	// Previous instance's group structure: per-group item count and a
	// copy of the full requirement vector (stride d). Rigid dimensions
	// (1..d-1) identify a group across packings — the CPU entry is
	// rewritten by every yield probe — and the full vector backs the
	// exact-repeat fast path.
	valid  bool
	d      int
	gCount []int
	gReq   []float64

	// orders[k] holds all group ids sorted by requirement in dimension k
	// (descending, ties by first item index) as of the last time the
	// order was sorted or incrementally patched. PackWarm re-verifies an
	// order against current values whenever dimension k's list is
	// non-empty.
	orders [][]int

	// Previous pack's outcome for the exact-repeat fast path (a repeated
	// probe of the same instance, e.g. a periodic reschedule with an
	// unchanged job set replays the previous event's probe sequence).
	prevValid  bool
	prevOK     bool
	prevAssign []int

	// Counters for tests and benchmarks: full sorts taken (per
	// dimension), structural rebuilds, exact-repeat hits, total packs, and
	// nodes filled by replaying the previous node's pattern.
	Sorts, Rebuilds, Repeats, Packs, Replays int
}

// Invalidate drops all cached state; the next PackWarm re-sorts from
// scratch.
func (st *RepackState) Invalidate() {
	st.valid, st.prevValid, st.binOrderOK = false, false, false
	st.nodesPtr, st.nodesLen = nil, 0
}

// normFor returns the cached mean-capacity normalization for nodes,
// recomputing it (and dropping the order, bin-order and repeat caches,
// which depend on it) when the node set changes.
func (st *RepackState) normFor(nodes []cluster.NodeSpec, d int) cluster.Vec {
	if st.nodesLen == len(nodes) && st.nodesPtr == &nodes[0] && len(st.norm) == d {
		return st.norm
	}
	if cap(st.norm) < d {
		st.norm = make(cluster.Vec, d)
	}
	st.norm = st.norm[:d]
	meanCapsInto(nodes, st.norm)
	st.nodesPtr, st.nodesLen = &nodes[0], len(nodes)
	st.valid, st.prevValid, st.binOrderOK = false, false, false
	return st.norm
}

// binOrderFor returns m's bin opening order for the node set normFor last
// saw (nil for the published index order), computing it once per node set.
func (st *RepackState) binOrderFor(m MCB8, nodes []cluster.NodeSpec, d int) []int {
	if m.Objective == nil {
		return nil
	}
	if !st.binOrderOK {
		st.binOrder = binOrder(m.Objective, nodes, d, st.norm)
		st.binOrderOK = true
	}
	return st.binOrder
}

// groupEq reports whether old group oi matches new group ni: same item
// count and identical rigid requirements (dimensions 1..d-1; the CPU
// entry changes with every yield probe and does not identify a group).
func (st *RepackState) groupEq(oi, ni int, items []Item, b *PackBuffer) bool {
	if st.gCount[oi] != b.gCount[ni] {
		return false
	}
	req := items[b.gFirst[ni]].Req
	old := st.gReq[oi*st.d : oi*st.d+st.d]
	for k := 1; k < st.d; k++ {
		if old[k] != req[k] {
			return false
		}
	}
	return true
}

// exactRepeat reports whether the instance is identical to the previous
// pack — same groups, bitwise-equal requirement vectors in every
// dimension, same node set — so the previous outcome can be replayed.
func (st *RepackState) exactRepeat(items []Item, nodes []cluster.NodeSpec, b *PackBuffer, d int) bool {
	if !st.prevValid || !st.valid || st.d != d ||
		st.nodesLen != len(nodes) || st.nodesPtr != &nodes[0] ||
		len(st.gCount) != len(b.gCount) {
		return false
	}
	for g := range b.gCount {
		if st.gCount[g] != b.gCount[g] {
			return false
		}
		req := items[b.gFirst[g]].Req
		old := st.gReq[g*d : g*d+d]
		for k := 0; k < d; k++ {
			if old[k] != req[k] {
				return false
			}
		}
	}
	return true
}

// rebuildOrders sorts every dimension's full group order from scratch
// (descending requirement, ties by first item index) and snapshots the
// group structure.
func (st *RepackState) rebuildOrders(items []Item, b *PackBuffer, norm cluster.Vec, d int) {
	st.Rebuilds++
	G := len(b.gFirst)
	if cap(st.orders) < d {
		st.orders = append(st.orders[:cap(st.orders)], make([][]int, d-cap(st.orders))...)
	}
	st.orders = st.orders[:d]
	for k := 0; k < d; k++ {
		ord := st.orders[k][:0]
		for g := 0; g < G; g++ {
			ord = append(ord, g)
		}
		st.sortOrder(ord, k, items, b, norm)
		st.orders[k] = ord
	}
	st.d, st.valid = d, true
}

// sortOrder sorts one dimension's group order by the batch kernel's exact
// key — the capacity-normalized requirement, descending, ties by first
// item index — so a filtered order reproduces PackBuf's sorted list
// bit-for-bit.
func (st *RepackState) sortOrder(ord []int, k int, items []Item, b *PackBuffer, norm cluster.Vec) {
	st.Sorts++
	slices.SortFunc(ord, func(ga, gb int) int {
		ka := items[b.gFirst[ga]].Req[k] / norm[k]
		kb := items[b.gFirst[gb]].Req[k] / norm[k]
		if ka != kb {
			if ka > kb {
				return -1
			}
			return 1
		}
		return b.gFirst[ga] - b.gFirst[gb]
	})
}

// applyDelta aligns the previous group structure with the current one and
// patches every cached order in place: unchanged prefix and suffix groups
// are renumbered, removed groups dropped, and inserted groups placed at
// their sorted position. Returns false when the structural change exceeds
// repackMaxDelta (the caller then rebuilds from scratch).
func (st *RepackState) applyDelta(items []Item, b *PackBuffer, norm cluster.Vec) bool {
	oldG, newG := len(st.gCount), len(b.gCount)
	p := 0
	for p < oldG && p < newG && st.groupEq(p, p, items, b) {
		p++
	}
	if p == oldG && p == newG {
		return true // same structure, ids unchanged
	}
	s := 0
	for s < oldG-p && s < newG-p && st.groupEq(oldG-1-s, newG-1-s, items, b) {
		s++
	}
	removed, added := oldG-p-s, newG-p-s
	if removed+added > repackMaxDelta {
		return false
	}
	shift := newG - oldG
	for k := range st.orders {
		ord := st.orders[k]
		w := 0
		for _, g := range ord {
			switch {
			case g < p:
				ord[w] = g
				w++
			case g >= oldG-s:
				ord[w] = g + shift
				w++
			}
		}
		st.orders[k] = ord[:w]
	}
	// Insert each new group at its sorted position under the current
	// values. A stale order (the CPU dimension is rescaled every probe)
	// may misplace the insertion; the per-use verification in PackWarm
	// catches that and re-sorts, so correctness never depends on it.
	for g := p; g < p+added; g++ {
		first := b.gFirst[g]
		for k := range st.orders {
			key := items[first].Req[k] / norm[k]
			pos, _ := slices.BinarySearchFunc(st.orders[k], 0, func(gb, _ int) int {
				kb := items[b.gFirst[gb]].Req[k] / norm[k]
				if kb != key {
					if kb > key {
						return -1
					}
					return 1
				}
				return b.gFirst[gb] - first
			})
			st.orders[k] = slices.Insert(st.orders[k], pos, g)
		}
	}
	return true
}

// snapshot records the group structure, requirement values and pack
// outcome for the next call's delta alignment and exact-repeat check.
func (st *RepackState) snapshot(items []Item, b *PackBuffer, d int, assign []int, ok bool) {
	G := len(b.gFirst)
	st.gCount = append(st.gCount[:0], b.gCount...)
	if cap(st.gReq) < G*d {
		st.gReq = make([]float64, G*d)
	}
	st.gReq = st.gReq[:G*d]
	for g := 0; g < G; g++ {
		copy(st.gReq[g*d:(g+1)*d], items[b.gFirst[g]].Req)
	}
	st.prevOK = ok
	if ok {
		st.prevAssign = append(st.prevAssign[:0], assign...)
	}
	st.prevValid = true
}

// PackWarm is PackBuf with warm-start state: it produces the identical
// assignment (the sorted group lists it feeds the shared fill phase are
// verified against the batch kernel's exact sort keys, and any divergence
// falls back to a fresh sort), but skips the per-pack normalization,
// comparator sorts and — on an exact repeat of the previous instance —
// the whole packing. The returned assignment aliases b, like PackBuf.
func (m MCB8) PackWarm(items []Item, nodes []cluster.NodeSpec, b *PackBuffer, st *RepackState) ([]int, bool) {
	st.Packs++
	if len(items) == 0 {
		st.valid, st.prevValid = false, false
		return []int{}, true
	}
	if len(nodes) == 0 {
		st.valid, st.prevValid = false, false
		return nil, false
	}
	d := dims(nodes)
	norm := st.normFor(nodes, d)

	// Collapse adjacent items sharing one backing requirement vector into
	// groups, exactly as PackBuf does (classification is deferred: the
	// exact-repeat check only needs the group structure).
	b.gFirst, b.gCount, b.gUsed = b.gFirst[:0], b.gCount[:0], b.gUsed[:0]
	for i := 0; i < len(items); {
		req := items[i].Req
		j := i + 1
		if len(req) > 0 {
			for j < len(items) && len(items[j].Req) == len(req) && &items[j].Req[0] == &req[0] {
				j++
			}
		}
		b.gFirst = append(b.gFirst, i)
		b.gCount = append(b.gCount, j-i)
		b.gUsed = append(b.gUsed, 0)
		i = j
	}

	// Exact repeat of the previous pack: replay its outcome. The kernel
	// is deterministic, so identical groups, requirement values and nodes
	// reproduce the identical assignment (or the identical failure).
	if st.exactRepeat(items, nodes, b, d) {
		st.Repeats++
		if !st.prevOK {
			return nil, false
		}
		b.assign = append(b.assign[:0], st.prevAssign...)
		return b.assign, true
	}

	// Classify every group by its dominant normalized dimension — the
	// same per-group work as PackBuf's combined loop.
	G := len(b.gFirst)
	b.gMax, b.gHeavy = b.gMax[:0], b.gHeavy[:0]
	if cap(b.listLen) < d {
		b.listLen = make([]int, d)
		b.listOff = make([]int, d+1)
		b.listFill = make([]int, d)
	}
	b.listLen, b.listOff, b.listFill = b.listLen[:d], b.listOff[:d+1], b.listFill[:d]
	for k := range b.listLen {
		b.listLen[k] = 0
	}
	for g := 0; g < G; g++ {
		mx, heavy := normMax(items[b.gFirst[g]].Req, norm)
		b.gMax = append(b.gMax, mx)
		b.gHeavy = append(b.gHeavy, heavy)
		b.listLen[heavy]++
	}

	// Bring the cached per-dimension orders up to date with the group
	// structure.
	if !st.valid || st.d != d || !st.applyDelta(items, b, norm) {
		st.rebuildOrders(items, b, norm, d)
	}

	// Build each dimension's sorted list by filtering its full order down
	// to the groups classified into it, verifying the batch sort
	// invariant — non-increasing key, ties by ascending first item — on
	// the way. Dimensions with no members skip verification entirely
	// (the stale CPU order after a zero-yield probe is simply unused).
	if cap(b.listMem) < G {
		b.listMem = make([]int, G)
	}
	b.listMem = b.listMem[:G]
	off := b.listOff
	off[0] = 0
	for k := 0; k < d; k++ {
		off[k+1] = off[k] + b.listLen[k]
	}
	if cap(b.chains) < d {
		b.chains = make([]groupChain, d)
	}
	b.chains = b.chains[:d]
	for k := 0; k < d; k++ {
		list := b.listMem[off[k]:off[k+1]]
		if len(list) == 0 {
			b.chains[k].reset(list, b, items, d, k)
			continue
		}
		if !st.filterOrder(k, list, b) {
			st.sortOrder(st.orders[k], k, items, b, norm)
			if !st.filterOrder(k, list, b) {
				// The order is not a permutation of the groups (cannot
				// happen unless the state was corrupted externally);
				// rebuild everything and refilter.
				st.rebuildOrders(items, b, norm, d)
				st.filterOrder(k, list, b)
			}
		}
		b.chains[k].reset(list, b, items, d, k)
	}

	assign, ok, replays := b.fill(items, nodes, d, st.binOrderFor(m, nodes, d))
	st.Replays += replays
	st.snapshot(items, b, d, assign, ok)
	return assign, ok
}

// filterOrder writes the groups classified into dimension k, in cached
// order, into list, verifying the exact batch sort invariant. Returns
// false when the cached order is stale (keys out of order) or
// inconsistent (wrong member count).
func (st *RepackState) filterOrder(k int, list []int, b *PackBuffer) bool {
	n := 0
	lastKey := 0.0
	lastFirst := -1
	for _, g := range st.orders[k] {
		if b.gHeavy[g] != k {
			continue
		}
		if n == len(list) {
			return false
		}
		key := b.gMax[g]
		if n > 0 && (key > lastKey || (key == lastKey && b.gFirst[g] < lastFirst)) {
			return false
		}
		lastKey, lastFirst = key, b.gFirst[g]
		list[n] = g
		n++
	}
	return n == len(list)
}
