package vectorpack

// Reference-implementation locks for the packers' node choice: the PR 4
// first-fit-decreasing and best-fit-decreasing loops, kept here verbatim,
// must match both paths of each packer bit-for-bit over random instances
// in 2-4 dimensions on equal and unequal bins — the inlined loop that runs
// with no objective (kept because routing it through placement.Pick
// costs several times its run time) and the placement.Pick route under the
// explicit default objective (First takes Pick's first-feasible shortcut,
// BestFit scores every bin). MCB8's default bin order is locked by
// asserting the nil-objective order is the identity plus the First
// cross-check below.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/placement"
)

// legacyFFDPack is the PR 4 FirstFitDecreasing.Pack, frozen verbatim.
func legacyFFDPack(items []Item, nodes []cluster.NodeSpec) ([]int, bool) {
	d := dims(nodes)
	norm := meanCaps(nodes)
	order := sortedByNormMax(items, norm)
	assign := make([]int, len(items))
	for i := range assign {
		assign[i] = -1
	}
	free := freeCaps(nodes, d)
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
		for k := 0; k < d; k++ {
			free[placedNode*d+k] -= items[idx].Req[k]
		}
	}
	return assign, true
}

// legacyBFDPack is the PR 4 BestFitDecreasing.Pack, frozen verbatim.
func legacyBFDPack(items []Item, nodes []cluster.NodeSpec) ([]int, bool) {
	d := dims(nodes)
	norm := meanCaps(nodes)
	order := sortedByNormMax(items, norm)
	assign := make([]int, len(items))
	for i := range assign {
		assign[i] = -1
	}
	free := freeCaps(nodes, d)
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
		for k := 0; k < d; k++ {
			free[best*d+k] -= items[idx].Req[k]
		}
	}
	return assign, true
}

// randomLockInstance draws a random packing instance with d in 2..4 and a
// mix of reference, fat and partially-equipped nodes.
func randomLockInstance(r *rand.Rand) ([]Item, []cluster.NodeSpec) {
	d := 2 + r.Intn(3)
	n := 2 + r.Intn(12)
	nodes := make([]cluster.NodeSpec, n)
	for i := range nodes {
		caps := make(cluster.Vec, d)
		caps[0] = 1 + float64(r.Intn(3))
		caps[1] = 1 + float64(r.Intn(3))
		for k := 2; k < d; k++ {
			caps[k] = float64(r.Intn(3)) // may be zero: node lacks the resource
		}
		nodes[i] = cluster.NodeSpec{Caps: caps, Cost: float64(r.Intn(4))}
	}
	items := make([]Item, r.Intn(3*n))
	for i := range items {
		req := make(cluster.Vec, d)
		req[0] = 0.05 + 0.95*r.Float64()
		req[1] = 0.05 + 0.95*r.Float64()
		for k := 2; k < d; k++ {
			if r.Intn(2) == 0 {
				req[k] = r.Float64()
			}
		}
		items[i] = Item{Req: req}
	}
	return items, nodes
}

func TestPackersMatchFrozenPR4Copies(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		items, nodes := randomLockInstance(r)
		for _, tc := range []struct {
			name   string
			packer Packer
			legacy func([]Item, []cluster.NodeSpec) ([]int, bool)
		}{
			// Both the inlined nil-objective paths and the
			// placement-routed paths under the explicit default
			// objectives must match the frozen PR 4 loops.
			{"ffd", FirstFitDecreasing{}, legacyFFDPack},
			{"ffd-first", FirstFitDecreasing{Objective: placement.First{}}, legacyFFDPack},
			{"bfd", BestFitDecreasing{}, legacyBFDPack},
			{"bfd-bestfit", BestFitDecreasing{Objective: placement.BestFit{}}, legacyBFDPack},
		} {
			gotAssign, gotOK := tc.packer.Pack(items, nodes)
			wantAssign, wantOK := tc.legacy(items, nodes)
			if gotOK != wantOK || !reflect.DeepEqual(gotAssign, wantAssign) {
				t.Fatalf("trial %d: %s diverged from its frozen PR 4 copy:\n got %v (%v)\nwant %v (%v)",
					trial, tc.name, gotAssign, gotOK, wantAssign, wantOK)
			}
			if gotOK {
				if err := Validate(items, gotAssign, nodes); err != nil {
					t.Fatalf("trial %d: %s: %v", trial, tc.name, err)
				}
			}
		}
		// MCB8's nil-objective bin order must be the identity (the
		// published kernel is bypassed entirely), and a uniform-score
		// objective must reproduce it bit-for-bit.
		plain, plainOK := MCB8{}.Pack(items, nodes)
		viaFirst, firstOK := MCB8{Objective: placement.First{}}.Pack(items, nodes)
		if plainOK != firstOK || !reflect.DeepEqual(plain, viaFirst) {
			t.Fatalf("trial %d: MCB8 under the First objective diverged from the published bin order", trial)
		}
	}
}

// TestBinOrderCost: the cost objective opens cheap bins first with id
// tie-breaks, and the nil objective is the identity.
func TestBinOrderCost(t *testing.T) {
	nodes := []cluster.NodeSpec{
		cluster.Spec(1, 1).WithCost(2),
		cluster.Spec(1, 1).WithCost(0.5),
		cluster.Spec(1, 1).WithCost(2),
		cluster.Spec(1, 1).WithCost(0.5),
	}
	norm := meanCaps(nodes)
	if got := binOrder(nil, nodes, 2, norm); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("nil objective bin order %v, want identity", got)
	}
	if got := binOrder(placement.Cost{}, nodes, 2, norm); !reflect.DeepEqual(got, []int{1, 3, 0, 2}) {
		t.Fatalf("cost objective bin order %v, want cheap bins first", got)
	}
}
