package placement

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// fakeState is an explicit-matrix State for tests: caps/free are row-major
// per node, load and cost per node.
type fakeState struct {
	d          int
	caps, free []float64
	load, cost []float64
}

func (s fakeState) Dims() int                { return s.d }
func (s fakeState) Cap(node, k int) float64  { return s.caps[node*s.d+k] }
func (s fakeState) Free(node, k int) float64 { return s.free[node*s.d+k] }
func (s fakeState) CPULoad(node int) float64 { return s.load[node] }
func (s fakeState) Cost(node int) float64    { return s.cost[node] }

func demandOf(v []float64) Demand {
	return func(k int) float64 {
		if k < len(v) {
			return v[k]
		}
		return 0
	}
}

func unitState(n int) fakeState {
	s := fakeState{d: 2, caps: make([]float64, 2*n), free: make([]float64, 2*n),
		load: make([]float64, n), cost: make([]float64, n)}
	for i := range s.caps {
		s.caps[i] = 1
		s.free[i] = 1
	}
	return s
}

func allFeasible(int) bool { return true }

func TestPickFirstTakesLowestID(t *testing.T) {
	st := unitState(5)
	if got := Pick(5, ZeroDemand, st, allFeasible, First{}); got != 0 {
		t.Fatalf("First picked node %d, want 0", got)
	}
	infeasible := func(node int) bool { return node >= 2 }
	if got := Pick(5, ZeroDemand, st, infeasible, First{}); got != 2 {
		t.Fatalf("First picked node %d with nodes 0-1 filtered, want 2", got)
	}
	none := func(int) bool { return false }
	if got := Pick(5, ZeroDemand, st, none, First{}); got != -1 {
		t.Fatalf("Pick with no feasible node returned %d, want -1", got)
	}
}

func TestPickLoadBalance(t *testing.T) {
	st := unitState(4)
	st.load = []float64{0.9, 0.2, 0.2, 0.5}
	// Lowest relative load wins; the tie between nodes 1 and 2 resolves to
	// the lower id.
	if got := Pick(4, ZeroDemand, st, allFeasible, LoadBalance{}); got != 1 {
		t.Fatalf("LoadBalance picked node %d, want 1", got)
	}
	// Relative load: a double-capacity node with the same absolute load is
	// less loaded.
	st.load = []float64{0.4, 0.4, 0.4, 0.4}
	st.caps[2*2+0] = 2 // node 2 has CPU capacity 2
	if got := Pick(4, ZeroDemand, st, allFeasible, LoadBalance{}); got != 2 {
		t.Fatalf("LoadBalance picked node %d, want the fat node 2", got)
	}
}

func TestPickCost(t *testing.T) {
	st := unitState(4)
	st.cost = []float64{2, 0.5, 0.5, 1}
	if got := Pick(4, ZeroDemand, st, allFeasible, Cost{}); got != 1 {
		t.Fatalf("Cost picked node %d, want cheapest node 1", got)
	}
	// Unpriced platform: all costs zero degenerates to First.
	st.cost = make([]float64, 4)
	if got := Pick(4, ZeroDemand, st, allFeasible, Cost{}); got != 0 {
		t.Fatalf("Cost on unpriced platform picked node %d, want 0", got)
	}
}

func TestBestFitWorstFit(t *testing.T) {
	st := unitState(3)
	// Node 1 is the tightest fit for a (0.3, 0.3) task.
	st.free = []float64{1, 1, 0.4, 0.4, 0.8, 0.8}
	dem := demandOf([]float64{0.3, 0.3})
	if got := Pick(3, dem, st, allFeasible, BestFit{}); got != 1 {
		t.Fatalf("BestFit picked node %d, want tightest node 1", got)
	}
	if got := Pick(3, dem, st, allFeasible, WorstFit{}); got != 0 {
		t.Fatalf("WorstFit picked node %d, want emptiest node 0", got)
	}
	// A zero-capacity dimension is skipped, not a division by zero.
	gpu := fakeState{d: 3,
		caps: []float64{1, 1, 0, 1, 1, 2},
		free: []float64{1, 1, 0, 1, 1, 2},
		load: []float64{0, 0}, cost: []float64{0, 0}}
	if got := Pick(2, ZeroDemand, gpu, allFeasible, BestFit{}); got != 0 {
		t.Fatalf("BestFit with zero-capacity dim picked %d, want 0", got)
	}
}

func TestRankOrdersByScoreThenID(t *testing.T) {
	st := unitState(5)
	st.cost = []float64{3, 1, 2, 1, 0}
	got := Rank([]int{0, 1, 2, 3, 4}, ZeroDemand, st, Cost{})
	want := []int{4, 1, 3, 2, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Rank = %v, want %v", got, want)
	}
	// Candidates slice must not be modified.
	cands := []int{2, 0, 4}
	_ = Rank(cands, ZeroDemand, st, Cost{})
	if !reflect.DeepEqual(cands, []int{2, 0, 4}) {
		t.Fatalf("Rank mutated its input: %v", cands)
	}
	// All-constant scores (First): ids ascending, whatever the input order.
	got = Rank([]int{4, 2, 0, 3, 1}, ZeroDemand, st, First{})
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("Rank with First = %v, want ascending ids", got)
	}
}

// TestRankFirstReturnsSortedInput: under First, id-ordered candidates come
// back as the same slice (callers such as the batch pool pass a reused
// buffer), and out-of-order input is ranked into a new slice untouched.
func TestRankFirstReturnsSortedInput(t *testing.T) {
	st := unitState(5)
	sorted := []int{0, 2, 3}
	if got := Rank(sorted, ZeroDemand, st, First{}); &got[0] != &sorted[0] || !reflect.DeepEqual(got, []int{0, 2, 3}) {
		t.Fatalf("Rank under First did not return its id-ordered input as is: %v", got)
	}
	unsorted := []int{3, 0, 2}
	got := Rank(unsorted, ZeroDemand, st, First{})
	if !reflect.DeepEqual(got, []int{0, 2, 3}) || !reflect.DeepEqual(unsorted, []int{3, 0, 2}) {
		t.Fatalf("Rank under First = %v with input left as %v, want [0 2 3] and [3 0 2]", got, unsorted)
	}
}

// TestRankAgreesWithSort cross-checks Rank against a direct sort over
// random scores.
func TestRankAgreesWithSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(20)
		st := unitState(n)
		cands := make([]int, n)
		for i := range cands {
			cands[i] = i
			st.cost[i] = float64(r.Intn(4))
		}
		r.Shuffle(n, func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		got := Rank(cands, ZeroDemand, st, Cost{})
		want := append([]int(nil), cands...)
		sort.SliceStable(want, func(a, b int) bool {
			if st.cost[want[a]] != st.cost[want[b]] {
				return st.cost[want[a]] < st.cost[want[b]]
			}
			return want[a] < want[b]
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Rank = %v, want %v (costs %v)", trial, got, want, st.cost)
		}
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"first", "loadbalance", "cost", "bestfit", "worstfit"} {
		if !Known(name) {
			t.Fatalf("built-in objective %q not registered", name)
		}
		obj, err := ByName(name)
		if err != nil || obj == nil {
			t.Fatalf("ByName(%q) = %v, %v", name, obj, err)
		}
		if obj.Name() != name {
			t.Fatalf("objective %q reports name %q", name, obj.Name())
		}
	}
	// The empty name is the per-family default: valid, resolves to nil.
	if !Known("") {
		t.Fatal("empty objective name should be valid (family default)")
	}
	if obj, err := ByName(""); obj != nil || err != nil {
		t.Fatalf("ByName(\"\") = %v, %v, want nil, nil", obj, err)
	}
	if _, err := ByName("no-such-objective"); err == nil {
		t.Fatal("ByName accepted an unknown objective")
	}
	if err := Register("", func() Objective { return First{} }); err == nil {
		t.Fatal("Register accepted an empty name")
	}
	if err := Register("x-nil", nil); err == nil {
		t.Fatal("Register accepted a nil factory")
	}
	if err := Register("cost", func() Objective { return Cost{} }); err == nil {
		t.Fatal("Register accepted a duplicate name")
	}
	if err := Register("custom-test-objective", func() Objective { return WorstFit{} }); err != nil {
		t.Fatalf("Register failed for a fresh name: %v", err)
	}
	if !Known("custom-test-objective") {
		t.Fatal("registered objective not known")
	}
	// Only the Cost objective opts into job ranking.
	if _, ok := interface{}(Cost{}).(JobRanker); !ok {
		t.Fatal("Cost must implement JobRanker")
	}
	for _, obj := range []Objective{First{}, LoadBalance{}, BestFit{}, WorstFit{}} {
		if jr, ok := obj.(JobRanker); ok && jr.RanksJobs() {
			t.Fatalf("objective %q unexpectedly ranks jobs", obj.Name())
		}
	}
}
