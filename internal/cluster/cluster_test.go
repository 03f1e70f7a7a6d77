package cluster

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestHomogeneous(t *testing.T) {
	c := Homogeneous(4)
	if c.N() != 4 || !c.Homogeneous() {
		t.Fatalf("Homogeneous(4) = %+v", c)
	}
	if c.TotalCPU() != 4 || c.TotalCap(DimMem) != 4 {
		t.Errorf("totals = %v/%v, want 4/4", c.TotalCPU(), c.TotalCap(DimMem))
	}
	for i := 0; i < 4; i++ {
		if c.CPUCap(i) != 1 || c.MemCap(i) != 1 {
			t.Errorf("node %d = %v/%v, want 1/1", i, c.CPUCap(i), c.MemCap(i))
		}
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestNewCopies(t *testing.T) {
	src := []NodeSpec{Spec(2, 2)}
	c := New(src)
	src[0] = Spec(99, 99)
	if c.CPUCap(0) != 2 {
		t.Error("New aliased the caller's slice")
	}
	d := c.Clone()
	d.Nodes[0] = Spec(5, 5)
	if c.MemCap(0) != 2 {
		t.Error("Clone aliased the original")
	}
}

func TestValidate(t *testing.T) {
	if err := (&Cluster{}).Validate(); err == nil {
		t.Error("empty cluster accepted")
	}
	if err := New([]NodeSpec{Spec(0, 1)}).Validate(); err == nil {
		t.Error("zero CPU capacity accepted")
	}
	for _, n := range []NodeSpec{
		Spec(1, -1), Spec(math.NaN(), 1), Spec(math.Inf(1), 1), Spec(1, math.Inf(1)),
		Spec(1, 1, -1), Spec(1, 1, math.NaN()), Spec(1, 1, math.Inf(1)),
		Spec(1, 1).WithCost(-1), Spec(1, 1).WithCost(math.NaN()), Spec(1, 1).WithCost(math.Inf(1)),
	} {
		if err := New([]NodeSpec{Unit().WithDims(n.Dims(), 1), n}).Validate(); err == nil {
			t.Errorf("node %+v accepted", n)
		} else if !strings.Contains(err.Error(), "node 1") {
			t.Errorf("node %+v: error %q does not name node 1", n, err)
		}
	}
}

func TestProfileUniformIsHomogeneous(t *testing.T) {
	for _, name := range []string{"", ProfileUniform} {
		c, err := Profile(name, 7)
		if err != nil {
			t.Fatalf("Profile(%q): %v", name, err)
		}
		if !c.Homogeneous() || c.N() != 7 {
			t.Errorf("Profile(%q) not homogeneous: %+v", name, c)
		}
	}
}

func TestProfileBimodal(t *testing.T) {
	c, err := Profile(ProfileBimodal, 6)
	if err != nil {
		t.Fatal(err)
	}
	fat := 0
	for i := 0; i < c.N(); i++ {
		if c.CPUCap(i) == 2 {
			fat++
		}
	}
	if fat != 3 {
		t.Errorf("bimodal over 6 nodes has %d fat nodes, want 3", fat)
	}
	if c.Homogeneous() {
		t.Error("bimodal reported homogeneous")
	}
}

func TestProfilePowerlaw(t *testing.T) {
	c, err := Profile(ProfilePowerlaw, 16)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[float64]int{}
	for i := 0; i < c.N(); i++ {
		counts[c.CPUCap(i)]++
	}
	if counts[4] != 2 || counts[2] != 2 || counts[1] != 12 {
		t.Errorf("powerlaw tiers over 16 nodes = %v, want 2x4.0, 2x2.0, 12x1.0", counts)
	}
}

// Every profile must keep nodes at or above the reference capacity so any
// workload valid on the homogeneous platform stays schedulable.
func TestProfilesNeverShrinkNodes(t *testing.T) {
	for _, name := range ProfileNames() {
		for _, n := range []int{1, 2, 3, 8, 128} {
			c, err := Profile(name, n)
			if err != nil {
				t.Fatalf("Profile(%q, %d): %v", name, n, err)
			}
			for i := 0; i < c.N(); i++ {
				if c.CPUCap(i) < 1 || c.MemCap(i) < 1 {
					t.Errorf("profile %q node %d below reference capacity: %v/%v",
						name, i, c.CPUCap(i), c.MemCap(i))
				}
			}
		}
	}
}

// Profiles are deterministic functions of (name, n).
func TestProfileDeterminism(t *testing.T) {
	for _, name := range ProfileNames() {
		a, _ := Profile(name, 32)
		b, _ := Profile(name, 32)
		for i := range a.Nodes {
			if !a.Nodes[i].Equal(b.Nodes[i]) {
				t.Fatalf("profile %q differs between calls at node %d", name, i)
			}
		}
	}
}

func TestProfileErrors(t *testing.T) {
	if _, err := Profile("no-such-mix", 4); err == nil {
		t.Error("unknown profile accepted")
	}
	if _, err := Profile(ProfileBimodal, 0); err == nil {
		t.Error("zero node count accepted")
	}
}

// TestProfileRejectsAboveMaxNodes: a node count above MaxNodes is an error
// naming the count, returned before any node is allocated.
func TestProfileRejectsAboveMaxNodes(t *testing.T) {
	for _, n := range []int{MaxNodes + 1, 1_000_000_000, math.MaxInt} {
		_, err := Profile(ProfileBimodal, n)
		if err == nil {
			t.Fatalf("%d nodes accepted", n)
		}
		if !strings.Contains(err.Error(), strconv.Itoa(n)) {
			t.Errorf("%d nodes: error %q does not name the count", n, err)
		}
	}
}

func TestNormalizeProfile(t *testing.T) {
	if NormalizeProfile("") != "" || NormalizeProfile(ProfileUniform) != "" {
		t.Error("uniform aliases not canonicalized to empty")
	}
	if NormalizeProfile(ProfileBimodal) != ProfileBimodal {
		t.Error("non-uniform profile altered")
	}
}

func TestValidProfile(t *testing.T) {
	for _, name := range append(ProfileNames(), "") {
		if !ValidProfile(name) {
			t.Errorf("ValidProfile(%q) = false", name)
		}
	}
	if ValidProfile("bogus") {
		t.Error("ValidProfile accepted bogus name")
	}
}
