package cluster

import (
	"reflect"
	"strings"
	"testing"
)

func TestFromSpecs(t *testing.T) {
	in := `# a comment
# dims: cpu mem gpu

2 2 0 cost=3
1 1 1
1 1 1 cost=0.5
`
	dims, specs, err := FromSpecs(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dims, []string{"cpu", "mem", "gpu"}) {
		t.Fatalf("dims = %v", dims)
	}
	want := []NodeSpec{
		{Caps: Vec{2, 2, 0}, Cost: 3},
		{Caps: Vec{1, 1, 1}},
		{Caps: Vec{1, 1, 1}, Cost: 0.5},
	}
	if !reflect.DeepEqual(specs, want) {
		t.Fatalf("specs = %v, want %v", specs, want)
	}
	// No dims header: nil names (canonical defaults apply).
	dims, specs, err = FromSpecs(strings.NewReader("1 1\n4 2 cost=9\n"))
	if err != nil {
		t.Fatal(err)
	}
	if dims != nil || len(specs) != 2 || specs[1].Cost != 9 {
		t.Fatalf("headerless parse: dims %v specs %v", dims, specs)
	}
}

func TestFromSpecsErrorsNameLines(t *testing.T) {
	cases := []struct {
		in   string
		line string // expected line-number fragment
	}{
		{"1 1\nx 1\n", "line 2"},
		{"1 1\n1\n", "line 2"},
		{"1 1\n1 1 1\n", "line 2"},        // dimension count changes
		{"0 1\n", "line 1"},               // non-positive cpu
		{"1 1 cost=-2\n", "line 1"},       // negative cost
		{"1 1 cost=nan\n", "line 1"},      // NaN cost
		{"1 1 cost=+Inf\n", "line 1"},     // infinite cost
		{"NaN 1\n", "line 1"},             // NaN cpu
		{"+Inf 1\n", "line 1"},            // infinite cpu
		{"1 -Inf\n", "line 1"},            // infinite memory
		{"1 1 NaN\n", "line 1"},           // NaN extra dimension
		{"1 1 Inf\n", "line 1"},           // infinite extra dimension
		{"1 1 -1\n", "line 1"},            // negative extra dimension
		{"1 1 cost=1 cost=2\n", "line 1"}, // duplicate cost
		{"1 1 cost=1 2\n", "line 1"},      // capacity after cost
		{"# dims: cpu\n1 1\n", "line 1"},  // too few dim names
		{"# dims: mem cpu\n1 1\n", "line 1"} /* wrong canonical order */, {"", "no nodes"},
		{"# dims: cpu mem gpu\n1 1\n", "names 3 dimensions"},
	}
	for _, tc := range cases {
		_, _, err := FromSpecs(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("input %q accepted", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.line) {
			t.Errorf("input %q: error %q does not name %q", tc.in, err, tc.line)
		}
	}
}

func TestRegisterProfileTiles(t *testing.T) {
	specs := []NodeSpec{
		{Caps: Vec{2, 2}, Cost: 3},
		{Caps: Vec{1, 1}, Cost: 1},
		{Caps: Vec{1, 1}, Cost: 1},
	}
	if err := RegisterProfile("test-inventory", nil, specs); err != nil {
		t.Fatal(err)
	}
	if !ValidProfile("test-inventory") {
		t.Fatal("registered profile not valid")
	}
	cl, err := Profile("test-inventory", 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if !cl.Nodes[i].Equal(specs[i%3]) {
			t.Fatalf("node %d = %v, want tiled %v", i, cl.Nodes[i], specs[i%3])
		}
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
	if !cl.Priced() {
		t.Fatal("priced inventory reports unpriced")
	}
	// Duplicate and invalid registrations fail.
	if err := RegisterProfile("test-inventory", nil, specs); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := RegisterProfile("", nil, specs); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := RegisterProfile("x-empty", nil, nil); err == nil {
		t.Fatal("empty inventory accepted")
	}
	if err := RegisterProfile("x-ragged", nil, []NodeSpec{{Caps: Vec{1, 1}}, {Caps: Vec{1, 1, 1}}}); err == nil {
		t.Fatal("ragged inventory accepted")
	}
	if err := RegisterProfile("x-dims", []string{"cpu"}, specs); err == nil {
		t.Fatal("mismatched dim names accepted")
	}
}

func TestBimodalPricedProfile(t *testing.T) {
	cl, err := Profile(ProfileBimodalPriced, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, n := range cl.Nodes {
		if i%2 == 0 {
			if !n.Equal(Spec(2, 2).WithCost(3)) {
				t.Fatalf("node %d = %v, want fat cost-3", i, n)
			}
		} else if !n.Equal(Unit().WithCost(1)) {
			t.Fatalf("node %d = %v, want unit cost-1", i, n)
		}
	}
	if !cl.Priced() {
		t.Fatal("bimodal-priced reports unpriced")
	}
	// The unpriced profiles stay unpriced (pre-pricing behaviour intact).
	for _, name := range []string{"", ProfileBimodal, ProfilePowerlaw, ProfileGPUUniform, ProfileGPUBimodal} {
		cl, err := Profile(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		if cl.Priced() {
			t.Fatalf("profile %q unexpectedly priced", name)
		}
	}
}

// FuzzNodeSpecs: FromSpecs never panics, and every inventory it accepts
// holds nodes of one dimension count that pass the cluster's own check.
func FuzzNodeSpecs(f *testing.F) {
	for _, seed := range []string{
		"# dims: cpu mem gpu\n2 2 0 cost=3\n1 1 1\n",
		"1 1\n4 2 cost=9\n",
		"NaN 1\n", "+Inf 1\n", "1 1 cost=+Inf\n", "1e308 1e308\n", "1 1 -0\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		dims, specs, err := FromSpecs(strings.NewReader(in))
		if err != nil {
			return
		}
		cl := NewWithDims(dims, specs)
		if err := cl.Validate(); err != nil {
			t.Fatalf("accepted inventory %q fails Validate: %v", in, err)
		}
	})
}
