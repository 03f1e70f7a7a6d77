package federation

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestParseTopologyRejectsHugeCounts: a bare count above MaxMembers is an
// error naming the spec, not an allocation of that many members (20M
// members was a 1.37 GB heap) or a makeslice panic (10^18). The limit
// itself and a member list of that length still parse.
func TestParseTopologyRejectsHugeCounts(t *testing.T) {
	for _, spec := range []string{"20000000", "1000000000000000000", "1025"} {
		members, err := ParseTopology(spec, 8, "")
		if err == nil {
			t.Fatalf("%q: %d members, want an error", spec, len(members))
		}
		if !strings.Contains(err.Error(), spec) {
			t.Errorf("%q: error %q does not name the spec", spec, err)
		}
	}
	if members, err := ParseTopology("1024", 8, ""); err != nil || len(members) != MaxMembers {
		t.Errorf("1024: %d members, %v", len(members), err)
	}
	list := strings.Repeat("uniform:2+", MaxMembers-1) + "uniform:2"
	if members, err := ParseTopology(list, 8, ""); err != nil || len(members) != MaxMembers {
		t.Errorf("list of %d: %d members, %v", MaxMembers, len(members), err)
	}
	if _, err := ParseTopology(list+"+uniform:2", 8, ""); err == nil {
		t.Errorf("list of %d members accepted", MaxMembers+1)
	}
}

// TestParseTopologyRejectsHugeNodeCounts: a member above cluster.MaxNodes,
// members summing above it, and a bare count of too-large defaults are
// errors naming the count, found before any cluster is laid out.
func TestParseTopologyRejectsHugeNodeCounts(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		defNodes int
		names    string
	}{
		{"uniform:1000000000+uniform:1000000000", 128, "1000000000"},
		{"uniform:1048576+uniform:1", 128, "1"},
		{"bimodal+:1048576", 128, "1048576"},
		{"1024", 2048, "2097152"},
		{"2", 1 << 30, "1073741824"},
	} {
		members, err := ParseTopology(tc.spec, tc.defNodes, "")
		if err == nil {
			t.Fatalf("%q (default %d nodes): %+v, want an error", tc.spec, tc.defNodes, members)
		}
		if !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%q: error %q does not name %s", tc.spec, err, tc.names)
		}
	}
	if members, err := ParseTopology("uniform:1048575+uniform:1", 128, ""); err != nil || len(members) != 2 {
		t.Errorf("topology at the node limit: %+v, %v", members, err)
	}
	if members, err := ParseTopology("1024", 1024, ""); err != nil || len(members) != MaxMembers {
		t.Errorf("1024 members of 1024 nodes: %d members, %v", len(members), err)
	}
}

// FuzzParseTopology: no spec panics the parser, and an accepted spec
// yields 1..MaxMembers members, each of a registered, normalized mix with
// a positive node count, at most cluster.MaxNodes nodes in total, that
// survive a formatTopology round trip.
func FuzzParseTopology(f *testing.F) {
	for _, spec := range []string{
		"2", "1", "0", "-3", "20000000", "1000000000000000000", "99999999999999999999",
		"uniform:128+bimodal-priced:64", ":16", "bimodal", "uniform:0", "uniform:-1",
		"+", "uniform:4+", " uniform : 8 ", "nosuchmix:4", "gpu-uniform:2+gpu-bimodal:3",
		"uniform:9223372036854775807", "", "\x00:1",
		"uniform:1000000000+uniform:1000000000", "uniform:1048576+uniform:1",
	} {
		f.Add(spec, 8)
	}
	f.Add("3", 0)
	f.Add("3", -1)
	f.Fuzz(func(t *testing.T, spec string, defNodes int) {
		members, err := ParseTopology(spec, defNodes, "")
		if err != nil {
			return
		}
		if len(members) < 1 || len(members) > MaxMembers {
			t.Fatalf("%q: %d members", spec, len(members))
		}
		total := 0
		for i, m := range members {
			if m.Nodes < 1 || m.Nodes > cluster.MaxNodes || !cluster.ValidProfile(m.Mix) || cluster.NormalizeProfile(m.Mix) != m.Mix {
				t.Fatalf("%q: member %d is %+v", spec, i, m)
			}
			total += m.Nodes
		}
		if total > cluster.MaxNodes {
			t.Fatalf("%q: %d nodes in total", spec, total)
		}
		back, err := ParseTopology(formatTopology(members), defNodes, "")
		if err != nil || !reflect.DeepEqual(back, members) {
			t.Fatalf("%q: round trip gave %+v, %v; want %+v", spec, back, err, members)
		}
	})
}

// formatTopology renders members back into the notation ParseTopology
// accepts, always in the explicit "mix:nodes" form.
func formatTopology(members []MemberSpec) string {
	parts := make([]string, len(members))
	for i, m := range members {
		mix := m.Mix
		if mix == "" {
			mix = cluster.ProfileUniform
		}
		parts[i] = fmt.Sprintf("%s:%d", mix, m.Nodes)
	}
	return strings.Join(parts, "+")
}
