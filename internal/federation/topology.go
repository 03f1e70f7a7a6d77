package federation

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cluster"
)

// MaxMembers is the most clusters a topology may name. A count is parsed
// from untrusted input (a grid posted to dfrs-serve), and the members are
// allocated before any of them runs, so an unchecked count is an
// allocation of the caller's choosing.
const MaxMembers = 1024

// ParseTopology parses the compact cluster-topology notation shared by
// the -clusters CLI flag and the campaign federation axis. Two forms:
//
//   - a bare integer "N": N identical members of defNodes nodes of the
//     defMix profile — "-clusters 2" duplicates the single-cluster
//     platform;
//   - a "+"-separated member list, each member "mix", "mix:nodes" or
//     ":nodes" — e.g. "uniform:128+bimodal-priced:64" for an on-prem mix
//     plus a priced remote. An omitted mix or node count falls back to
//     defMix / defNodes.
//
// Mix names are validated against the registered profiles and normalized
// ("uniform" and "" are the same profile); node counts must be positive.
// Either form may name at most MaxMembers clusters and cluster.MaxNodes
// nodes in total.
func ParseTopology(spec string, defNodes int, defMix string) ([]MemberSpec, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("federation: empty topology spec")
	}
	if defNodes <= 0 || defNodes > cluster.MaxNodes {
		return nil, fmt.Errorf("federation: default node count %d outside [1, %d]", defNodes, cluster.MaxNodes)
	}
	if n, err := strconv.Atoi(spec); err == nil {
		if n < 1 {
			return nil, fmt.Errorf("federation: topology %q: cluster count must be positive", spec)
		}
		if n > MaxMembers {
			return nil, fmt.Errorf("federation: topology %q: cluster count above the limit of %d", spec, MaxMembers)
		}
		if n*defNodes > cluster.MaxNodes {
			return nil, fmt.Errorf("federation: topology %q: %d nodes in total, above the limit of %d",
				spec, n*defNodes, cluster.MaxNodes)
		}
		members := make([]MemberSpec, n)
		for i := range members {
			members[i] = MemberSpec{Mix: cluster.NormalizeProfile(defMix), Nodes: defNodes}
		}
		return members, nil
	}
	parts := strings.Split(spec, "+")
	if len(parts) > MaxMembers {
		return nil, fmt.Errorf("federation: topology %q: %d members, above the limit of %d", spec, len(parts), MaxMembers)
	}
	members := make([]MemberSpec, 0, len(parts))
	total := 0
	for _, part := range parts {
		part = strings.TrimSpace(part)
		mix, nodes := part, defNodes
		if at := strings.IndexByte(part, ':'); at >= 0 {
			mix = strings.TrimSpace(part[:at])
			count := strings.TrimSpace(part[at+1:])
			n, err := strconv.Atoi(count)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("federation: topology %q: bad node count %q", spec, count)
			}
			nodes = n
		}
		if total += nodes; nodes > cluster.MaxNodes || total > cluster.MaxNodes {
			return nil, fmt.Errorf("federation: topology %q: node count %d brings the total above the limit of %d",
				spec, nodes, cluster.MaxNodes)
		}
		if mix == "" && part == "" {
			return nil, fmt.Errorf("federation: topology %q: empty member", spec)
		}
		if !cluster.ValidProfile(mix) {
			return nil, fmt.Errorf("federation: topology %q: unknown node mix %q (have %v)",
				spec, mix, cluster.ProfileNames())
		}
		members = append(members, MemberSpec{Mix: cluster.NormalizeProfile(mix), Nodes: nodes})
	}
	return members, nil
}
