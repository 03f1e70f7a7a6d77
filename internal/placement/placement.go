// Package placement is the pluggable placement-objective layer shared by
// every scheduling family in this repository. It separates the question
// "which nodes *can* host this task?" (feasibility filtering, which stays
// with each scheduler — memory, GPU and CPU constraints are part of the
// paper's model) from "which of the feasible nodes *should* host it?"
// (scoring), the same filter/score split production schedulers such as the
// Kubernetes scheduler use for their priority plugins.
//
// An Objective scores one candidate node for one task given the task's
// demand vector and the node's current state; selection minimizes the
// score, breaking ties toward the lowest node id so every choice is
// deterministic. The paper's DFRS algorithms each hard-code one objective —
// greedy places on the least relatively CPU-loaded node, batch baselines
// take eligible free nodes in id order, the MCB8 packing kernel fills bins
// in index order — and those rules are expressed here as the built-in
// LoadBalance and First objectives, which every family uses by default:
// with no objective configured, behaviour is exactly the published one.
//
// Beyond the defaults, the built-in objectives open the cost axis over the
// N-dimensional capacity vector of internal/cluster:
//
//   - Cost places tasks on the cheapest nodes (cluster.NodeSpec.Cost,
//     per-node-type pricing), minimizing cost-weighted occupancy on
//     price-heterogeneous platforms;
//   - BestFit packs tasks densely (least normalized leftover capacity
//     across all resource dimensions), trading yield for consolidation;
//   - WorstFit spreads tasks (most leftover capacity), trading
//     consolidation for headroom.
//
// Out-of-tree objectives register through Register (the facade re-exports
// it as dfrs.RegisterObjective, mirroring dfrs.RegisterAlgorithm) and are
// then accepted everywhere a built-in objective name is: dfrs.WithObjective,
// the campaign grid's Objectives axis, and the -objective CLI flags.
package placement

import "sort"

// State is the objective's read-only view of the platform during one
// selection scan. Implementations wrap whatever usage bookkeeping the
// caller maintains — simulator state plus an in-event placement plan for
// the greedy family, a gang row, a batch free pool, or a packer's free
// matrix — so scores always reflect placements planned earlier in the same
// scheduling event.
type State interface {
	// Dims returns the number of resource dimensions (at least 2: CPU and
	// memory; see internal/cluster).
	Dims() int
	// Cap returns the node's capacity in dimension k, in units of the
	// reference node (0 for a resource the node does not have).
	Cap(node, k int) float64
	// Free returns the node's free capacity in dimension k. For rigid
	// dimensions (k >= 1) this is capacity minus allocated demand; for the
	// fluid CPU dimension (k == 0) it is capacity minus CPU load, which may
	// be negative under DFRS time-sharing (load may exceed capacity).
	Free(node, k int) float64
	// CPULoad returns the node's current CPU load: the sum of the CPU
	// needs of the tasks it hosts (the paper's per-node load, before yield
	// scaling), including placements planned earlier in the same event.
	CPULoad(node int) float64
	// Cost returns the node's cost rate (cluster.NodeSpec.Cost; 0 on
	// unpriced platforms).
	Cost(node int) float64
}

// Demand is the per-task demand-vector view handed to an objective:
// Demand(k) is the task's requirement in resource dimension k (CPU need
// for k = 0, memory for k = 1, further rigid demands beyond), as a
// fraction of the reference node.
type Demand func(k int) float64

// ZeroDemand is the empty demand vector, used when a caller scores nodes
// independently of any particular task (e.g. the MCB8 kernel ordering its
// bins before packing).
func ZeroDemand(int) float64 { return 0 }

// Objective scores a candidate node for hosting one task of a job. Lower
// scores are better; selection picks the feasible node with the minimum
// score, breaking ties toward the lowest node id. Score must be a pure
// function of its arguments so that simulations stay deterministic and
// campaign records are byte-identical for any worker count.
type Objective interface {
	// Name identifies the objective in results, cell keys and CLI flags.
	Name() string
	// Score rates placing one task with the given demand vector on node,
	// given the platform's current state. Lower is better.
	Score(dem Demand, node int, st State) float64
}

// TieBreaker is an optional interface an Objective may implement to order
// nodes whose primary scores are exactly equal: the lower Secondary score
// wins, and only then does the node-id tie-break apply. The Cost objective
// uses it to balance relative CPU load among equal-cost nodes — strict
// price priority between tiers, the published load spreading within one —
// without which every task of a price tier would pile onto its lowest-id
// node and collapse yields.
type TieBreaker interface {
	// Secondary rates a node among primary-score ties; lower is better.
	Secondary(dem Demand, node int, st State) float64
}

// JobRanker is an optional interface an Objective may implement to extend
// its preference from node selection to the average-yield improvement
// heuristic of Section III-A: when RanksJobs reports true, jobs whose
// hosting nodes score higher under the objective receive leftover CPU
// first (ties in total CPU need only; the primary ascending-total-need
// order of the paper is never altered). The Cost objective ranks jobs —
// raising the yield of jobs on expensive nodes finishes them sooner and
// releases the priced capacity — while the default objectives do not, so
// the published tie-break by job ID is preserved exactly.
type JobRanker interface {
	// RanksJobs reports whether the improvement heuristic should consult
	// this objective for tie-breaking.
	RanksJobs() bool
}

// Pick returns the node in [0, n) that is feasible and minimizes
// obj.Score — ties by the objective's Secondary score when it implements
// TieBreaker, then toward the lowest node id — or -1 when no node is
// feasible. feasible must be non-nil; it implements the scheduler's own
// hard constraints (the filter half of the filter/score split). Under
// First every score ties, so Pick returns the first feasible node without
// scoring any: the batch and gang families' published rule costs one
// filter pass.
func Pick(n int, dem Demand, st State, feasible func(node int) bool, obj Objective) int {
	if _, ok := obj.(First); ok {
		for node := 0; node < n; node++ {
			if feasible(node) {
				return node
			}
		}
		return -1
	}
	tb, _ := obj.(TieBreaker)
	best := -1
	var bestScore, bestSec float64
	for node := 0; node < n; node++ {
		if !feasible(node) {
			continue
		}
		s := obj.Score(dem, node, st)
		if best >= 0 && s > bestScore {
			continue
		}
		if best < 0 || s < bestScore {
			best, bestScore = node, s
			if tb != nil {
				bestSec = tb.Secondary(dem, node, st)
			}
			continue
		}
		// Primary tie: consult the secondary score (strict improvement
		// only, so remaining ties keep the lowest id).
		if tb != nil {
			if sec := tb.Secondary(dem, node, st); sec < bestSec {
				best, bestSec = node, sec
			}
		}
	}
	return best
}

// Rank orders the candidate node ids by ascending (score, secondary, id) —
// the same comparison as Pick. It is the k-node counterpart of Pick used
// by schedulers that take several nodes in one decision (batch baselines
// allocating whole nodes, packers ordering their bins). Rank never
// modifies candidates. Under First the order is ascending id, so when
// candidates is already in id order Rank returns candidates itself
// (callers that modify the result must copy it); otherwise the result is
// a new slice.
func Rank(candidates []int, dem Demand, st State, obj Objective) []int {
	if _, ok := obj.(First); ok && sort.IntsAreSorted(candidates) {
		return candidates
	}
	tb, _ := obj.(TieBreaker)
	perm := make([]int, len(candidates))
	scores := make([]float64, len(candidates))
	var secs []float64
	if tb != nil {
		secs = make([]float64, len(candidates))
	}
	for i, node := range candidates {
		perm[i] = i
		scores[i] = obj.Score(dem, node, st)
		if tb != nil {
			secs[i] = tb.Secondary(dem, node, st)
		}
	}
	sort.SliceStable(perm, func(a, b int) bool {
		pa, pb := perm[a], perm[b]
		if scores[pa] != scores[pb] {
			return scores[pa] < scores[pb]
		}
		if tb != nil && secs[pa] != secs[pb] {
			return secs[pa] < secs[pb]
		}
		return candidates[pa] < candidates[pb]
	})
	out := make([]int, len(candidates))
	for i, p := range perm {
		out[i] = candidates[p]
	}
	return out
}
