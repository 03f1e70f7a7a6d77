package vectorpack

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/placement"
)

// repackInstance models one live packing instance the way core.packProbe
// builds it: a flat backing array (stride d, one row per job), items of a
// job aliasing the job's row, and a per-probe rewrite of the CPU entry.
type repackInstance struct {
	d       int
	backing []float64
	jobs    []repackJob // live jobs, in item order
	items   []Item
}

type repackJob struct {
	tasks   int
	cpuNeed float64
	rigid   []float64 // dims 1..d-1
}

func (in *repackInstance) rebuild() {
	in.backing = in.backing[:0]
	in.items = in.items[:0]
	for _, j := range in.jobs {
		in.backing = append(in.backing, 0) // CPU, written per probe
		in.backing = append(in.backing, j.rigid...)
	}
	// Items alias their job's row, so tasks of one job collapse into one
	// group — the exact aliasing core.packProbe produces.
	for ji, j := range in.jobs {
		req := cluster.Vec(in.backing[ji*in.d : (ji+1)*in.d])
		for t := 0; t < j.tasks; t++ {
			in.items = append(in.items, Item{Req: req})
		}
	}
}

func (in *repackInstance) setYield(y float64) {
	for ji, j := range in.jobs {
		cpu := j.cpuNeed * y
		if cpu > 1 {
			cpu = 1
		}
		in.backing[ji*in.d] = cpu
	}
}

// TestPackWarmMatchesBatch pins the allocators' packing path — one warm
// PackBuffer carried across every pack — against a batch pack with a fresh
// buffer per pack.
// Over randomized sequences of arrivals, completions and wholesale
// replacements of the job set, switches between two priced node sets of
// different sizes and between no objective and an objective (Cost, or
// BestFit), each followed by a min-yield-style probe sweep that ends on an
// exact repeat, the reused buffer must return exactly the fresh buffer's
// assignment and verdict. A node-set switch must drop the cached
// normalization and bin order.
func TestPackWarmMatchesBatch(t *testing.T) {
	const sequences = 60
	const eventsPerSeq = 12
	packed, failed := 0, 0
	for seq := 0; seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(1000 + seq)))
		d := 2 + seq%3 // 2, 3, 4 dimensions
		nodeSets := make([][]cluster.NodeSpec, 2)
		for i := range nodeSets {
			nodeSets[i] = randomRepackNodes(rng, 4+rng.Intn(29), d)
			for n := range nodeSets[i] {
				nodeSets[i][n].Cost = float64(1 + rng.Intn(4))
			}
		}
		packers := []MCB8{{}, {Objective: placement.Cost{}}}
		if seq%5 == 4 {
			packers[1].Objective = placement.BestFit{}
		}
		nodes, m := nodeSets[0], packers[0]
		in := &repackInstance{d: d}
		var reused PackBuffer
		packs := 0
		for ev := 0; ev < eventsPerSeq; ev++ {
			// One scheduling event: a change of nodes, packer or job set.
			switch r := rng.Float64(); {
			case r < 0.1:
				nodes = nodeSets[rng.Intn(len(nodeSets))]
			case r < 0.2:
				m = packers[rng.Intn(len(packers))]
			case r < 0.3:
				in.jobs = in.jobs[:0]
				for n := 8 + rng.Intn(60); n > 0; n-- {
					in.jobs = append(in.jobs, randomRepackJob(rng, d))
				}
			case len(in.jobs) == 0 || r < 0.75:
				at := rng.Intn(len(in.jobs) + 1)
				in.jobs = slices.Insert(in.jobs, at, randomRepackJob(rng, d))
			default:
				at := rng.Intn(len(in.jobs))
				in.jobs = slices.Delete(in.jobs, at, at+1)
			}
			in.rebuild()
			// The probe sweep MaxMinYield runs: 0, 1, bisection
			// midpoints, then an exact repeat of the last probe.
			for _, y := range []float64{0, 1, 0.5, 0.75, 0.625, 0.625} {
				in.setYield(y)
				got, ok := m.PackBuf(in.items, nodes, &reused)
				var fresh PackBuffer
				want, wantOK := m.PackBuf(in.items, nodes, &fresh)
				packs++
				if ok != wantOK {
					t.Fatalf("seq %d event %d yield %g: reused ok=%v, fresh ok=%v", seq, ev, y, ok, wantOK)
				}
				if !ok {
					failed++
					continue
				}
				packed++
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seq %d event %d yield %g: item %d reused node %d, fresh node %d",
							seq, ev, y, i, got[i], want[i])
					}
				}
			}
		}
		if reused.Packs != packs {
			t.Fatalf("seq %d: Packs = %d after %d packs", seq, reused.Packs, packs)
		}
	}
	t.Logf("%d packs succeeded, %d failed", packed, failed)
	if packed < 1000 || failed < 100 {
		t.Error("the sequences do not cover both feasible and infeasible packs")
	}
}

// TestPackWarmClusterChangeInvalidates pins a warm PackBuffer across
// alternating node sets of different sizes and costs, under no objective
// and under Cost: the cached normalization and bin order of one node set
// must not leak into a pack on the other, so every pack must match a batch
// pack with a fresh buffer.
func TestPackWarmClusterChangeInvalidates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := 2
	small := randomRepackNodes(rng, 4, d)
	big := randomRepackNodes(rng, 24, d)
	for i := range small {
		small[i].Cost = float64(len(small) - i)
	}
	for i := range big {
		big[i].Cost = float64(i % 5)
	}
	in := &repackInstance{d: d}
	for i := 0; i < 12; i++ {
		in.jobs = append(in.jobs, repackJob{tasks: 1 + i%3, cpuNeed: 0.1 + 0.05*float64(i), rigid: []float64{0.1 + 0.06*float64(i)}})
	}
	in.rebuild()
	for _, m := range []MCB8{{}, {Objective: placement.Cost{}}} {
		var warmBuf PackBuffer
		for _, nodes := range [][]cluster.NodeSpec{small, big, small, big} {
			for _, y := range []float64{0, 1, 0.5} {
				in.setYield(y)
				warm, wok := m.PackBuf(in.items, nodes, &warmBuf)
				var batchBuf PackBuffer
				batch, bok := m.PackBuf(in.items, nodes, &batchBuf)
				if wok != bok {
					t.Fatalf("%v nodes=%d yield %g: warm ok=%v batch ok=%v", m.Objective, len(nodes), y, wok, bok)
				}
				if wok {
					for i := range batch {
						if warm[i] != batch[i] {
							t.Fatalf("%v nodes=%d yield %g: item %d warm %d batch %d", m.Objective, len(nodes), y, i, warm[i], batch[i])
						}
					}
				}
			}
		}
	}
}

// randomRepackJob draws one job of 1..4 tasks with d-1 rigid requirements;
// dimensions past memory are often absent (GPU-less jobs).
func randomRepackJob(rng *rand.Rand, d int) repackJob {
	rigid := make([]float64, d-1)
	for k := range rigid {
		rigid[k] = 0.05 + 0.9*rng.Float64()
		if k > 0 && rng.Float64() < 0.5 {
			rigid[k] = 0
		}
	}
	return repackJob{tasks: 1 + rng.Intn(4), cpuNeed: 0.05 + 0.95*rng.Float64(), rigid: rigid}
}

func randomRepackNodes(rng *rand.Rand, n, d int) []cluster.NodeSpec {
	nodes := make([]cluster.NodeSpec, n)
	for i := range nodes {
		caps := make(cluster.Vec, d)
		caps[0] = 0.5 + 1.5*rng.Float64()
		caps[1] = 0.5 + 1.5*rng.Float64()
		for k := 2; k < d; k++ {
			if rng.Float64() < 0.5 {
				caps[k] = rng.Float64()
			}
		}
		nodes[i] = cluster.NodeSpec{Caps: caps}
	}
	return nodes
}
