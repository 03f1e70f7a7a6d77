package vectorpack

import (
	"math/rand"
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
		row := len(in.backing)
		in.backing = append(in.backing, 0) // CPU, written per probe
		in.backing = append(in.backing, j.rigid...)
		_ = row
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

// TestPackWarmMatchesBatch is the differential property test pinning the
// warm-start kernel to the frozen batch kernel: over randomized
// arrival/completion sequences, each followed by a min-yield-style probe
// sweep, PackWarm must produce the identical assignment (and the
// identical failure verdict) to a fresh PackBuf on the same instance.
func TestPackWarmMatchesBatch(t *testing.T) {
	const sequences = 60
	const eventsPerSeq = 10 // 600 randomized events, ~3600 differential packs
	for seq := 0; seq < sequences; seq++ {
		seq := seq
		rng := rand.New(rand.NewSource(int64(1000 + seq)))
		d := 2 + seq%3 // 2, 3, 4 dimensions
		nodes := randomRepackNodes(rng, 4+rng.Intn(29), d)
		var m MCB8
		if seq%5 == 4 {
			m.Objective = placement.BestFit{}
		}
		in := &repackInstance{d: d}
		var warmBuf PackBuffer
		var st RepackState
		packs := 0
		for ev := 0; ev < eventsPerSeq; ev++ {
			// One scheduling event: a random arrival or completion...
			if len(in.jobs) == 0 || rng.Float64() < 0.6 {
				rigid := make([]float64, d-1)
				for k := range rigid {
					rigid[k] = 0.05 + 0.9*rng.Float64()
					if k > 0 && rng.Float64() < 0.5 {
						rigid[k] = 0 // higher dims often absent (GPU-less jobs)
					}
				}
				at := rng.Intn(len(in.jobs) + 1)
				in.jobs = append(in.jobs[:at], append([]repackJob{{
					tasks:   1 + rng.Intn(4),
					cpuNeed: 0.05 + 0.95*rng.Float64(),
					rigid:   rigid,
				}}, in.jobs[at:]...)...)
			} else {
				at := rng.Intn(len(in.jobs))
				in.jobs = append(in.jobs[:at], in.jobs[at+1:]...)
			}
			in.rebuild()
			// ...followed by a probe sweep over yields, mimicking
			// MaxMinYield: 0, 1, then bisection midpoints, then an
			// exact repeat of the last probe.
			yields := []float64{0, 1, 0.5, 0.75, 0.625, 0.625}
			for _, y := range yields {
				in.setYield(y)
				warm, wok := m.PackWarm(in.items, nodes, &warmBuf, &st)
				var batchBuf PackBuffer
				batch, bok := m.PackBuf(in.items, nodes, &batchBuf)
				packs++
				if wok != bok {
					t.Fatalf("seq %d event %d yield %g: warm ok=%v batch ok=%v", seq, ev, y, wok, bok)
				}
				if !wok {
					continue
				}
				for i := range batch {
					if warm[i] != batch[i] {
						t.Fatalf("seq %d event %d yield %g: item %d warm node %d batch node %d",
							seq, ev, y, i, warm[i], batch[i])
					}
				}
			}
		}
		if packs < 50 {
			t.Fatalf("seq %d: only %d packs exercised", seq, packs)
		}
	}
}

// TestPackWarmClusterChangeInvalidates pins that switching node sets
// mid-state recomputes the normalization and, under an objective, the bin
// order instead of reusing the stale ones.
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
		var buf PackBuffer
		var st RepackState
		for _, nodes := range [][]cluster.NodeSpec{small, big, small, big} {
			for _, y := range []float64{0, 1, 0.5} {
				in.setYield(y)
				warm, wok := m.PackWarm(in.items, nodes, &buf, &st)
				var bb PackBuffer
				batch, bok := m.PackBuf(in.items, nodes, &bb)
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

// TestPackWarmLargeDelta pins the fallback when an event replaces more
// groups than the incremental window absorbs.
func TestPackWarmLargeDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := 2
	nodes := randomRepackNodes(rng, 64, d)
	in := &repackInstance{d: d}
	var m MCB8
	var buf PackBuffer
	var st RepackState
	for round := 0; round < 4; round++ {
		in.jobs = in.jobs[:0]
		for i := 0; i < 2*repackMaxDelta+10; i++ {
			in.jobs = append(in.jobs, repackJob{
				tasks:   1,
				cpuNeed: 0.05 + 0.9*rng.Float64(),
				rigid:   []float64{0.05 + 0.4*rng.Float64()},
			})
		}
		in.rebuild()
		for _, y := range []float64{0, 1, 0.33} {
			in.setYield(y)
			warm, wok := m.PackWarm(in.items, nodes, &buf, &st)
			var bb PackBuffer
			batch, bok := m.PackBuf(in.items, nodes, &bb)
			if wok != bok {
				t.Fatalf("round %d yield %g: warm ok=%v batch ok=%v", round, y, wok, bok)
			}
			if wok {
				for i := range batch {
					if warm[i] != batch[i] {
						t.Fatalf("round %d yield %g: item %d warm %d batch %d", round, y, i, warm[i], batch[i])
					}
				}
			}
		}
	}
	if st.Rebuilds < 4 {
		t.Fatalf("expected a rebuild per wholesale replacement, got %d", st.Rebuilds)
	}
}

// TestPackWarmExactRepeatHits pins that a repeated probe of an unchanged
// instance takes the replay fast path.
func TestPackWarmExactRepeatHits(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := 2
	nodes := randomRepackNodes(rng, 16, d)
	in := &repackInstance{d: d}
	for i := 0; i < 20; i++ {
		in.jobs = append(in.jobs, repackJob{tasks: 1 + i%2, cpuNeed: 0.1 + 0.04*float64(i), rigid: []float64{0.05 + 0.04*float64(i)}})
	}
	in.rebuild()
	var m MCB8
	var buf PackBuffer
	var st RepackState
	in.setYield(0.5)
	a1, ok1 := m.PackWarm(in.items, nodes, &buf, &st)
	if !ok1 {
		t.Fatal("first pack failed")
	}
	saved := append([]int(nil), a1...)
	a2, ok2 := m.PackWarm(in.items, nodes, &buf, &st)
	if !ok2 || st.Repeats == 0 {
		t.Fatalf("repeat probe: ok=%v repeats=%d", ok2, st.Repeats)
	}
	for i := range saved {
		if a2[i] != saved[i] {
			t.Fatalf("replayed assignment diverges at item %d: %d vs %d", i, a2[i], saved[i])
		}
	}
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
