package vectorpack

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
)

// BenchmarkMCB8SteadyState measures one steady-state scheduling event at
// scale: a single-job delta (one completion, one arrival) in a large live
// set, followed by the min-yield probe sweep the DYNMCB8 schedulers run per
// event, every probe packed with PackBuf on one reused buffer.
func BenchmarkMCB8SteadyState(b *testing.B) {
	const liveJobs = 4096
	const nNodes = 4096
	rng := rand.New(rand.NewSource(99))
	nodes := make([]cluster.NodeSpec, nNodes)
	for i := range nodes {
		nodes[i] = cluster.NodeSpec{Caps: cluster.Vec{1, 1}}
	}
	in := &repackInstance{d: 2}
	for i := 0; i < liveJobs; i++ {
		in.jobs = append(in.jobs, repackJob{
			tasks:   1,
			cpuNeed: 0.05 + 0.9*rng.Float64(),
			rigid:   []float64{0.02 + 0.28*rng.Float64()},
		})
	}
	in.rebuild()
	probes := []float64{0, 1, 0.5, 0.25, 0.375, 0.4375, 0.40625, 0.40625}
	var m MCB8
	rng = rand.New(rand.NewSource(7))
	var buf PackBuffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := rng.Intn(len(in.jobs))
		in.jobs[at] = repackJob{
			tasks:   1,
			cpuNeed: 0.05 + 0.9*rng.Float64(),
			rigid:   []float64{0.02 + 0.28*rng.Float64()},
		}
		in.rebuild()
		for _, y := range probes {
			in.setYield(y)
			if _, ok := m.PackBuf(in.items, nodes, &buf); !ok {
				b.Fatal("pack failed")
			}
		}
	}
}
