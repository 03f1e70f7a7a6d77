package lublin

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams(128).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DefaultParams(0).Validate(); err == nil {
		t.Error("zero-node params accepted")
	}
	bad := DefaultParams(128)
	bad.ULow = 10
	if err := bad.Validate(); err == nil {
		t.Error("uLow > uHi accepted")
	}
}

func TestGenerateRawDeterminism(t *testing.T) {
	p := DefaultParams(128)
	a, err := p.generateRaw(rng.New(5), 200)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.generateRaw(rng.New(5), 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at job %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGenerateRawShapes(t *testing.T) {
	p := DefaultParams(128)
	jobs, err := p.generateRaw(rng.New(1), 5000)
	if err != nil {
		t.Fatal(err)
	}
	serial := 0
	prevSubmit := -1.0
	short := 0
	for _, j := range jobs {
		if j.Size < 1 || j.Size > 128 {
			t.Fatalf("size %d out of range", j.Size)
		}
		if j.Size == 1 {
			serial++
		}
		if j.Runtime < 1 || j.Runtime > p.MaxRuntime {
			t.Fatalf("runtime %v out of range", j.Runtime)
		}
		if j.Runtime < 600 {
			short++
		}
		if j.Submit < prevSubmit {
			t.Fatal("arrivals not monotone")
		}
		prevSubmit = j.Submit
	}
	// Serial probability is 0.244; allow generous sampling slack.
	frac := float64(serial) / float64(len(jobs))
	if frac < 0.20 || frac > 0.29 {
		t.Errorf("serial fraction = %v, want ~0.244", frac)
	}
	// The hyper-gamma runtime mixture is bimodal: a substantial share of
	// jobs under 10 minutes AND a substantial share of long jobs.
	shortFrac := float64(short) / float64(len(jobs))
	if shortFrac < 0.2 || shortFrac > 0.95 {
		t.Errorf("short-job fraction = %v; runtime mixture looks wrong", shortFrac)
	}
}

func TestSizesPreferPowersOfTwo(t *testing.T) {
	p := DefaultParams(128)
	jobs, err := p.generateRaw(rng.New(2), 5000)
	if err != nil {
		t.Fatal(err)
	}
	pow2 := 0
	parallel := 0
	for _, j := range jobs {
		if j.Size == 1 {
			continue
		}
		parallel++
		if j.Size&(j.Size-1) == 0 {
			pow2++
		}
	}
	frac := float64(pow2) / float64(parallel)
	// At least the rounded 57.6% plus natural hits.
	if frac < 0.55 {
		t.Errorf("power-of-two fraction among parallel jobs = %v, want >= 0.55", frac)
	}
}

func TestRuntimeGrowsWithSize(t *testing.T) {
	// The p = PA*size + PB coupling makes large jobs longer on average.
	p := DefaultParams(128)
	r := rng.New(3)
	var smallSum, largeSum float64
	const n = 3000
	for i := 0; i < n; i++ {
		smallSum += p.sampleRuntime(r, 1)
		largeSum += p.sampleRuntime(r, 128)
	}
	if largeSum <= smallSum {
		t.Errorf("mean runtime small=%v large=%v; expected growth with size",
			smallSum/n, largeSum/n)
	}
}

func TestCycleWeight(t *testing.T) {
	p := DefaultParams(128)
	// The daily cycle must be positive everywhere, bounded by 1, and
	// higher at midday than in the dead of night.
	for h := 0.0; h < 24; h += 0.5 {
		w := p.cycleWeight(h)
		if w <= 0 || w > 1+1e-9 {
			t.Fatalf("cycleWeight(%v) = %v", h, w)
		}
	}
	if p.cycleWeight(12) <= p.cycleWeight(3) {
		t.Errorf("midday weight %v not above 3am weight %v", p.cycleWeight(12), p.cycleWeight(3))
	}
}

func TestAnnotateJob(t *testing.T) {
	r := rng.New(4)
	seq := AnnotateJob(r, RawJob{Submit: 5, Size: 1, Runtime: 60}, 0)
	if seq.CPUNeed != SequentialCPUNeed {
		t.Errorf("sequential CPU need = %v, want %v", seq.CPUNeed, SequentialCPUNeed)
	}
	par := AnnotateJob(r, RawJob{Submit: 6, Size: 8, Runtime: 60}, 1)
	if par.CPUNeed != ParallelCPUNeed {
		t.Errorf("parallel CPU need = %v, want %v", par.CPUNeed, ParallelCPUNeed)
	}
	// Memory distribution over many draws: 10% requirement with
	// probability 0.55, otherwise multiples of 10% from 20% to 100%.
	base := 0
	const n = 20000
	for i := 0; i < n; i++ {
		j := AnnotateJob(r, RawJob{Submit: 1, Size: 2, Runtime: 1}, i)
		frac := j.MemReq
		if frac < 0.1-1e-9 || frac > 1+1e-9 {
			t.Fatalf("memory requirement %v out of range", frac)
		}
		tenths := math.Round(frac * 10)
		if math.Abs(frac*10-tenths) > 1e-9 {
			t.Fatalf("memory requirement %v is not a multiple of 10%%", frac)
		}
		if frac < 0.15 {
			base++
		}
	}
	if got := float64(base) / n; got < 0.52 || got > 0.58 {
		t.Errorf("10%%-memory fraction = %v, want ~0.55", got)
	}
}

func TestGenerateTrace(t *testing.T) {
	tr, err := GenerateTrace(rng.New(7), DefaultParams(64), 300, "test-trace")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "test-trace" || tr.Nodes != 64 || tr.NodeMemGB != NodeMemGB {
		t.Errorf("trace metadata: %+v", tr)
	}
	if len(tr.Jobs) != 300 {
		t.Fatalf("%d jobs", len(tr.Jobs))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.OfferedLoad() <= 0 {
		t.Error("zero offered load")
	}
}

func TestGenerateTraceLoadIsScalable(t *testing.T) {
	tr, err := GenerateTrace(rng.New(8), DefaultParams(128), 400, "x")
	if err != nil {
		t.Fatal(err)
	}
	for _, load := range []float64{0.1, 0.9} {
		scaled, err := tr.ScaleToLoad(load)
		if err != nil {
			t.Fatal(err)
		}
		if got := scaled.OfferedLoad(); math.Abs(got-load) > 1e-9 {
			t.Errorf("scaled load = %v, want %v", got, load)
		}
	}
}

func TestGenerateRawRejectsNegativeCount(t *testing.T) {
	if _, err := DefaultParams(4).generateRaw(rng.New(1), -1); err == nil {
		t.Error("negative job count accepted")
	}
}
