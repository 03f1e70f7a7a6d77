// Package lublin reimplements the Lublin–Feitelson synthetic workload model
// ("The workload on parallel supercomputers: modeling the characteristics
// of rigid jobs", JPDC 63(11), 2003) for batch jobs, plus the CPU-need and
// memory-requirement annotations of the paper's Section IV-C, producing
// traces ready for the DFRS simulator.
//
// Model summary (published batch-partition parameters):
//
//   - Job size: serial with probability 0.244; otherwise a two-stage
//     log-uniform ("uniform on log2 of size": U[uLow, uMed] with
//     probability 0.86, else U[uMed, uHi]), rounded to a power of two with
//     probability 0.576.
//   - Runtime: exp of a hyper-gamma sample with gamma components
//     (4.2, 0.94) for short jobs and (312, 0.03) for long jobs; the short
//     component's probability decreases with job size as
//     p = -0.0054*size + 0.78.
//   - Inter-arrival times: exp of a gamma(10.23, 0.4871) sample, stretched
//     by a 48-slot daily cycle derived from a gamma(8.1, 0.46) time-of-day
//     density peaking near midday. (The original model's arrival process
//     has more structure; since the paper rescales every trace to exact
//     offered-load targets by multiplying inter-arrival times, only the
//     cycle shape matters here. The simplification is recorded in
//     DESIGN.md.)
//
// Annotations (paper Section IV-C, deliberately pessimistic for DFRS):
// nodes are quad-core, so a one-task (sequential) job has a CPU need of
// 25% and all multi-task jobs are CPU-bound with 100% need; 55% of jobs
// have a per-task memory requirement of 10%, the rest 10x% with x uniform
// on {2,...,10}.
package lublin

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/workload"
)

// Params holds the model parameters. Zero values are invalid; start from
// DefaultParams.
type Params struct {
	Nodes int // cluster size; job sizes fall in [1, Nodes]

	SerialProb float64 // probability of a one-task job
	Pow2Prob   float64 // probability a parallel size is rounded to a power of two
	ULow       float64 // log2 size range, two-stage uniform
	UMed       float64
	UHi        float64
	UProb      float64 // probability of the [ULow, UMed] stage

	A1, B1 float64 // gamma component of short log-runtimes
	A2, B2 float64 // gamma component of long log-runtimes
	PA, PB float64 // p = PA*size + PB selects the short component

	AArr, BArr float64 // gamma of log inter-arrival seconds (peak rate)

	CycleShape float64 // daily-cycle gamma shape (time-of-day density)
	CycleScale float64 // daily-cycle gamma scale, in hours
	CycleBase  float64 // hour of day where the cycle density starts

	MaxRuntime float64 // cap on sampled runtimes, seconds
}

// DefaultParams returns the published batch-partition parameters for a
// cluster of the given size.
func DefaultParams(nodes int) Params {
	uhi := math.Log2(float64(nodes))
	return Params{
		Nodes:      nodes,
		SerialProb: 0.244,
		Pow2Prob:   0.576,
		ULow:       0.8,
		UMed:       uhi - 2.0,
		UHi:        uhi,
		UProb:      0.86,
		A1:         4.2, B1: 0.94,
		A2: 312, B2: 0.03,
		PA: -0.0054, PB: 0.78,
		AArr: 10.23, BArr: 0.4871,
		CycleShape: 8.1,
		CycleScale: 0.46,
		CycleBase:  5, // density support starts at 05:00
		MaxRuntime: 5 * 24 * 3600,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	switch {
	case p.Nodes < 1:
		return fmt.Errorf("lublin: %d nodes", p.Nodes)
	case p.SerialProb < 0 || p.SerialProb > 1:
		return fmt.Errorf("lublin: serial probability %g", p.SerialProb)
	case p.ULow > p.UHi:
		return fmt.Errorf("lublin: uLow %g > uHi %g", p.ULow, p.UHi)
	case p.MaxRuntime <= 0:
		return fmt.Errorf("lublin: max runtime %g", p.MaxRuntime)
	}
	return nil
}

// RawJob is a job drawn from the model before CPU/memory annotation.
type RawJob struct {
	Submit  float64 // seconds from trace start
	Size    int     // number of tasks
	Runtime float64 // seconds at full speed
}

// sampleSize draws a job size following the two-stage log-uniform model.
func (p Params) sampleSize(r *rng.Source) int {
	if r.Bernoulli(p.SerialProb) {
		return 1
	}
	var u float64
	if r.Bernoulli(p.UProb) {
		u = r.Uniform(p.ULow, p.UMed)
	} else {
		u = r.Uniform(p.UMed, p.UHi)
	}
	size := math.Pow(2, u)
	if r.Bernoulli(p.Pow2Prob) {
		size = math.Pow(2, math.Round(u))
	}
	s := int(math.Round(size))
	if s < 2 {
		s = 2
	}
	if s > p.Nodes {
		s = p.Nodes
	}
	return s
}

// sampleRuntime draws a runtime (seconds) for a job of the given size.
func (p Params) sampleRuntime(r *rng.Source, size int) float64 {
	prob := p.PA*float64(size) + p.PB
	if prob < 0 {
		prob = 0
	}
	if prob > 1 {
		prob = 1
	}
	rt := math.Exp(r.HyperGamma(p.A1, p.B1, p.A2, p.B2, prob))
	if rt < 1 {
		rt = 1
	}
	if rt > p.MaxRuntime {
		rt = p.MaxRuntime
	}
	return rt
}

// cycleWeight returns the relative arrival intensity at the given hour of
// day in [0, 24), normalized so the peak is 1. The gamma density's mode
// sits (shape-1)*scale hours after CycleBase; with the default parameters
// (shape 8.1, scale 0.46 x 2 hours, base 05:00) the peak lands near 11:30,
// matching the daytime rush of the Lublin model's daily cycle.
func (p Params) cycleWeight(hour float64) float64 {
	scale := p.CycleScale * 2
	x := math.Mod(hour-p.CycleBase+24, 24)
	pdf := gammaPDF(x, p.CycleShape, scale)
	peak := gammaPDF((p.CycleShape-1)*scale, p.CycleShape, scale)
	w := pdf / peak
	const nightFloor = 0.05 // arrivals never stop completely overnight
	if w < nightFloor {
		w = nightFloor
	}
	return w
}

func gammaPDF(x, shape, scale float64) float64 {
	if x <= 0 {
		return 0
	}
	lg, _ := math.Lgamma(shape)
	logp := (shape-1)*math.Log(x) - x/scale - lg - shape*math.Log(scale)
	return math.Exp(logp)
}

// RawStream draws raw jobs one at a time, consuming variates in exactly
// the order generateRaw does, so a job-by-job pipeline (generate, annotate,
// encode, discard) produces the same jobs as batch generation without ever
// holding the whole trace. Submits are nondecreasing by construction.
type RawStream struct {
	p Params
	r *rng.Source
	t float64
}

// Stream validates p and returns a per-job generator over r.
func (p Params) Stream(r *rng.Source) (*RawStream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &RawStream{p: p, r: r}, nil
}

// Next draws the next raw job.
func (s *RawStream) Next() RawJob {
	base := math.Exp(s.r.Gamma(s.p.AArr, s.p.BArr))
	hour := math.Mod(s.t/3600, 24)
	s.t += base / s.p.cycleWeight(hour)
	size := s.p.sampleSize(s.r)
	return RawJob{Submit: s.t, Size: size, Runtime: s.p.sampleRuntime(s.r, size)}
}

// generateRaw draws njobs jobs (sizes, runtimes, arrival times) from the
// model.
func (p Params) generateRaw(r *rng.Source, njobs int) ([]RawJob, error) {
	s, err := p.Stream(r)
	if err != nil {
		return nil, err
	}
	if njobs < 0 {
		return nil, fmt.Errorf("lublin: %d jobs requested", njobs)
	}
	jobs := make([]RawJob, njobs)
	for i := range jobs {
		jobs[i] = s.Next()
	}
	return jobs, nil
}

// Annotation constants of Section IV-C.
const (
	// SequentialCPUNeed is a sequential task's CPU need on a quad-core
	// node: one core out of four.
	SequentialCPUNeed = 0.25
	// ParallelCPUNeed is the pessimistic CPU-bound need of multi-threaded
	// tasks.
	ParallelCPUNeed = 1.0
	// BaseMemProb is the fraction of jobs with the 10% memory requirement.
	BaseMemProb = 0.55
	// NodeMemGB is the assumed node memory of the synthetic platform; the
	// paper's footnote on migration costs implies 8 GB per task at 100%
	// node memory.
	NodeMemGB = 8.0
)

// AnnotateJob assigns the Section IV-C CPU need and memory requirement to
// one raw job.
func AnnotateJob(r *rng.Source, raw RawJob, id int) workload.Job {
	cpu := ParallelCPUNeed
	if raw.Size == 1 {
		cpu = SequentialCPUNeed
	}
	mem := 0.10
	if !r.Bernoulli(BaseMemProb) {
		mem = 0.10 * float64(2+r.Intn(9)) // 10x%, x uniform on {2..10}
	}
	return workload.Job{
		ID:       id,
		Submit:   raw.Submit,
		Tasks:    raw.Size,
		CPUNeed:  cpu,
		MemReq:   mem,
		ExecTime: raw.Runtime,
	}
}

// GenerateTrace draws a complete annotated trace of njobs jobs for a
// cluster of p.Nodes nodes.
func GenerateTrace(r *rng.Source, p Params, njobs int, name string) (*workload.Trace, error) {
	raw, err := p.generateRaw(r.Split("arrivals"), njobs)
	if err != nil {
		return nil, err
	}
	ar := r.Split("annotations")
	tr := &workload.Trace{Name: name, Nodes: p.Nodes, NodeMemGB: NodeMemGB}
	tr.Jobs = make([]workload.Job, njobs)
	for i, rj := range raw {
		tr.Jobs[i] = AnnotateJob(ar, rj, i)
	}
	tr.SortBySubmit()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}
