package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	dfrs "repro"
)

// penalty is the rescheduling penalty of every workload: the paper's five
// minutes.
const penalty = 300

// workload is one benchmark input set. Setup builds its inputs from the
// seed; pass k runs one fixed unit of work on them and returns a digest of
// every deterministic output. The measured phase runs passes back to back.
type workload interface {
	// setup generates the inputs and returns named timings of its parts.
	setup(ctx context.Context, seed uint64) (map[string]float64, error)
	// pass runs pass k with the given simulation concurrency, attaching
	// tracing observers when tr is non-nil.
	pass(ctx context.Context, k, workers int, tr *tracer) (passResult, error)
}

// passResult is what one pass did and produced.
type passResult struct {
	digest string
	// outcome digests the outputs the simulator keeps identical across
	// worker counts; it equals digest except for federations (fedLoad.pass).
	outcome string
	ops     int           // simulations attempted: campaign cells or legs
	bad     int           // simulations that failed or broke an invariant
	jobs    int           // jobs simulated to completion
	events  int           // simulation events processed
	work    time.Duration // time inside the facade calls
	cellMS  []float64     // campaign cell latencies, Observer call to Progress call
	legs    []leg         // non-campaign simulation legs, in order
	fold    time.Duration // time inside the online-metrics job sink (traced)
	// info holds deterministic per-pass figures worth printing.
	info map[string]float64
}

type leg struct {
	name string
	d    time.Duration
}

// workloadDef names a workload. Passes of a repeating workload run the same
// inputs, so every pass must reproduce the first pass's digest; the other
// workloads draw fresh inputs for every pass.
type workloadDef struct {
	name    string
	repeats bool
	// opWorkers is how many operations run at once (campaign cells share
	// the worker pool; simulation legs run one after another).
	opWorkers int
	make      func(small bool) workload
}

// defs are the benchmark workloads, in BENCHMARK.json order.
var defs = []workloadDef{
	{name: "campaign-dynmcb8", opWorkers: workers, make: newCampaignDynMCB8},
	{name: "stream-replay", repeats: true, opWorkers: 1, make: newStreamReplay},
	{name: "federation-8", repeats: true, opWorkers: 1, make: newFederation8},
	{name: "campaign-hetero", opWorkers: workers, make: newCampaignHetero},
}

func lookup(name string) (workloadDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
	}
	return names
}

// family maps an algorithm to the scheduler family its hooks are grouped
// under.
func family(alg string) string {
	switch {
	case strings.HasPrefix(alg, "dynmcb8"):
		return "mcb"
	case strings.HasPrefix(alg, "greedy"):
		return "greedy"
	default:
		return "batch"
	}
}

// campaignLoad is a Campaign over a grid. Pass k runs the grid with the
// campaign seed derived from (seed, k), so every pass simulates new traces
// and a run covers as many traces as its time allows.
type campaignLoad struct {
	grid dfrs.Grid
	seed uint64
}

// newCampaignDynMCB8 is the Table-I-shaped grid: the four DYNMCB8 variants
// at two high loads, where the allocator and its shed loop do almost all
// the work.
func newCampaignDynMCB8(small bool) workload {
	g := dfrs.Grid{
		Name:         "campaign-dynmcb8",
		Algorithms:   []string{"dynmcb8", "dynmcb8-per", "dynmcb8-asap-per", "dynmcb8-stretch-per"},
		Families:     []dfrs.CampaignFamily{{Kind: dfrs.FamilyLublin, Count: 3}},
		Loads:        []float64{0.7, 0.9},
		Penalties:    []float64{penalty},
		Nodes:        []int{128},
		JobsPerTrace: 300,
	}
	if small {
		g.Families[0].Count, g.Nodes, g.JobsPerTrace = 1, []int{32}, 40
	}
	return &campaignLoad{grid: g}
}

// newCampaignHetero crosses the batch, greedy and MCB families with two
// heterogeneous three-resource platforms and the default and cost
// placement objectives.
func newCampaignHetero(small bool) workload {
	g := dfrs.Grid{
		Name:         "campaign-hetero",
		Algorithms:   []string{"easy", "conservative", "greedy-pmtn", "dynmcb8-per"},
		Families:     []dfrs.CampaignFamily{{Kind: dfrs.FamilyLublin, Count: 3}},
		Loads:        []float64{0.7},
		Penalties:    []float64{penalty},
		Nodes:        []int{128},
		NodeMixes:    []string{"bimodal-priced", "gpu-uniform"},
		Objectives:   []string{"", "cost"},
		GPUFrac:      0.3,
		JobsPerTrace: 300,
	}
	if small {
		g.Families[0].Count, g.Nodes, g.JobsPerTrace = 1, []int{32}, 40
	}
	return &campaignLoad{grid: g}
}

// setup runs a warm-up campaign, so lazy initialisation and heap growth
// finish before timing: one trace of a third of the grid's length, from a
// fixed seed so that its cost does not depend on the workload seed. The
// measured campaigns generate their own traces from the seed.
func (c *campaignLoad) setup(ctx context.Context, seed uint64) (map[string]float64, error) {
	c.seed = seed
	g := c.grid
	g.Seeds = []uint64{0}
	g.Families = []dfrs.CampaignFamily{{Kind: dfrs.FamilyLublin, Count: 1}}
	g.JobsPerTrace = max(c.grid.JobsPerTrace/3, 10)
	run, err := dfrs.Campaign(ctx, g, dfrs.CampaignOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	_, err = run.Wait()
	return nil, err
}

func (c *campaignLoad) pass(ctx context.Context, k, workers int, tr *tracer) (passResult, error) {
	g := c.grid
	g.Seeds = []uint64{c.seed<<20 | uint64(k)}
	n := len(g.Cells())
	pr := passResult{ops: n}
	var (
		mu     sync.Mutex
		starts = make(map[string]time.Time, n)
		ops    = make(map[string]*opTrace, n)
	)
	opt := dfrs.CampaignOptions{
		Workers: workers,
		Observer: func(cell dfrs.CampaignCell) dfrs.Observer {
			key := cell.Key()
			mu.Lock()
			defer mu.Unlock()
			starts[key] = time.Now()
			if tr == nil {
				return nil
			}
			op := tr.begin(key, family(cell.Algorithm), cell.Objective)
			ops[key] = op
			return op
		},
		Progress: func(_, _ int, rec dfrs.CampaignRecord) {
			end := time.Now()
			mu.Lock()
			defer mu.Unlock()
			pr.cellMS = append(pr.cellMS, float64(end.Sub(starts[rec.Key]))/1e6)
			if op := ops[rec.Key]; op != nil {
				op.finish()
			}
		},
	}
	t0 := time.Now()
	run, err := dfrs.Campaign(ctx, g, opt)
	if err != nil {
		pr.bad = n
		return pr, err
	}
	recs, err := run.Wait()
	pr.work = time.Since(t0)
	if err != nil {
		pr.bad = n
		return pr, err
	}
	h := sha256.New()
	for _, r := range recs {
		if r.Finished != r.Jobs || !(r.MaxStretch >= 1-1e-9) || r.Events <= 0 {
			pr.bad++
		}
		pr.jobs += r.Finished
		pr.events += r.Events
		line, err := json.Marshal(r)
		if err != nil {
			return pr, err
		}
		h.Write(append(line, '\n'))
	}
	pr.bad += n - len(recs)
	pr.digest = hex.EncodeToString(h.Sum(nil))
	pr.outcome = pr.digest
	return pr, nil
}

// streamLoad replays one long trace from its encoded bytes with each
// algorithm in turn, folding every completed job into an online
// aggregator instead of keeping it.
type streamLoad struct {
	jobs  int
	nodes int
	algs  []string
	data  []byte
}

func newStreamReplay(small bool) workload {
	s := &streamLoad{jobs: 80_000, nodes: 128, algs: []string{"greedy-pmtn", "easy"}}
	if small {
		s.jobs = 2000
	}
	return s
}

// setup generates the trace and encodes it to memory. Only the bytes are
// kept: the materialised job list is garbage once encoded, so the measured
// phase sees the live heap of a replay from a file.
func (s *streamLoad) setup(ctx context.Context, seed uint64) (map[string]float64, error) {
	t0 := time.Now()
	tr, err := dfrs.SyntheticTrace(dfrs.SyntheticOptions{Seed: seed, Nodes: s.nodes, Jobs: s.jobs})
	if err != nil {
		return nil, err
	}
	gen := time.Since(t0)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		return nil, err
	}
	s.data = buf.Bytes()
	// Parse the bytes back once: this checks the encoding and times the
	// streaming parser on its own.
	t1 := time.Now()
	load, n, err := dfrs.MeasureStreamLoad(bytes.NewReader(s.data))
	if err != nil {
		return nil, err
	}
	if n != s.jobs || !(load > 0) {
		return nil, fmt.Errorf("encoded trace reads back as %d jobs at load %g, want %d jobs", n, load, s.jobs)
	}
	return map[string]float64{
		"workload.gen_s":   gen.Seconds(),
		"workload.parse_s": time.Since(t1).Seconds(),
		"workload.mib":     float64(len(s.data)) / (1 << 20),
	}, nil
}

func (s *streamLoad) pass(ctx context.Context, _, _ int, tr *tracer) (passResult, error) {
	var pr passResult
	h := sha256.New()
	for _, alg := range s.algs {
		agg := dfrs.NewOnlineAggregator()
		sink := agg.ObserveJob
		opts := []dfrs.RunOption{dfrs.WithPenalty(penalty), dfrs.WithObserver(agg.Observer())}
		var op *opTrace
		if tr != nil {
			op = tr.begin(alg, family(alg), "")
			opts = append(opts, dfrs.WithObserver(op))
			sink = func(jr dfrs.JobResult) {
				t := time.Now()
				agg.ObserveJob(jr)
				pr.fold += time.Since(t)
			}
		}
		opts = append(opts, dfrs.WithJobSink(sink))
		pr.ops++
		t0 := time.Now()
		res, err := dfrs.RunStream(ctx, bytes.NewReader(s.data), alg, opts...)
		d := time.Since(t0)
		pr.work += d
		pr.legs = append(pr.legs, leg{alg, d})
		if op != nil {
			op.finish()
		}
		if err != nil {
			pr.bad++
			return pr, err
		}
		snap := agg.Snapshot()
		if snap.Jobs != int64(s.jobs) || snap.Submitted != int64(s.jobs) || !(snap.MaxStretch >= 1-1e-9) || res.Events() <= 0 {
			pr.bad++
		}
		pr.jobs += int(snap.Jobs)
		pr.events += res.Events()
		line, err := json.Marshal(struct {
			Algorithm                       string
			Makespan, Utilization, Cost     float64
			Events, Preemptions, Migrations int
			Online                          dfrs.OnlineSnapshot
		}{res.Algorithm(), res.Makespan(), res.Utilization(), res.Cost(),
			res.Events(), res.Preemptions(), res.Migrations(), snap})
		if err != nil {
			return pr, err
		}
		h.Write(append(line, '\n'))
	}
	pr.digest = hex.EncodeToString(h.Sum(nil))
	pr.outcome = pr.digest
	return pr, nil
}

// fedLoad runs one trace through a federation of identical members, once
// per (dispatcher, algorithm) leg.
type fedLoad struct {
	jobs     int
	clusters []dfrs.ClusterSpec
	legs     []struct{ dispatcher, algorithm string }
	trace    dfrs.Trace
}

// newFederation8 pairs the stateless round-robin dispatcher, which lets the
// parallel loop batch arrivals, with the MCB family, and the queue-depth
// dispatcher, which needs a barrier at every arrival, with greedy.
func newFederation8(small bool) workload {
	f := &fedLoad{jobs: 60_000, clusters: make([]dfrs.ClusterSpec, 8)}
	nodes := 64
	if small {
		f.jobs, nodes = 1500, 16
	}
	for i := range f.clusters {
		f.clusters[i] = dfrs.ClusterSpec{Nodes: nodes}
	}
	f.legs = []struct{ dispatcher, algorithm string }{
		{"roundrobin", "dynmcb8-asap-per"},
		{"queuedepth", "greedy-pmtn"},
	}
	return f
}

// setup generates the trace for one member and scales it to load 0.9
// there, so the eight members share that load.
func (f *fedLoad) setup(ctx context.Context, seed uint64) (map[string]float64, error) {
	t0 := time.Now()
	tr, err := dfrs.SyntheticTrace(dfrs.SyntheticOptions{Seed: seed, Nodes: f.clusters[0].Nodes, Jobs: f.jobs})
	if err != nil {
		return nil, err
	}
	if f.trace, err = tr.ScaleToLoad(0.9); err != nil {
		return nil, err
	}
	return map[string]float64{"workload.gen_s": time.Since(t0).Seconds()}, nil
}

func (f *fedLoad) pass(ctx context.Context, _, workers int, tr *tracer) (passResult, error) {
	pr := passResult{info: map[string]float64{}}
	h, ho := sha256.New(), sha256.New()
	for _, l := range f.legs {
		spec := dfrs.FederationSpec{Clusters: f.clusters, Dispatcher: l.dispatcher, Algorithm: l.algorithm, Workers: workers}
		opts := []dfrs.RunOption{dfrs.WithPenalty(penalty)}
		var op *opTrace
		if tr != nil {
			op = tr.begin(l.dispatcher, family(l.algorithm), "")
			opts = append(opts, dfrs.WithObserver(op))
		}
		pr.ops++
		t0 := time.Now()
		res, err := dfrs.RunFederated(ctx, f.trace, spec, opts...)
		d := time.Since(t0)
		pr.work += d
		pr.legs = append(pr.legs, leg{l.dispatcher, d})
		if op != nil {
			op.finish()
		}
		if err != nil {
			pr.bad++
			return pr, err
		}
		jobs := res.Jobs()
		dispatched := res.Dispatched()
		total, most := 0, 0
		for _, n := range dispatched {
			total += n
			most = max(most, n)
		}
		if len(jobs) != f.jobs || total != f.jobs || !(res.MaxStretch() >= 1-1e-9) || res.Events() <= 0 {
			pr.bad++
		}
		pr.jobs += len(jobs)
		pr.events += res.Events()
		pr.info["federation."+l.dispatcher+".dispatch_max_share"] = float64(most) / float64(max(total, 1))
		// Event counts go into the digest only: with periodic schedulers,
		// members that finished their jobs tick their timers a different
		// number of times on one worker than on two, so the check across
		// worker counts compares the outcomes without them.
		for _, withEvents := range []bool{true, false} {
			line, err := fedSummary(res, withEvents)
			if err != nil {
				return pr, err
			}
			if withEvents {
				h.Write(line)
			} else {
				ho.Write(line)
			}
		}
		// Per-job outcomes in binary: hashing them as JSON would cost more
		// than the check is worth.
		both := io.MultiWriter(h, ho)
		var b [48]byte
		for _, jr := range jobs {
			binary.LittleEndian.PutUint64(b[0:], uint64(jr.Job.ID))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(jr.Start))
			binary.LittleEndian.PutUint64(b[16:], math.Float64bits(jr.Finish))
			binary.LittleEndian.PutUint64(b[24:], math.Float64bits(jr.Turnaround))
			binary.LittleEndian.PutUint64(b[32:], uint64(jr.Pauses))
			binary.LittleEndian.PutUint64(b[40:], uint64(jr.Migrations))
			both.Write(b[:])
		}
	}
	pr.digest = hex.EncodeToString(h.Sum(nil))
	pr.outcome = hex.EncodeToString(ho.Sum(nil))
	return pr, nil
}

// fedSummary renders a federated result's merged and per-cluster figures
// and its dispatch counts as one JSON line, with or without event counts.
func fedSummary(res dfrs.FederatedResult, withEvents bool) ([]byte, error) {
	clusters := make([]dfrs.FederatedClusterResult, res.Clusters())
	for i := range clusters {
		clusters[i] = res.Cluster(i)
		if !withEvents {
			clusters[i].Events = 0
		}
	}
	events := 0
	if withEvents {
		events = res.Events()
	}
	line, err := json.Marshal(struct {
		Dispatcher                                    string
		MaxStretch, AvgStretch, Makespan, Utilization float64
		Cost                                          float64
		Events                                        int
		Dispatched                                    []int
		Clusters                                      []dfrs.FederatedClusterResult
	}{res.Dispatcher(), res.MaxStretch(), res.AvgStretch(), res.Makespan(), res.Utilization(),
		res.Cost(), events, res.Dispatched(), clusters})
	return append(line, '\n'), err
}
