package campaign

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/federation"
	"repro/internal/hpc2n"
	"repro/internal/lublin"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// maxSimTime is the livelock guard shared by every campaign run (50 years
// of simulated time).
const maxSimTime = 50 * 365 * 24 * 3600

// Runner executes a grid's cells on a bounded worker pool. The zero value
// runs on all cores with no sink and no skipping.
type Runner struct {
	// Workers bounds concurrent simulations; <=0 means GOMAXPROCS.
	Workers int
	// Sink, when non-nil, receives every finished record as it completes.
	// Completion order is nondeterministic with more than one worker; sort
	// records by key (SortRecords) for a canonical view.
	Sink Sink
	// Skip holds cell keys to treat as already finished (checkpoint
	// resume); their cells are neither simulated nor re-emitted.
	Skip map[string]bool
	// Progress, when non-nil, is called after each finished cell with the
	// number of cells done and the total to run. Calls are serialised.
	Progress func(done, total int, rec Record)
	// Observe, when non-nil, is called once per cell before its
	// simulation; a non-nil return value receives that cell's scheduling
	// transitions (sim.Observer). Observation does not perturb results:
	// event sequences are a deterministic function of the cell alone, so
	// they are identical for any worker count.
	Observe func(Cell) sim.Observer
	// FedWorkers sets federation.Spec.Workers for every cell. Cells
	// without a topology are one-member federations, which always
	// advance inline; for federated cells, values above 1 advance the
	// member clusters concurrently on that many goroutines between
	// dispatch points. The default 0 (like 1) advances them inline on
	// the cell's own worker — the cell pool above already owns the
	// cores — and is the right choice except for few-cell campaigns of
	// wide topologies. Records are byte-identical
	// across every value: FedWorkers is an execution knob, not a grid
	// axis, so it never appears in keys or JSONL (pinned by test).
	FedWorkers int
	// OnJob, when non-nil, is called once per retained job result of every
	// finished cell, after the cell's invariants validate and before its
	// record reaches the Sink. It exists to feed streaming aggregators
	// (internal/metrics/online) without perturbing records: the fold walks
	// the already-retained per-job results, so record bytes are identical
	// with or without the tap. Cells finish on concurrent workers, so OnJob
	// must be safe for concurrent use.
	OnJob func(Cell, sim.JobResult)
}

// Run expands, validates and executes the grid, returning the records of
// every cell that was not skipped, sorted by cell key. The first cell error
// aborts the run.
func (r *Runner) Run(g *Grid) ([]Record, error) {
	return r.RunContext(context.Background(), g)
}

// RunContext is Run with cooperative cancellation. Each worker checks the
// context before claiming another cell and the simulator checks it between
// events, so cancellation stops the campaign within one cell per worker.
// Cells finished before the cancellation are returned (sorted by key) and
// were already streamed to the Sink, so a JSONL checkpoint stays valid and
// resumable: exactly the completed cells are skipped on resume. The
// returned error wraps ctx.Err() when the run was cancelled.
func (r *Runner) RunContext(ctx context.Context, g *Grid) ([]Record, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cells := g.Cells()
	if len(r.Skip) > 0 {
		kept := cells[:0]
		for _, c := range cells {
			if !r.Skip[c.Key()] {
				kept = append(kept, c)
			}
		}
		cells = kept
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	mat := newMaterialiser()
	records := make([]Record, 0, len(cells))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     int
	)
	next := make(chan Cell, len(cells))
	for _, c := range cells {
		next <- c
	}
	close(next)
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				if ctx.Err() != nil {
					return
				}
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					return
				}
				rec, err := runCell(ctx, r, mat, g, c)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("campaign: cell %s: %w", c.Key(), err)
					}
					mu.Unlock()
					return
				}
				if r.Sink != nil {
					if serr := r.Sink.Write(rec); serr != nil && firstErr == nil {
						firstErr = fmt.Errorf("campaign: sink: %w", serr)
						mu.Unlock()
						return
					}
				}
				records = append(records, rec)
				done++
				if r.Progress != nil {
					r.Progress(done, len(cells), rec)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil && !errors.Is(firstErr, context.Canceled) && !errors.Is(firstErr, context.DeadlineExceeded) {
		return nil, firstErr
	}
	SortRecords(records)
	if err := ctx.Err(); err != nil {
		return records, fmt.Errorf("campaign: grid %q interrupted after %d of %d cells: %w",
			g.Name, done, len(cells), err)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return records, nil
}

// runCell materialises the cell's trace and runs it on the shared-clock
// federation orchestrator, producing the checkpoint record. A cell without
// a Topology is a one-member federation over the cell's node mix laid out
// on the trace's node count (families like hpc2n fix their own cluster
// size) — byte-identical to a plain single-cluster run. Otherwise the
// topology is parsed over that count and mix, and per-member routing
// counts ride along in Dispatched. Every quantity is a deterministic
// function of the cell, so every campaign checkpoints and resumes alike.
func runCell(ctx context.Context, r *Runner, mat *materialiser, g *Grid, c Cell) (Record, error) {
	tr, err := mat.trace(c)
	if err != nil {
		return Record{}, err
	}
	members := []federation.MemberSpec{{Mix: c.NodeMix, Nodes: tr.Nodes}}
	if c.Topology != "" {
		if members, err = federation.ParseTopology(c.Topology, tr.Nodes, c.NodeMix); err != nil {
			return Record{}, err
		}
	}
	// Members are extended with unit capacity to the trace's dimensions,
	// so a GPU-demanding trace on a two-dimensional mix is satisfiable
	// everywhere; GPU profiles keep their own layout. Each member resolves
	// a fresh scheduler and objective instance (both may carry state).
	fspec := federation.Spec{
		TraceName:       tr.Name,
		NodeMemGB:       tr.NodeMemGB,
		Dims:            tr.Dims(),
		Members:         members,
		Dispatcher:      c.Dispatch,
		Algorithm:       c.Algorithm,
		Objective:       c.Objective,
		Penalty:         c.Penalty,
		MaxSimTime:      maxSimTime,
		CheckInvariants: g.Check,
		Workers:         r.FedWorkers,
	}
	// Hook timing is one more observer of the cell's members, folding
	// each SchedulerInvoked as it arrives.
	var observers []sim.Observer
	if r.Observe != nil {
		if obs := r.Observe(c); obs != nil {
			observers = append(observers, obs)
		}
	}
	var timing *TimingAgg
	if g.Timing {
		timing = &TimingAgg{}
		observers = append(observers, sim.ObserverFunc(timing.observe))
	}
	if obs := sim.Fanout(observers...); obs != nil {
		fspec.Observer = func(int) sim.Observer { return obs }
	}
	fed, err := federation.New(fspec, workload.NewSliceSource(tr))
	if err != nil {
		return Record{}, err
	}
	res, err := fed.Run(ctx)
	if err != nil {
		return Record{}, err
	}
	sum, mg := res.Summary, res.Merged
	if sum.Jobs == 0 {
		return Record{}, fmt.Errorf("no finished jobs")
	}
	if r.OnJob != nil {
		for jr := range res.EachJob() {
			r.OnJob(c, jr)
		}
	}
	rec := Record{
		Key:       c.Key(),
		Seed:      c.Seed,
		Family:    c.Family,
		Trace:     tr.Name,
		TraceIdx:  c.TraceIdx,
		Load:      c.Load,
		Nodes:     c.Nodes,
		Jobs:      c.Jobs,
		NodeMix:   c.NodeMix,
		GPUFrac:   c.GPUFrac,
		GPUCorr:   c.GPUCorr,
		Objective: c.Objective,
		Penalty:   c.Penalty,
		Algorithm: c.Algorithm,
		Topology:  c.Topology,
		Dispatch:  c.Dispatch,

		MaxStretch:  sum.MaxStretch,
		AvgStretch:  sum.AvgStretch,
		Makespan:    mg.Makespan,
		Utilization: mg.Utilization(),
		Finished:    sum.Jobs,
		Events:      mg.Events,
		Cost:        mg.NodeCostSeconds,

		PmtnGBps:    res.Costs.PmtnGBps,
		MigGBps:     res.Costs.MigGBps,
		PmtnPerHour: res.Costs.PmtnPerHour,
		MigPerHour:  res.Costs.MigPerHour,
		PmtnPerJob:  res.Costs.PmtnPerJob,
		MigPerJob:   res.Costs.MigPerJob,
	}
	if c.Topology != "" {
		rec.Dispatched = make([]int, len(res.Clusters))
		for i := range res.Clusters {
			rec.Dispatched[i] = res.Clusters[i].Dispatched
		}
	}
	rec.Timing = timing
	return rec, nil
}

// observe folds one SchedulerInvoked event into the aggregate; other
// events are ignored.
func (agg *TimingAgg) observe(e sim.Event) {
	if e.Kind != sim.EvSchedulerInvoked {
		return
	}
	sec := e.Elapsed.Seconds()
	if agg.Samples == 0 || sec < agg.Min {
		agg.Min = sec
	}
	agg.Samples++
	agg.Sum += sec
	agg.SumSq += sec * sec
	agg.Max = math.Max(agg.Max, sec)
	if e.JobsInSystem <= 10 {
		if sec < 1e-3 {
			agg.SmallFast++
		}
	} else {
		if agg.LargeN == 0 || sec < agg.LargeMin {
			agg.LargeMin = sec
		}
		agg.LargeN++
		agg.LargeSum += sec
		agg.LargeSqSm += sec * sec
		agg.LargeMax = math.Max(agg.LargeMax, sec)
	}
	agg.MaxJobs = max(agg.MaxJobs, e.JobsInSystem)
}

// materialiser builds and caches the traces a grid's cells run on. Base
// traces are derived from RNG substreams keyed only by (seed, family,
// index), never by execution order, so any subset of cells sees identical
// traces no matter how the worker pool interleaves. Load scaling is pure
// and cheap, so scaled variants are derived per cell rather than cached.
type materialiser struct {
	mu      sync.Mutex
	entries map[string]*matEntry
}

type matEntry struct {
	once sync.Once
	tr   *workload.Trace
	err  error
}

func newMaterialiser() *materialiser {
	return &materialiser{entries: map[string]*matEntry{}}
}

// trace returns the (possibly load-scaled) trace for one cell.
func (m *materialiser) trace(c Cell) (*workload.Trace, error) {
	base, err := m.base(c)
	if err != nil {
		return nil, err
	}
	if c.Load == Unscaled {
		return base, nil
	}
	return base.ScaleToLoad(c.Load)
}

// base returns the unscaled trace for the cell, generating it at most once
// per (seed, family, index, nodes, jobs, gpu, corr) combination.
func (m *materialiser) base(c Cell) (*workload.Trace, error) {
	key := fmt.Sprintf("%s/%d/%d/%d/%d/%g/%g", c.Family, c.Seed, c.TraceIdx, c.Nodes, c.Jobs, c.GPUFrac, c.GPUCorr)
	m.mu.Lock()
	e, ok := m.entries[key]
	if !ok {
		e = &matEntry{}
		m.entries[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.tr, e.err = generateBase(c) })
	return e.tr, e.err
}

// generateBase draws the cell's base trace from its deterministic RNG
// substream. The lublin split labels match the historical
// experiments.Config.BaseTraces labels so campaigns reproduce the exact
// synthetic traces of the pre-engine harness. The hpc2n family
// intentionally differs from the pre-engine Table I leg: instead of one
// continuous multi-week log split into segments (whose week contents
// depended on the total week count), every weekly segment is an
// independent one-week synthesis, so each cell's trace is a function of
// (seed, index) alone.
func generateBase(c Cell) (*workload.Trace, error) {
	base, err := generateFamilyBase(c)
	if err != nil || c.GPUFrac == 0 {
		return base, err
	}
	// The GPU axis is a deterministic decoration of the base trace: a
	// dedicated substream keyed by (seed, family, index) hands GPUFrac of
	// the jobs a per-task GPU demand in the shared default bounds. GPUCorr
	// mixes the per-task memory requirement into the demand variate; corr
	// zero is exactly the independent model with identical variate
	// consumption, so pre-correlation cells see byte-identical traces.
	root := rng.New(c.Seed)
	return workload.AttachGPUDemandCorrelated(base,
		root.Split(fmt.Sprintf("gpu-%s-%d", c.Family, c.TraceIdx)),
		c.GPUFrac, c.GPUCorr, workload.GPUDemandLo, workload.GPUDemandHi)
}

// generateFamilyBase draws the cell's two-resource base trace.
func generateFamilyBase(c Cell) (*workload.Trace, error) {
	root := rng.New(c.Seed)
	switch c.Family {
	case FamilyLublin:
		r := root.Split(fmt.Sprintf("trace-%d", c.TraceIdx))
		return lublin.GenerateTrace(r, lublin.DefaultParams(c.Nodes), c.Jobs,
			fmt.Sprintf("lublin-s%d-%03d", c.Seed, c.TraceIdx))
	case FamilyHPC2N:
		// Each weekly segment is an independent one-week synthesis drawn
		// from its own substream, so a cell's trace depends only on
		// (seed, index) — never on how many weeks the family sweeps.
		p := hpc2n.DefaultSynthParams()
		p.Weeks = 1
		weeks, _, err := hpc2n.WeeklyTraces(root.Split(fmt.Sprintf("hpc2n-week-%d", c.TraceIdx)), p)
		if err != nil {
			return nil, err
		}
		if len(weeks) == 0 {
			return nil, fmt.Errorf("hpc2n synthesis produced no weekly segments")
		}
		week := weeks[0]
		week.Name = fmt.Sprintf("hpc2n-s%d-w%03d", c.Seed, c.TraceIdx)
		return week, nil
	default:
		return nil, fmt.Errorf("unknown workload family %q", c.Family)
	}
}
