package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"time"
)

const (
	// workers is the simulation concurrency of every workload: campaign
	// Workers and FederationSpec.Workers.
	workers = 2
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a workload run prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// checker compares pass digests with pass 0's: with the golden digest of
// pass 0 when the seed has one, and with pass 0's own digest for every
// later run of the same input (repeated passes, the traced pass, the
// single-worker pass).
type checker struct {
	golden, first string
	repeats       bool
	mismatches    int
	log           io.Writer
}

func (c *checker) check(k int, digest string) {
	switch {
	case k > 0 && !c.repeats:
	case c.first == "":
		c.first = digest
		if c.golden != "" && digest != c.golden {
			c.mismatches++
			fmt.Fprintf(c.log, "bench: pass 0 digest %s differs from golden %s\n", digest, c.golden)
		}
	case digest != c.first:
		c.mismatches++
		fmt.Fprintf(c.log, "bench: pass %d digest %s differs from pass 0's %s\n", k, digest, c.first)
	}
}

// sameOutcome checks the single-worker pass against the reference pass.
// Outcomes must match; a difference confined to event counts is reported
// but is not a failure (see fedLoad.pass).
func (c *checker) sameOutcome(ref, ser passResult) {
	switch {
	case ser.outcome != ref.outcome:
		c.mismatches++
		fmt.Fprintf(c.log, "bench: pass 0 on one worker gives outcome %s, on %d workers %s\n", ser.outcome, workers, ref.outcome)
	case ser.digest != ref.digest:
		fmt.Fprintf(c.log, "bench: pass 0 on one worker matches in outcomes but not in event counts\n")
	}
}

// loopStats sums the passes of a measured phase.
type loopStats struct {
	passes, ops, bad, jobs, events int
	work, wall, fold               time.Duration
	cellMS                         []float64
	pass0                          passResult
	alloc                          uint64
	peak, live                     float64 // live heap bytes: largest and median sample
}

// loop runs passes back to back until seconds have passed, always
// finishing the pass in flight, and checks each one.
func loop(ctx context.Context, w workload, seconds float64, tr *tracer, chk *checker) (loopStats, error) {
	var ls loopStats
	runtime.GC()
	heap := startHeapSampler()
	alloc0 := readUint64("/gc/heap/allocs:bytes")
	start := time.Now()
	var err error
	for k := 0; ; k++ {
		if tr != nil {
			tr.beginPass()
		}
		var pr passResult
		pr, err = w.pass(ctx, k, workers, tr)
		if tr != nil {
			tr.endPass(k)
		}
		if k == 0 {
			ls.pass0 = pr
		}
		ls.passes++
		ls.ops += pr.ops
		ls.bad += pr.bad
		ls.jobs += pr.jobs
		ls.events += pr.events
		ls.work += pr.work
		ls.fold += pr.fold
		ls.cellMS = append(ls.cellMS, pr.cellMS...)
		if err != nil {
			break
		}
		chk.check(k, pr.digest)
		if time.Since(start).Seconds() >= seconds {
			break
		}
	}
	ls.wall = time.Since(start)
	ls.alloc = readUint64("/gc/heap/allocs:bytes") - alloc0
	ls.peak, ls.live = heap.stop()
	return ls, err
}

// measure sets the workload up, runs its measured phase and returns the
// report: end-to-end metrics untraced, per-layer metrics traced. The
// human-readable breakdown goes to log.
func measure(def workloadDef, seed uint64, seconds float64, traced, small bool, traceOut string, log io.Writer) report {
	ctx := context.Background()
	rep := report{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}
	var (
		w      workload
		info   map[string]float64
		setups []float64
	)
	for range setupReps {
		w = def.make(small)
		t0 := time.Now()
		var err error
		if info, err = w.setup(ctx, seed); err != nil {
			fmt.Fprintf(log, "bench: %s: setup: %v\n", def.name, err)
			return rep
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	chk := &checker{repeats: def.repeats, log: log}
	if !small {
		chk.golden = goldens[def.name][strconv.FormatUint(seed, 10)]
	}
	extra := map[string]float64{"setup_s": median(setups)}
	for k, v := range info {
		extra[k] = v
	}

	var (
		ls        loopStats
		err       error
		tr        *tracer
		ref, ser  passResult
		metricSet = endToEnd
	)
	if traced {
		// The untraced pass 0 is the reference for the digests and for the
		// tracing overhead; the single-worker pass 0 after the traced phase
		// must reproduce it.
		metricSet = perLayer
		if ref, err = w.pass(ctx, 0, workers, nil); err == nil {
			chk.check(0, ref.digest)
			tr = newTracer()
			if ls, err = loop(ctx, w, seconds, tr, chk); err == nil {
				if ser, err = w.pass(ctx, 0, 1, nil); err == nil {
					chk.sameOutcome(ref, ser)
				}
			}
		}
		ls.ops += ref.ops + ser.ops
		ls.bad += ref.bad + ser.bad
	} else {
		ls, err = loop(ctx, w, seconds, nil, chk)
	}
	if err != nil {
		fmt.Fprintf(log, "bench: %s: %v\n", def.name, err)
	}
	rep.Attempted = max(ls.ops, 1)
	rep.Failed = ls.bad + chk.mismatches
	if err != nil && rep.Failed == 0 {
		rep.Failed = 1
	}
	for k, v := range ls.pass0.info {
		extra[k] = v
	}
	if len(ls.cellMS) > 0 {
		tail := tailPercentile(len(ls.cellMS))
		extra["cell.n"] = float64(len(ls.cellMS))
		extra["cell.p50_ms"] = percentile(ls.cellMS, 50)
		if tail > 50 {
			extra[fmt.Sprintf("cell.p%g_ms", tail)] = percentile(ls.cellMS, tail)
		}
	}
	extra["passes"] = float64(ls.passes)
	extra["peak_live_heap_mib"] = ls.peak / (1 << 20)
	extra["wall_s"] = ls.wall.Seconds()

	put := func(name string, v float64) {
		rep.Metrics[name] = metricValue{Value: v, Unit: unitOf(metricSet, name)}
	}
	switch {
	case traced && tr == nil: // the reference pass failed; nothing was traced
	case traced:
		perLayerMetrics(put, extra, tr, ls, ref, ser, def.opWorkers)
		if err := tr.write(traceOut, def.name, tr.now()); err != nil {
			fmt.Fprintf(log, "bench: writing spans: %v\n", err)
		}
	default:
		secs := ls.work.Seconds()
		put("setup_s", median(setups))
		put("events_per_s", float64(ls.events)/secs)
		put("alloc_kib_per_job", float64(ls.alloc)/1024/float64(max(ls.jobs, 1)))
		put("live_heap_mib", ls.live/(1<<20))
	}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(log, "bench: metric %s is %v\n", name, m.Value)
			rep.Failed++
			rep.Metrics[name] = metricValue{Unit: m.Unit}
		}
	}
	rep.Correct = rep.Failed == 0
	printBreakdown(log, def.name, seed, rep, extra)
	return rep
}

// perLayerMetrics derives the per-layer metrics of a traced run, and adds
// the per-family breakdown to extra.
func perLayerMetrics(put func(string, float64), extra map[string]float64, tr *tracer, ls loopStats, ref, ser passResult, opWorkers int) {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	all := tr.total(nil)
	put("sched.calls", float64(all.calls))
	put("sched.busy_s", all.busy.Seconds())
	put("sched.p50_us", all.hist.quantileUS(50))
	put("sched.p99_us", all.hist.quantileUS(99))
	put("sched.jobs_mean", float64(all.jobs)/float64(max(all.calls, 1)))
	put("sched.us_per_job", us(all.busy)/float64(max(all.jobs, 1)))
	for _, hook := range []string{"arrival", "completion"} {
		st := tr.total(func(k layerKey) bool { return k.sub == hook })
		put("sched."+hook+".calls", float64(st.calls))
		put("sched."+hook+".busy_s", st.busy.Seconds())
		put("sched."+hook+".p99_us", st.hist.quantileUS(99))
	}
	put("sched.calls_pass0", float64(tr.pass0))
	put("sim.events", float64(ls.events))
	put("sim.events_pass0", float64(ls.pass0.events))
	put("sim.self_s", tr.self.Seconds())
	put("sim.self_us_per_event", us(tr.self)/float64(max(ls.events, 1)))
	put("ops.count", float64(tr.ops))
	put("ops.busy_s", tr.busy.Seconds())
	capacity := time.Duration(opWorkers) * ls.wall
	put("ops.outside_s", (capacity - tr.busy).Seconds())
	put("ops.worker_util", tr.busy.Seconds()/capacity.Seconds())
	put("parallel.serial_s", ser.work.Seconds())
	put("parallel.speedup", ser.work.Seconds()/ref.work.Seconds())
	put("trace.overhead", ls.pass0.work.Seconds()/ref.work.Seconds()-1)

	// Per-family breakdown.
	families := map[string]bool{}
	for _, k := range tr.layers() {
		st := tr.hooks[k]
		p := "sched." + k.family + "." + k.sub + "."
		extra[p+"calls"] = float64(st.calls)
		extra[p+"busy_s"] = st.busy.Seconds()
		extra[p+"p50_us"] = st.hist.quantileUS(50)
		extra[p+"p99_us"] = st.hist.quantileUS(99)
		extra[p+"jobs_mean"] = float64(st.jobs) / float64(max(st.calls, 1))
		families[k.family] = true
	}
	for f := range families {
		st := tr.total(func(k layerKey) bool { return k.family == f })
		extra["sched."+f+".us_per_job"] = us(st.busy) / float64(max(st.jobs, 1))
		if def, cost := tr.opTime[layerKey{f, ""}], tr.opTime[layerKey{f, "cost"}]; def > 0 && cost > 0 {
			extra["placement."+f+".cost_vs_default"] = cost.Seconds() / def.Seconds()
		}
	}
	// Accounting: hook busy time plus simulator self time against the
	// operation spans. Equal for sequential hooks; hooks of parallel
	// federation members overlap, so there the sum exceeds the spans.
	extra["accounting.gap"] = (all.busy+tr.self).Seconds()/tr.busy.Seconds() - 1
	if ls.fold > 0 {
		extra["metrics.online_fold_s"] = ls.fold.Seconds()
	}
	// Simulation legs timed on one worker against the untraced reference.
	if len(ref.legs) > 0 && len(ref.legs) == len(ser.legs) {
		for i, l := range ref.legs {
			extra["leg."+l.name+".serial_s"] = ser.legs[i].d.Seconds()
			extra["leg."+l.name+".speedup"] = ser.legs[i].d.Seconds() / l.d.Seconds()
		}
		extra["hook_share"] = all.busy.Seconds() / (float64(workers) * tr.busy.Seconds())
	}
}

// printBreakdown writes every metric and figure of a run, sorted by name.
func printBreakdown(log io.Writer, name string, seed uint64, rep report, extra map[string]float64) {
	fmt.Fprintf(log, "== %s seed=%d correct=%v attempted=%d failed=%d\n", name, seed, rep.Correct, rep.Attempted, rep.Failed)
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(log, "  %-34s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	keys = keys[:0]
	for k := range extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(log, "  . %-32s %14.6g\n", k, extra[k])
	}
}

// heapSampler samples the live heap the runtime reports (it updates the
// figure at the end of each collection) every 10 ms.
type heapSampler struct {
	stopc chan struct{}
	done  chan []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan []float64)}
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var samples []float64
		for {
			samples = append(samples, float64(readUint64("/gc/heap/live:bytes")))
			select {
			case <-h.stopc:
				h.done <- samples
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling once the sampler has exited and returns the
// largest and the median sample. The median is the steadier figure: the
// peak depends on which collection happened to catch the most state.
func (h *heapSampler) stop() (peak, med float64) {
	close(h.stopc)
	samples := <-h.done
	return slices.Max(samples), median(samples)
}

func readUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
