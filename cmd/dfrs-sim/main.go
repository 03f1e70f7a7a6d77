// Command dfrs-sim runs one scheduling algorithm over one trace and prints
// the paper's metrics for the run.
//
//	dfrs-gen -model lublin -jobs 300 -load 0.7 > t.txt
//	dfrs-sim -trace t.txt -alg dynmcb8-asap-per -penalty 300
//
// Without -trace, a synthetic workload is generated on the fly from -seed,
// -jobs, -nodes and -load. The command is built on the v2 facade: the run
// is context-driven, so SIGINT/SIGTERM cancels it cleanly at event
// granularity, and -events streams every scheduling transition live to
// stderr through the observer hooks.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"

	dfrs "repro"
	"repro/internal/cli"
	"repro/internal/report"
	"repro/internal/sim"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file (dfrs trace format); empty = synthesize")
		alg       = flag.String("alg", "dynmcb8-asap-per", "algorithm (see -list)")
		list      = flag.Bool("list", false, "list algorithms and exit")
		penalty   = flag.Float64("penalty", 300, "rescheduling penalty in seconds")
		seed      = flag.Uint64("seed", 1, "synthetic workload seed")
		jobs      = flag.Int("jobs", 300, "synthetic workload size")
		nodes     = flag.Int("nodes", 128, "synthetic cluster size")
		nodeMix   = flag.String("node-mix", "", "node-mix profile (see dfrs.NodeMixes, e.g. bimodal, bimodal-priced, gpu-bimodal); empty = homogeneous")
		resources = flag.String("resources", "", "comma-separated resource dimensions, e.g. cpu,mem,gpu; or @file to load a node inventory (one capacity vector per line, optional cost= field, tiled over -nodes); empty = cpu,mem (or the node-mix profile's own)")
		objective = flag.String("objective", "", "placement objective (see dfrs.Objectives, e.g. cost, bestfit); empty = each scheduler family's default rule")
		gpuFrac   = flag.Float64("gpu-frac", 0, "fraction of synthetic jobs given a GPU demand (adds a third resource dimension)")
		gpuCorr   = flag.Float64("gpu-corr", 0, "correlation of synthetic GPU demands with memory requirements, in [-1,1] (requires -gpu-frac; 0 = independent draws)")
		clusters  = flag.String("clusters", "", "federated run over this cluster topology: a count like 2, or mix:nodes terms joined by +, e.g. uniform:128+bimodal-priced:64 (defaults per member: -nodes and -node-mix)")
		dispatch  = flag.String("dispatch", "", "federation dispatch policy routing arrivals across -clusters (see -list-dispatchers); empty = "+dfrs.DefaultDispatcher)
		listDisp  = flag.Bool("list-dispatchers", false, "list federation dispatch policies and exit")
		fedWork   = flag.Int("fed-workers", 0, "goroutines advancing -clusters members concurrently between dispatch points; 0 = all cores, 1 = inline, no pool (results identical either way)")
		load      = flag.Float64("load", 0.7, "synthetic offered load (0 = natural); with -stream, explicitly setting it rescales the streamed trace to this load (two-pass measurement for a -trace file, '# offered_load:' metadata for stdin)")
		check     = flag.Bool("check", false, "enable per-event invariant checking")
		events    = flag.Bool("events", false, "stream every scheduling transition live to stderr")
		perJob    = flag.Bool("jobs-detail", false, "print per-job stretch table")
		gantt     = flag.Bool("gantt", false, "print an ASCII Gantt chart of the schedule")
		ganttJobs = flag.Int("gantt-jobs", 40, "max jobs shown in the Gantt chart")
		tlCSV     = flag.String("timeline-csv", "", "write every per-job scheduling transition as CSV to this file")
		stream    = flag.Bool("stream", false, "stream the trace through the simulator without materializing the job list (-trace file, or stdin when -trace is empty)")
		summary   = flag.Bool("summary-only", false, "with -stream: aggregate per-job metrics online and drop per-job results, bounding live memory by jobs in system")
		maxHeapMB = flag.Int("max-heap-mb", 0, "fail if the live Go heap exceeds this many MiB after the run (0 = no check)")
		maxYears  = flag.Float64("max-sim-years", 50, "livelock guard: fail a run whose simulated clock passes this many years (long natural-load traces need more)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file (flushed on any exit, including interrupts)")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile to this file at exit (after a final GC)")
	)
	flag.Parse()

	// -load defaults to 0.7 for the synthetic generator; a streamed trace
	// is rescaled only when the flag was given explicitly, so plain
	// `dfrs-sim -stream -trace f` replays the file's natural load exactly
	// like the materialized `dfrs-sim -trace f`.
	loadSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "load" {
			loadSet = true
		}
	})

	if *list {
		for _, name := range dfrs.Algorithms() {
			fmt.Println(name)
		}
		return
	}
	if *listDisp {
		for _, name := range dfrs.Dispatchers() {
			fmt.Println(name)
		}
		return
	}

	// Validate flags eagerly so misuse fails with a clear message instead
	// of a generator or simulator error deep in the run.
	if *summary && !*stream {
		fatal(errors.New("bad -summary-only: requires -stream"))
	}
	if *summary && (*perJob || *gantt || *tlCSV != "") {
		fatal(errors.New("bad -summary-only: incompatible with -jobs-detail, -gantt and -timeline-csv (they need retained per-job results)"))
	}
	if *maxHeapMB < 0 {
		fatal(fmt.Errorf("bad -max-heap-mb: negative limit %d", *maxHeapMB))
	}
	if *maxYears <= 0 {
		fatal(fmt.Errorf("bad -max-sim-years: non-positive guard %g", *maxYears))
	}
	if *tracePath == "" && !*stream {
		if *nodes <= 0 {
			fatal(fmt.Errorf("bad -nodes: cluster size %d, want at least 1", *nodes))
		}
		if *jobs <= 0 {
			fatal(fmt.Errorf("bad -jobs: workload size %d, want at least 1", *jobs))
		}
	}
	if *load < 0 || *load > 1 {
		fatal(fmt.Errorf("bad -load: offered load %g outside [0,1] (0 means natural)", *load))
	}
	if *penalty < 0 {
		fatal(fmt.Errorf("bad -penalty: negative rescheduling penalty %g", *penalty))
	}
	// -resources @file loads an explicit node inventory and registers it as
	// the run's node mix under the "@file" name.
	if strings.HasPrefix(*resources, "@") {
		if *nodeMix != "" {
			fatal(fmt.Errorf("bad -resources: %q conflicts with -node-mix %q (an inventory defines the node mix)", *resources, *nodeMix))
		}
		path := strings.TrimPrefix(*resources, "@")
		f, err := os.Open(path)
		if err != nil {
			fatal(fmt.Errorf("bad -resources: %v", err))
		}
		if _, err := dfrs.LoadNodeMix(*resources, f); err != nil {
			f.Close()
			fatal(fmt.Errorf("bad -resources: %s: %v", path, err))
		}
		f.Close()
		*nodeMix = *resources
		*resources = ""
	}
	if !dfrs.ValidNodeMix(*nodeMix) {
		fatal(fmt.Errorf("bad -node-mix: unknown profile %q (known: %v)", *nodeMix, dfrs.NodeMixes()))
	}
	if !dfrs.KnownObjective(*objective) {
		fatal(fmt.Errorf("bad -objective: unknown objective %q (known: %v)", *objective, dfrs.Objectives()))
	}
	if !(*gpuFrac >= 0 && *gpuFrac <= 1) { // negated so NaN is rejected too
		fatal(fmt.Errorf("bad -gpu-frac: fraction %g outside [0,1]", *gpuFrac))
	}
	if !(*gpuCorr >= -1 && *gpuCorr <= 1) {
		fatal(fmt.Errorf("bad -gpu-corr: correlation %g outside [-1,1]", *gpuCorr))
	}
	if *gpuCorr != 0 && *gpuFrac == 0 {
		fatal(errors.New("bad -gpu-corr: requires -gpu-frac > 0"))
	}
	if !dfrs.KnownAlgorithm(*alg) {
		fatal(fmt.Errorf("bad -alg: unknown algorithm %q (known: %v)", *alg, dfrs.Algorithms()))
	}
	if *dispatch != "" && *clusters == "" {
		fatal(errors.New("bad -dispatch: requires -clusters"))
	}
	if *fedWork < 0 {
		fatal(fmt.Errorf("bad -fed-workers: negative worker count %d", *fedWork))
	}
	if *fedWork != 0 && *clusters == "" {
		fatal(errors.New("bad -fed-workers: requires -clusters"))
	}
	if *clusters != "" {
		known := false
		for _, name := range dfrs.Dispatchers() {
			if name == *dispatch || *dispatch == "" {
				known = true
				break
			}
		}
		if !known {
			fatal(fmt.Errorf("bad -dispatch: unknown policy %q (known: %v)", *dispatch, dfrs.Dispatchers()))
		}
		if *gantt || *tlCSV != "" {
			fatal(errors.New("bad -clusters: federated runs do not record timelines (-gantt, -timeline-csv)"))
		}
		if *resources != "" {
			fatal(errors.New("bad -clusters: per-cluster dimensions come from the member node mixes, not -resources"))
		}
	}

	if err := startProfiles(*cpuProf, *memProf); err != nil {
		fatal(err)
	}
	defer stopProfiles()

	ctx, stop := cli.SignalContext()
	defer stop()

	var tr dfrs.Trace
	if !*stream {
		var err error
		tr, err = loadTrace(*tracePath, *seed, *nodes, *jobs, *load, *gpuFrac, *gpuCorr)
		if err != nil {
			fatal(err)
		}
	}
	// -clusters switches the run into the federated engine: the topology is
	// parsed over the single-run defaults (-nodes / the trace's node count,
	// -node-mix), and arrivals are routed across the members by -dispatch.
	var fspec dfrs.FederationSpec
	if *clusters != "" {
		defNodes := *nodes
		if !*stream && *tracePath != "" {
			defNodes = tr.Nodes()
		}
		cspecs, cerr := dfrs.ParseClusters(*clusters, defNodes, *nodeMix)
		if cerr != nil {
			fatal(fmt.Errorf("bad -clusters: %w", cerr))
		}
		fspec = dfrs.FederationSpec{Clusters: cspecs, Dispatcher: *dispatch, Algorithm: *alg, Workers: *fedWork}
	}
	opts := []dfrs.RunOption{
		dfrs.WithPenalty(*penalty), dfrs.WithNodeMix(*nodeMix),
		dfrs.WithMaxSimTime(*maxYears * 365 * 24 * 3600),
	}
	if *resources != "" {
		opts = append(opts, dfrs.WithResources(strings.Split(*resources, ",")...))
	}
	if *objective != "" {
		opts = append(opts, dfrs.WithObjective(*objective))
	}
	if *check {
		opts = append(opts, dfrs.WithInvariantChecking())
	}
	if *gantt || *tlCSV != "" {
		opts = append(opts, dfrs.WithTimeline())
	}
	if *events {
		opts = append(opts, dfrs.WithObserver(sim.ObserverFunc(printEvent)))
	}
	// -summary-only folds each job's stretch into the shared online
	// aggregator (the same layer behind dfrs-serve's live snapshots) as it
	// completes, instead of retaining the per-job result list. The average
	// is summed in completion order, so it can differ from the
	// materialized report in the last float bits; max is order-free, and
	// the printed percentiles carry the sketch's documented tolerance.
	var agg *dfrs.OnlineAggregator
	if *summary {
		agg = dfrs.NewOnlineAggregator()
		opts = append(opts, dfrs.WithOnlineMetrics(agg))
	}
	var res dfrs.Result
	var fres dfrs.FederatedResult
	var err error
	traceLabel := *tracePath
	if *stream {
		// An explicit -load rescales the stream: a seekable -trace file is
		// measured on a first pass and replayed; stdin must declare its
		// load ("# offered_load:", as dfrs-gen -stream -load emits).
		if loadSet && *load > 0 {
			opts = append(opts, dfrs.WithTargetLoad(*load))
			if *tracePath != "" {
				mf, oerr := os.Open(*tracePath)
				if oerr != nil {
					fatal(oerr)
				}
				cur, _, merr := dfrs.MeasureStreamLoad(mf)
				mf.Close()
				if merr != nil {
					fatal(merr)
				}
				if cur <= 0 {
					fatal(fmt.Errorf("bad -load: trace %s has zero measured offered load", *tracePath))
				}
				opts = append(opts, dfrs.WithCurrentLoad(cur))
			}
		}
		in := os.Stdin
		if *tracePath != "" {
			f, oerr := os.Open(*tracePath)
			if oerr != nil {
				fatal(oerr)
			}
			defer f.Close()
			in = f
		} else {
			traceLabel = "stdin"
		}
		if *clusters != "" {
			fres, err = dfrs.RunFederatedStream(ctx, in, fspec, opts...)
		} else {
			res, err = dfrs.RunStream(ctx, in, *alg, opts...)
		}
	} else if *clusters != "" {
		fres, err = dfrs.RunFederated(ctx, tr, fspec, opts...)
	} else {
		res, err = dfrs.Run(ctx, tr, *alg, opts...)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "dfrs-sim: interrupted; partial run discarded")
			exit(1)
		}
		fatal(err)
	}
	if *clusters != "" {
		reportFederated(fres, tr, traceLabel, *stream, *penalty, agg)
		checkHeap(*maxHeapMB)
		return
	}
	costs := res.Costs()
	var snap dfrs.OnlineSnapshot
	if agg != nil {
		snap = agg.Snapshot()
	}
	// Per-job rates divide by the retained job list, which -summary-only
	// keeps empty; recompute them from the online completion count.
	if agg != nil && snap.Jobs > 0 {
		costs.PreemptionsPerJob = float64(res.Preemptions()) / float64(snap.Jobs)
		costs.MigrationsPerJob = float64(res.Migrations()) / float64(snap.Jobs)
		costs.NodeCostPerJob = res.Cost() / float64(snap.Jobs)
	}
	if *stream {
		done := int64(len(res.Jobs()))
		if agg != nil {
			done = snap.Jobs
		}
		fmt.Printf("trace        %s (streamed, %d jobs completed)\n", traceLabel, done)
	} else {
		fmt.Printf("trace        %s (%d jobs, %d nodes, offered load %.2f)\n",
			tr.Name(), len(tr.Jobs()), tr.Nodes(), tr.OfferedLoad())
	}
	if *nodeMix != "" && *nodeMix != "uniform" {
		fmt.Printf("cluster      node-mix %s\n", *nodeMix)
	}
	fmt.Printf("algorithm    %s (penalty %.0fs)\n", res.Algorithm(), *penalty)
	if *objective != "" {
		fmt.Printf("objective    %s\n", *objective)
	}
	fmt.Printf("makespan     %.1f h\n", res.Makespan()/3600)
	maxStretch, avgStretch := res.MaxStretch(), res.AvgStretch()
	if agg != nil && snap.Jobs > 0 {
		maxStretch, avgStretch = snap.MaxStretch, snap.AvgStretch
	}
	fmt.Printf("max stretch  %.2f\n", maxStretch)
	fmt.Printf("avg stretch  %.2f\n", avgStretch)
	if agg != nil && snap.Jobs > 0 {
		fmt.Printf("stretch pcts p50 %.2f, p95 %.2f, p99 %.2f (online sketch)\n",
			snap.StretchP50, snap.StretchP95, snap.StretchP99)
	}
	fmt.Printf("preemptions  %d (%.3f GB/s, %.2f/h, %.2f/job)\n",
		res.Preemptions(), costs.PreemptionGBps, costs.PreemptionsPerHour, costs.PreemptionsPerJob)
	fmt.Printf("migrations   %d (%.3f GB/s, %.2f/h, %.2f/job)\n",
		res.Migrations(), costs.MigrationGBps, costs.MigrationsPerHour, costs.MigrationsPerJob)
	fmt.Printf("utilization  %.1f%% of cluster CPU over the makespan\n", 100*res.Utilization())
	if res.Cost() > 0 {
		fmt.Printf("cost         %.1f price units (%.2f/job)\n", res.Cost(), costs.NodeCostPerJob)
	}
	fmt.Printf("events       %d\n", res.Events())

	if *tlCSV != "" {
		n, err := writeTimelineCSV(*tlCSV, res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("timeline     %d transitions written to %s\n", n, *tlCSV)
	}

	if *gantt {
		chart := &report.Gantt{
			Title: fmt.Sprintf("schedule: %s on %s", res.Algorithm(), tr.Name()),
			Lanes: ganttLanes(res, *ganttJobs),
		}
		fmt.Println()
		if err := chart.Render(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if *perJob {
		fmt.Println("\njob  tasks  exec      turnaround  stretch  pauses  migs")
		for _, jr := range res.Jobs() {
			fmt.Printf("%-4d %-6d %-9.1f %-11.1f %-8.2f %-7d %d\n",
				jr.Job.ID, jr.Job.Tasks, jr.Job.ExecTime, jr.Turnaround,
				dfrs.BoundedStretch(jr.Turnaround, jr.Job.ExecTime),
				jr.Pauses, jr.Migrations)
		}
	}

	checkHeap(*maxHeapMB)
}

// checkHeap turns the streaming memory promise into an exit code: collect,
// read the live heap, and fail loudly if it blew the budget (-max-heap-mb).
func checkHeap(maxHeapMB int) {
	if maxHeapMB <= 0 {
		return
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMiB := float64(ms.HeapAlloc) / (1 << 20)
	fmt.Printf("heap         %.1f MiB live (limit %d MiB)\n", heapMiB, maxHeapMB)
	if heapMiB > float64(maxHeapMB) {
		fmt.Fprintf(os.Stderr, "dfrs-sim: live heap %.1f MiB exceeds -max-heap-mb %d\n", heapMiB, maxHeapMB)
		exit(1)
	}
}

// profileStop flushes the pprof outputs; startProfiles replaces it. It is
// idempotent and wired into every exit path — os.Exit skips deferred
// calls, so exit() and fatal() invoke it explicitly, which is what makes
// profiles survive -max-heap-mb failures and SIGINT shutdowns.
var profileStop = func() {}

func startProfiles(cpu, mem string) error {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return fmt.Errorf("bad -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("bad -cpuprofile: %w", err)
		}
		cpuF = f
	}
	var once sync.Once
	profileStop = func() {
		once.Do(func() {
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			if mem != "" {
				f, err := os.Create(mem)
				if err != nil {
					fmt.Fprintln(os.Stderr, "dfrs-sim: -memprofile:", err)
					return
				}
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "dfrs-sim: -memprofile:", err)
				}
				f.Close()
			}
		})
	}
	return nil
}

func stopProfiles() { profileStop() }

// exit flushes profiles and terminates with the code.
func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

// reportFederated prints the federated run summary: the aggregate headline
// numbers plus one line per member cluster.
func reportFederated(fres dfrs.FederatedResult, tr dfrs.Trace, traceLabel string, streamed bool, penalty float64, agg *dfrs.OnlineAggregator) {
	var snap dfrs.OnlineSnapshot
	if agg != nil {
		snap = agg.Snapshot()
	}
	if streamed {
		done := int64(len(fres.Jobs()))
		if agg != nil {
			done = snap.Jobs
		}
		fmt.Printf("trace        %s (streamed, %d jobs completed)\n", traceLabel, done)
	} else {
		fmt.Printf("trace        %s (%d jobs, offered load %.2f)\n",
			tr.Name(), len(tr.Jobs()), tr.OfferedLoad())
	}
	fmt.Printf("federation   %d clusters, dispatch %s (penalty %.0fs)\n",
		fres.Clusters(), fres.Dispatcher(), penalty)
	for i := 0; i < fres.Clusters(); i++ {
		c := fres.Cluster(i)
		line := fmt.Sprintf("  cluster    %-18s %-16s %4d nodes  %5d jobs  max/avg stretch %.2f/%.2f  util %.1f%%",
			c.Name, c.Algorithm, c.Nodes, c.Dispatched, c.MaxStretch, c.AvgStretch, 100*c.Utilization)
		if c.Cost > 0 {
			line += fmt.Sprintf("  cost %.1f", c.Cost)
		}
		fmt.Println(line)
	}
	fmt.Printf("makespan     %.1f h\n", fres.Makespan()/3600)
	maxStretch, avgStretch := fres.MaxStretch(), fres.AvgStretch()
	if agg != nil && snap.Jobs > 0 {
		maxStretch, avgStretch = snap.MaxStretch, snap.AvgStretch
	}
	fmt.Printf("max stretch  %.2f\n", maxStretch)
	fmt.Printf("avg stretch  %.2f\n", avgStretch)
	if agg != nil && snap.Jobs > 0 {
		fmt.Printf("stretch pcts p50 %.2f, p95 %.2f, p99 %.2f (online sketch)\n",
			snap.StretchP50, snap.StretchP95, snap.StretchP99)
	}
	fmt.Printf("utilization  %.1f%% of federated CPU over the makespan\n", 100*fres.Utilization())
	if fres.Cost() > 0 {
		fmt.Printf("cost         %.1f price units\n", fres.Cost())
	}
	fmt.Printf("events       %d\n", fres.Events())
}

// printEvent prints every scheduling transition live, the simplest
// consumer of the observer hooks.
func printEvent(e sim.Event) {
	switch e.Kind {
	case sim.EvSubmitted:
		fmt.Fprintf(os.Stderr, "t=%-12.1f submit   job %d\n", e.Time, e.JID)
	case sim.EvStarted:
		fmt.Fprintf(os.Stderr, "t=%-12.1f start    job %d on %v\n", e.Time, e.JID, e.Nodes)
	case sim.EvPreempted:
		fmt.Fprintf(os.Stderr, "t=%-12.1f preempt  job %d\n", e.Time, e.JID)
	case sim.EvMigrated:
		fmt.Fprintf(os.Stderr, "t=%-12.1f migrate  job %d to %v\n", e.Time, e.JID, e.Nodes)
	case sim.EvCompleted:
		fmt.Fprintf(os.Stderr, "t=%-12.1f complete job %d (turnaround %.1fs)\n", e.Time, e.JID, e.Turnaround)
	}
}

// writeTimelineCSV dumps the recorded transitions for offline analysis or
// plotting: one row per (time, job, kind, yield, frozen_until).
func writeTimelineCSV(path string, res dfrs.Result) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, "time,jid,kind,yield,frozen_until"); err != nil {
		return 0, err
	}
	tl := res.Timeline()
	for _, e := range tl {
		if _, err := fmt.Fprintf(f, "%.6f,%d,%s,%.6f,%.6f\n",
			e.Time, e.JID, e.Kind, e.Yield, e.FrozenUntil); err != nil {
			return 0, err
		}
	}
	return len(tl), nil
}

// ganttLanes converts the recorded timeline into chart lanes, one per job
// (in jid order, capped at maxJobs).
func ganttLanes(res dfrs.Result, maxJobs int) []report.GanttLane {
	jids := map[int]bool{}
	for _, e := range res.Timeline() {
		jids[e.JID] = true
	}
	ordered := make([]int, 0, len(jids))
	for jid := range jids {
		ordered = append(ordered, jid)
	}
	sort.Ints(ordered)
	if maxJobs > 0 && len(ordered) > maxJobs {
		ordered = ordered[:maxJobs]
	}
	lanes := make([]report.GanttLane, 0, len(ordered))
	for _, jid := range ordered {
		lane := report.GanttLane{Label: fmt.Sprintf("job %d", jid)}
		for _, seg := range res.JobSegments(jid) {
			lane.Segments = append(lane.Segments, report.GanttSegment{
				From: seg.From, To: seg.To, State: seg.State.String(), Yield: seg.Yield,
			})
		}
		lanes = append(lanes, lane)
	}
	return lanes
}

func loadTrace(path string, seed uint64, nodes, jobs int, load, gpuFrac, gpuCorr float64) (dfrs.Trace, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return dfrs.Trace{}, err
		}
		defer f.Close()
		return dfrs.ReadTrace(f)
	}
	tr, err := dfrs.SyntheticTrace(dfrs.SyntheticOptions{Seed: seed, Nodes: nodes, Jobs: jobs, GPUFrac: gpuFrac, GPUCorr: gpuCorr})
	if err != nil {
		return dfrs.Trace{}, err
	}
	if load > 0 {
		return tr.ScaleToLoad(load)
	}
	return tr, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfrs-sim:", err)
	exit(1)
}
