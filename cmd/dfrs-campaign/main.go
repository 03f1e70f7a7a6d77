// Command dfrs-campaign runs a declarative scenario grid — algorithms x
// workload families x loads x seeds x penalties x cluster sizes — through
// the public campaign API (dfrs.Campaign), streaming one JSONL record per
// finished simulation. Output is checkpointed: interrupting a campaign
// (including with SIGINT/SIGTERM, which cancels the run context, finishes
// within one cell per worker and flushes the file) and re-running with
// -resume completes only the missing cells.
//
// Presets reproduce the paper's campaigns:
//
//	dfrs-campaign -preset fig1a  -out fig1a.jsonl      # Figure 1(a): no penalty
//	dfrs-campaign -preset fig1b  -out fig1b.jsonl      # Figure 1(b): 5-minute penalty
//	dfrs-campaign -preset table1 -out table1.jsonl     # Table I's three workload legs
//	dfrs-campaign -preset table2 -out table2.jsonl     # Table II's high-load cost study
//
// Or declare a custom grid directly:
//
//	dfrs-campaign -algs easy,dynmcb8-asap-per -seeds 1,2,3 -traces 10 \
//	    -loads 0.5,0.7,0.9 -penalties 0,300 -workers 8 -out sweep.jsonl
//
// Heterogeneous platforms are a grid axis: -node-mix sweeps named node-mix
// profiles (uniform, bimodal, powerlaw), e.g.
//
//	dfrs-campaign -node-mix uniform,bimodal -loads 0.7 -out het.jsonl
//
// The paper's full scale is -traces 100 -jobs 1000 -weeks 182 (CPU-hours);
// defaults are a small representative slice. Records sort by their "key"
// field into a canonical order that is byte-identical for any -workers
// value.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	dfrs "repro"
	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() {
	var (
		preset    = flag.String("preset", "", "paper campaign: fig1a, fig1b, table1, table2 (empty = custom grid from flags)")
		algs      = flag.String("algs", strings.Join(experiments.Algorithms, ","), "comma-separated algorithm names")
		seeds     = flag.String("seeds", "42", "comma-separated campaign seeds")
		traces    = flag.Int("traces", 3, "synthetic traces per seed (paper: 100)")
		jobs      = flag.Int("jobs", 150, "jobs per synthetic trace (paper: 1000)")
		nodes     = flag.String("nodes", "128", "comma-separated cluster sizes (paper: 128)")
		nodeMix   = flag.String("node-mix", "", "comma-separated node-mix profiles (uniform, bimodal, bimodal-priced, powerlaw, gpu-uniform, gpu-bimodal); empty = homogeneous")
		resources = flag.String("resources", "", "@file node inventory (one capacity vector per line, optional cost= field), registered as a node mix and added to the sweep")
		objective = flag.String("objective", "", "comma-separated placement objectives to sweep (cost, bestfit, worstfit, ...); empty = each family's default rule")
		gpuFrac   = flag.Float64("gpu-frac", 0, "fraction of each cell's jobs given a GPU demand (adds a third resource dimension)")
		gpuCorr   = flag.Float64("gpu-corr", 0, "correlation of GPU demands with memory requirements, in [-1,1] (requires -gpu-frac; 0 = independent draws)")
		clusters  = flag.String("clusters", "", "comma-separated federation topologies to sweep (a count like 2, or mix:nodes terms joined by +, e.g. uniform:128+bimodal-priced:64); empty = single-cluster cells")
		dispatch  = flag.String("dispatch", "", "comma-separated federation dispatch policies crossed with -clusters (see dfrs.Dispatchers); empty = "+dfrs.DefaultDispatcher)
		loads     = flag.String("loads", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9", "comma-separated load levels; 0 means unscaled")
		penalties = flag.String("penalties", "300", "comma-separated rescheduling penalties in seconds")
		weeks     = flag.Int("weeks", 0, "HPC2N-like weekly segments to add as a second family (0 = none; paper: 182)")
		workers   = flag.Int("workers", 0, "parallel simulations (0 = all cores)")
		fedWork   = flag.Int("fed-workers", 0, "goroutines advancing each federated cell's member clusters concurrently (0 or 1 = inline on the cell's worker, the default — the cell pool owns the cores); output JSONL is byte-identical for any value")
		out       = flag.String("out", "-", "output JSONL path (- = stdout)")
		resume    = flag.Bool("resume", false, "skip cells already present in -out and append the rest")
		check     = flag.Bool("check", false, "enable per-event simulator invariant checking")
		timing    = flag.Bool("timing", false, "record wall-clock scheduler timing aggregates (nondeterministic)")
		quiet     = flag.Bool("q", false, "suppress progress output on stderr")
	)
	flag.Parse()

	// -resources @file loads an explicit node inventory, registers it under
	// the "@file" name and adds it to the node-mix sweep.
	if *resources != "" {
		if !strings.HasPrefix(*resources, "@") {
			fatal(fmt.Errorf("bad -resources: want @file (a node-inventory path), got %q", *resources))
		}
		path := strings.TrimPrefix(*resources, "@")
		f, err := os.Open(path)
		if err != nil {
			fatal(fmt.Errorf("bad -resources: %v", err))
		}
		_, err = dfrs.LoadNodeMix(*resources, f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("bad -resources: %s: %v", path, err))
		}
		if *nodeMix == "" {
			*nodeMix = *resources
		} else {
			*nodeMix += "," + *resources
		}
	}

	g, err := buildGrid(*preset, *algs, *seeds, *traces, *jobs, *nodes, *nodeMix, *loads, *penalties, *weeks, *gpuFrac, *gpuCorr, *objective, *clusters, *dispatch)
	if err != nil {
		fatal(err)
	}
	g.Check = *check
	g.Timing = *timing

	if *fedWork < 0 {
		fatal(fmt.Errorf("bad -fed-workers: negative worker count %d", *fedWork))
	}
	if *fedWork != 0 && *clusters == "" {
		fatal(fmt.Errorf("bad -fed-workers: requires -clusters"))
	}
	opt := dfrs.CampaignOptions{Workers: *workers, FedWorkers: *fedWork}
	if !*quiet {
		opt.Progress = func(done, total int, rec dfrs.CampaignRecord) {
			fmt.Fprintf(os.Stderr, "dfrs-campaign: [%d/%d] %s\n", done, total, rec.Key)
		}
	}
	switch {
	case *out == "-" && *resume:
		fatal(fmt.Errorf("-resume requires -out pointing at a file"))
	case *out == "-":
		opt.Output = os.Stdout
	default:
		opt.Checkpoint = *out
		opt.Resume = *resume
	}

	ctx, stop := cli.SignalContext()
	defer stop()
	run, err := dfrs.Campaign(ctx, *g, opt)
	if err != nil {
		fatal(err)
	}
	recs, err := run.Wait()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr,
				"dfrs-campaign: interrupted after %d cells; checkpoint flushed, re-run with -resume to finish\n",
				len(recs))
			os.Exit(1)
		}
		fatal(err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "dfrs-campaign: %d cells finished (%d already checkpointed)\n",
			len(recs), run.Skipped())
	}
}

// buildGrid assembles the campaign grid from the preset or the custom grid
// flags. Presets start from the flag values and override only the
// dimensions that define the paper campaign, so -traces/-jobs/-seeds still
// scale them. Flag values are validated eagerly so a bad sweep fails with a
// clear message before any cell runs.
func buildGrid(preset, algs, seeds string, traces, jobs int, nodes, nodeMix, loads, penalties string, weeks int, gpuFrac, gpuCorr float64, objectives, clusters, dispatchers string) (*dfrs.Grid, error) {
	seedList, err := parseUints(seeds)
	if err != nil {
		return nil, fmt.Errorf("bad -seeds: %w", err)
	}
	if traces <= 0 {
		return nil, fmt.Errorf("bad -traces: %d traces per seed, want at least 1", traces)
	}
	if jobs <= 0 {
		return nil, fmt.Errorf("bad -jobs: %d jobs per trace, want at least 1", jobs)
	}
	if weeks < 0 {
		return nil, fmt.Errorf("bad -weeks: negative segment count %d", weeks)
	}
	nodeList, err := parseInts(nodes)
	if err != nil {
		return nil, fmt.Errorf("bad -nodes: %w", err)
	}
	for _, n := range nodeList {
		if n <= 0 {
			return nil, fmt.Errorf("bad -nodes: cluster size %d, want at least 1", n)
		}
	}
	loadList, err := parseFloats(loads)
	if err != nil {
		return nil, fmt.Errorf("bad -loads: %w", err)
	}
	for _, l := range loadList {
		if l < 0 || l > 1 {
			return nil, fmt.Errorf("bad -loads: load %g outside [0,1] (0 means unscaled)", l)
		}
	}
	penList, err := parseFloats(penalties)
	if err != nil {
		return nil, fmt.Errorf("bad -penalties: %w", err)
	}
	for _, p := range penList {
		if p < 0 {
			return nil, fmt.Errorf("bad -penalties: negative penalty %g", p)
		}
	}
	if !(gpuFrac >= 0 && gpuFrac <= 1) { // negated so NaN is rejected too
		return nil, fmt.Errorf("bad -gpu-frac: fraction %g outside [0,1]", gpuFrac)
	}
	if !(gpuCorr >= -1 && gpuCorr <= 1) {
		return nil, fmt.Errorf("bad -gpu-corr: correlation %g outside [-1,1]", gpuCorr)
	}
	if gpuCorr != 0 && gpuFrac == 0 {
		return nil, fmt.Errorf("bad -gpu-corr: requires -gpu-frac > 0")
	}
	topoList := splitList(clusters)
	dispList := splitList(dispatchers)
	if len(dispList) > 0 && len(topoList) == 0 {
		return nil, fmt.Errorf("bad -dispatch: requires -clusters")
	}
	mixList := splitList(nodeMix)
	for _, mix := range mixList {
		if !dfrs.ValidNodeMix(mix) {
			return nil, fmt.Errorf("bad -node-mix: unknown profile %q (known: %v)",
				mix, dfrs.NodeMixes())
		}
	}
	objList := splitList(objectives)
	for _, obj := range objList {
		if !dfrs.KnownObjective(obj) {
			return nil, fmt.Errorf("bad -objective: unknown objective %q (known: %v)",
				obj, dfrs.Objectives())
		}
	}
	for _, alg := range splitList(algs) {
		if !dfrs.KnownAlgorithm(alg) {
			return nil, fmt.Errorf("bad -algs: unknown algorithm %q (known: %v)", alg, dfrs.Algorithms())
		}
	}
	g := &dfrs.Grid{
		Name:         "custom",
		Seeds:        seedList,
		Algorithms:   splitList(algs),
		Families:     []dfrs.CampaignFamily{{Kind: dfrs.FamilyLublin, Count: traces}},
		Loads:        loadList,
		Penalties:    penList,
		Nodes:        nodeList,
		NodeMixes:    mixList,
		GPUFrac:      gpuFrac,
		GPUCorr:      gpuCorr,
		Objectives:   objList,
		Topologies:   topoList,
		Dispatchers:  dispList,
		JobsPerTrace: jobs,
	}
	if weeks > 0 {
		g.Families = append(g.Families,
			dfrs.CampaignFamily{Kind: dfrs.FamilyHPC2N, Count: weeks, Loads: []float64{dfrs.UnscaledLoad}})
	}
	paperLoads := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	switch preset {
	case "":
	case "fig1a":
		g.Name, g.Loads, g.Penalties = "fig1a", paperLoads, []float64{0}
	case "fig1b":
		g.Name, g.Loads, g.Penalties = "fig1b", paperLoads, []float64{experiments.PaperPenalty}
	case "table1":
		g.Name, g.Loads, g.Penalties = "table1", paperLoads, []float64{experiments.PaperPenalty}
		w := weeks
		if w <= 0 {
			w = 4
		}
		g.Families = []dfrs.CampaignFamily{
			{Kind: dfrs.FamilyLublin, Count: traces},
			{Kind: dfrs.FamilyLublin, Count: traces, Loads: []float64{dfrs.UnscaledLoad}},
			{Kind: dfrs.FamilyHPC2N, Count: w, Loads: []float64{dfrs.UnscaledLoad}},
		}
	case "table2":
		g.Name, g.Loads, g.Penalties = "table2", []float64{0.7, 0.8, 0.9}, []float64{experiments.PaperPenalty}
		g.Algorithms = experiments.PreemptingAlgorithms
	default:
		return nil, fmt.Errorf("unknown preset %q (want fig1a, fig1b, table1 or table2)", preset)
	}
	return g, g.Validate()
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("invalid value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseUints(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range splitList(s) {
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfrs-campaign:", err)
	os.Exit(1)
}
