package dfrs

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/campaign"
)

// Grid declares a campaign: the full cross product of algorithms, workload
// families, offered loads, seeds, rescheduling penalties, cluster sizes,
// node-mix profiles and placement objectives. Empty dimensions fall back
// to single-element defaults, so a minimal grid needs only Algorithms and
// one Family.
type Grid = campaign.Grid

// CampaignFamily selects one workload family of a Grid and its per-family
// sweep dimensions.
type CampaignFamily = campaign.Family

// CampaignCell is one point of an expanded grid: exactly one simulation,
// identified by its canonical Key.
type CampaignCell = campaign.Cell

// CampaignRecord is the JSONL checkpoint unit: one finished cell plus the
// metrics every report aggregates from.
type CampaignRecord = campaign.Record

// Workload family kinds understood by Grid.
const (
	// FamilyLublin is the Lublin–Feitelson synthetic workload model, the
	// paper's 100-trace campaign family.
	FamilyLublin = campaign.FamilyLublin
	// FamilyHPC2N is the HPC2N-like real-world stand-in, split into
	// weekly segments as in Section IV-C.
	FamilyHPC2N = campaign.FamilyHPC2N
	// UnscaledLoad is the load value meaning "do not rescale the trace".
	UnscaledLoad = campaign.Unscaled
)

// ParseGrid decodes and validates a JSON grid declaration — the wire
// format of dfrs-serve submissions. Unknown fields are rejected so a
// typoed dimension name fails the submission instead of silently running
// the default sweep.
func ParseGrid(data []byte) (*Grid, error) { return campaign.ParseGrid(data) }

// ReadCampaignRecords parses a JSONL results stream; unparseable lines
// (e.g. a torn final line after an interrupt) are skipped, matching the
// checkpoint-resume semantics.
func ReadCampaignRecords(r io.Reader) ([]CampaignRecord, error) {
	return campaign.ReadRecords(r)
}

// SortCampaignRecords orders records by cell key, the canonical
// presentation order (byte-identical for any worker count).
func SortCampaignRecords(recs []CampaignRecord) { campaign.SortRecords(recs) }

// CampaignOptions configures one Campaign execution.
type CampaignOptions struct {
	// Workers bounds concurrent simulations; <=0 means all cores.
	Workers int
	// Checkpoint, when non-empty, streams every finished cell to this
	// JSONL file. With Resume, cells whose keys are already present are
	// skipped and new records are appended (a torn final line left by an
	// interrupted run is repaired); without Resume the file is truncated.
	Checkpoint string
	// Resume enables checkpoint resume; it requires Checkpoint.
	Resume bool
	// Output, when non-nil, streams every finished cell as one JSON line
	// to this writer (ignored when Checkpoint is set).
	Output io.Writer
	// Progress, when non-nil, is called after each finished cell with the
	// number of cells done so far and the total number of cells this run
	// will execute (the grid's cells minus those skipped by checkpoint
	// resume). Calls are serialised.
	Progress func(done, total int, rec CampaignRecord)
	// Observer, when non-nil, is called once per cell before its
	// simulation; a non-nil return value receives that cell's scheduling
	// transitions. Per-cell event sequences are deterministic and
	// identical for any worker count.
	Observer func(CampaignCell) Observer
	// FedWorkers sets FederationSpec.Workers for federated cells (those
	// with a Topologies axis; the others run as one-member federations,
	// always inline): values above 1 advance each cell's member clusters
	// concurrently between dispatch points. The default 0 (like 1)
	// advances them inline on the cell's own worker, since the campaign
	// worker pool already saturates the cores. Records and checkpoint
	// JSONL are byte-identical across every value — an execution knob,
	// never a grid axis.
	FedWorkers int
	// OnJob, when non-nil, receives every retained per-job outcome of each
	// finished cell, after the cell validates and before its record
	// reaches the sinks — the campaign-side feed for online aggregators
	// (OnlineAggregator.ObserveJob), mirroring WithOnlineMetrics on single
	// runs. The tap never perturbs records. Cells finish on concurrent
	// workers, so OnJob must be safe for concurrent use.
	OnJob func(CampaignCell, JobResult)
}

// CampaignRun is a campaign in flight, started by Campaign.
type CampaignRun struct {
	ch      chan CampaignRecord
	done    chan struct{}
	recs    []CampaignRecord
	err     error
	total   int
	skipped int
}

// Campaign validates the grid and launches it on the campaign engine's
// bounded worker pool, returning immediately. Finished cells stream on
// Records as they complete; Wait blocks for the final sorted record set.
// Cancelling the context stops the campaign within one cell per worker;
// cells finished before the cancellation are already flushed to the
// checkpoint, so a re-run with Resume completes exactly the missing cells.
func Campaign(ctx context.Context, g Grid, opt CampaignOptions) (*CampaignRun, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if opt.Resume && opt.Checkpoint == "" {
		return nil, fmt.Errorf("dfrs: CampaignOptions.Resume requires Checkpoint")
	}
	runner := &campaign.Runner{Workers: opt.Workers, FedWorkers: opt.FedWorkers}
	var checkpoint *os.File
	switch {
	case opt.Checkpoint != "" && opt.Resume:
		f, skip, err := campaign.OpenCheckpoint(opt.Checkpoint)
		if err != nil {
			return nil, err
		}
		checkpoint = f
		runner.Skip = skip
	case opt.Checkpoint != "":
		f, err := os.Create(opt.Checkpoint)
		if err != nil {
			return nil, err
		}
		checkpoint = f
	}

	// Count skips against this grid's cells, not the checkpoint file: a
	// checkpoint may hold keys from other grids, which resume ignores.
	cells := g.Cells()
	skipped := 0
	for _, c := range cells {
		if runner.Skip[c.Key()] {
			skipped++
		}
	}
	total := len(cells)
	run := &CampaignRun{
		ch:      make(chan CampaignRecord, total),
		done:    make(chan struct{}),
		total:   total,
		skipped: skipped,
	}

	sinks := campaign.MultiSink{sinkFunc(func(rec campaign.Record) error {
		run.ch <- rec // buffered to the full cell count: never blocks
		return nil
	})}
	if checkpoint != nil {
		sinks = append(sinks, campaign.NewJSONLSink(checkpoint))
	} else if opt.Output != nil {
		sinks = append(sinks, campaign.NewJSONLSink(opt.Output))
	}
	runner.Sink = sinks
	if opt.Progress != nil {
		runner.Progress = opt.Progress
	}
	if opt.Observer != nil {
		runner.Observe = opt.Observer
	}
	if opt.OnJob != nil {
		runner.OnJob = opt.OnJob
	}

	go func() {
		defer close(run.done)
		defer close(run.ch)
		run.recs, run.err = runner.RunContext(ctx, &g)
		if checkpoint != nil {
			if serr := checkpoint.Sync(); serr != nil && run.err == nil {
				run.err = serr
			}
			if cerr := checkpoint.Close(); cerr != nil && run.err == nil {
				run.err = cerr
			}
		}
	}()
	return run, nil
}

// sinkFunc adapts a function to the campaign sink interface.
type sinkFunc func(campaign.Record) error

// Write implements campaign.Sink.
func (f sinkFunc) Write(rec campaign.Record) error { return f(rec) }

// Records streams finished cells as they complete. The channel is buffered
// to the full cell count and closed when the campaign ends, so draining it
// is optional; completion order is nondeterministic with more than one
// worker (Wait returns the canonical key-sorted set).
func (r *CampaignRun) Records() <-chan CampaignRecord { return r.ch }

// Wait blocks until the campaign finishes and returns the records of every
// cell run (sorted by key; skipped checkpoint cells are not re-emitted).
// On cancellation it returns the cells completed before the stop together
// with an error wrapping ctx.Err().
func (r *CampaignRun) Wait() ([]CampaignRecord, error) {
	<-r.done
	return r.recs, r.err
}

// Total returns the number of cells the validated grid expands to,
// including cells skipped by checkpoint resume.
func (r *CampaignRun) Total() int { return r.total }

// Skipped returns the number of cells satisfied by the checkpoint and not
// re-run.
func (r *CampaignRun) Skipped() int { return r.skipped }
