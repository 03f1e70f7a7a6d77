// Package serve is the simulation-as-a-service layer: a job manager that
// accepts campaign-grid and single-trace submissions, executes them on a
// bounded worker pool, aggregates metrics online while they run
// (internal/metrics/online), and persists enough state that a killed and
// restarted daemon resumes incomplete campaigns at cell granularity.
//
// # State directory
//
// Every submission gets an ID and up to four files under Options.Dir:
//
//	<id>.spec.json    the submission (grid or trace parameters); written first
//	<id>.trace        the uploaded trace body (trace submissions only)
//	<id>.jsonl        the campaign record checkpoint (grid submissions only)
//	<id>.summary.json the final status; its presence marks the job complete
//
// On restart, Resume scans the directory for specs without a summary and
// re-enqueues them. Grid jobs reopen their JSONL checkpoint, fold the
// already-finished records back into the online aggregator, and run only
// the missing cells; with the default single cell-worker, records land in
// deterministic cell order, so the checkpoint of an interrupted-and-resumed
// campaign is byte-identical to an uninterrupted run. Trace jobs have no
// intermediate checkpoint and re-run from the stored trace.
//
// # Live metrics
//
// Each job owns an online.Aggregator fed from the campaign per-job tap
// (CampaignOptions.OnJob) and record stream, or — for trace runs — from
// WithOnlineMetrics. Snapshots are safe to read while the job runs; after
// a resume, the stretch quantiles cover the cells run since the restart
// (per-job outcomes of pre-restart cells are not re-derivable from
// records), while cell-level folds (cost, utilization, degradation)
// retain full history.
//
// The HTTP front-end over this manager lives in http.go; cmd/dfrs-serve
// wires it to a listener and signal-driven graceful shutdown.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	dfrs "repro"
	"repro/internal/campaign"
	"repro/internal/metrics/online"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Submission kinds.
const (
	KindGrid  = "grid"
	KindTrace = "trace"
)

// State is a job's lifecycle phase.
type State string

const (
	// StatePending jobs wait for a pool slot.
	StatePending State = "pending"
	// StateRunning jobs hold a pool slot.
	StateRunning State = "running"
	// StateDone jobs finished and wrote their summary.
	StateDone State = "done"
	// StateFailed jobs hit a non-cancellation error; they do not resume.
	StateFailed State = "failed"
	// StateInterrupted jobs were stopped by shutdown; Resume re-enqueues
	// them on the next boot.
	StateInterrupted State = "interrupted"
)

// Options configures a Manager.
type Options struct {
	// Dir is the state directory (required; created if missing).
	Dir string
	// Jobs bounds concurrently executing submissions; <=0 means 2.
	Jobs int
	// CellWorkers bounds concurrent cells within one campaign; <=0 means
	// 1, which keeps records in deterministic cell order — the property
	// behind byte-identical checkpoint resume. Raise it only for
	// throughput-over-reproducibility deployments.
	CellWorkers int
	// SnapshotEvery is the number of scheduling events between snapshot
	// frames on a trace job's event stream; <=0 means 256. Campaign jobs
	// snapshot after every finished cell instead.
	SnapshotEvery int
}

// TraceSpec holds the run parameters of a trace submission.
type TraceSpec struct {
	Algorithm string  `json:"algorithm"`
	Penalty   float64 `json:"penalty"`
	// TargetLoad, when positive, rescales the trace to this offered load
	// (two-pass: the stored trace is measured, then replayed scaled).
	TargetLoad float64 `json:"target_load,omitempty"`
	NodeMix    string  `json:"node_mix,omitempty"`
	Objective  string  `json:"objective,omitempty"`
}

// Spec is the persisted submission: what to run, not how far it got.
type Spec struct {
	ID          string         `json:"id"`
	Kind        string         `json:"kind"`
	SubmittedAt time.Time      `json:"submitted_at"`
	Grid        *campaign.Grid `json:"grid,omitempty"`
	Trace       *TraceSpec     `json:"trace,omitempty"`
}

// Status is a point-in-time view of a job, also the summary document
// persisted at completion.
type Status struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// TotalCells/DoneCells track campaign progress (grid jobs only);
	// DoneCells includes cells satisfied by the checkpoint on resume.
	TotalCells int `json:"total_cells,omitempty"`
	DoneCells  int `json:"done_cells,omitempty"`
	// Snapshot is the live online-metrics view; see online.Snapshot for
	// the sketch tolerance on the quantile fields.
	Snapshot online.Snapshot `json:"snapshot"`
}

// Job is one submission in flight (or finished).
type Job struct {
	spec   Spec
	agg    *online.Aggregator
	hub    *hub
	cancel context.CancelFunc
	done   chan struct{}

	mu         sync.Mutex
	state      State
	errMsg     string
	totalCells int
	doneCells  int
}

// ID returns the job's submission ID.
func (j *Job) ID() string { return j.spec.ID }

// Spec returns the persisted submission.
func (j *Job) Spec() Spec { return j.spec }

// Done is closed when the job leaves the pool (done, failed or
// interrupted).
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns the job's current state and live metric snapshot.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID: j.spec.ID, Kind: j.spec.Kind, State: j.state, Error: j.errMsg,
		TotalCells: j.totalCells, DoneCells: j.doneCells,
		Snapshot: j.agg.Snapshot(),
	}
}

// Subscribe attaches a live event consumer (see Event); slow consumers
// drop frames rather than stall the simulation. The returned cancel is
// idempotent and must be called when done.
func (j *Job) Subscribe(buf int) (<-chan Event, func()) { return j.hub.subscribe(buf) }

func (j *Job) setState(s State, msg string) {
	j.mu.Lock()
	j.state, j.errMsg = s, msg
	j.mu.Unlock()
}

func (j *Job) setCells(done, total int) {
	j.mu.Lock()
	j.doneCells, j.totalCells = done, total
	j.mu.Unlock()
}

// Manager owns the job table, the state directory and the worker pool.
type Manager struct {
	opt    Options
	ctx    context.Context
	cancel context.CancelFunc
	slots  chan struct{}
	wg     sync.WaitGroup

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string
}

// New creates a Manager over the state directory, creating it if needed.
func New(opt Options) (*Manager, error) {
	if opt.Dir == "" {
		return nil, errors.New("serve: Options.Dir is required")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	if opt.Jobs <= 0 {
		opt.Jobs = 2
	}
	if opt.CellWorkers <= 0 {
		opt.CellWorkers = 1
	}
	if opt.SnapshotEvery <= 0 {
		opt.SnapshotEvery = 256
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		opt: opt, ctx: ctx, cancel: cancel,
		slots: make(chan struct{}, opt.Jobs),
		jobs:  map[string]*Job{},
	}, nil
}

// Close stops every running job (their checkpoints stay valid and
// resumable) and waits for the workers to unwind — the SIGTERM drain path.
func (m *Manager) Close() {
	m.cancel()
	m.wg.Wait()
}

// Get returns the job with the given ID, if the manager knows it.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns every known job in submission order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// SubmitGrid validates and enqueues a campaign grid. The spec is persisted
// before the job is visible, so a submission either survives restarts or
// never existed.
func (m *Manager) SubmitGrid(g *campaign.Grid) (*Job, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// Grid validation leaves algorithm names to the runner (the CLI wants
	// its error at run time); a service wants it at submission time.
	for _, alg := range g.Algorithms {
		if !dfrs.KnownAlgorithm(alg) {
			return nil, fmt.Errorf("serve: unknown algorithm %q", alg)
		}
	}
	id, err := newID()
	if err != nil {
		return nil, err
	}
	spec := Spec{ID: id, Kind: KindGrid, SubmittedAt: time.Now().UTC(), Grid: g}
	if err := m.writeJSON(m.path(id, ".spec.json"), spec); err != nil {
		return nil, err
	}
	j := m.add(spec)
	m.start(j)
	return j, nil
}

// SubmitTrace stores the uploaded trace body and enqueues a single
// streaming run over it. The trace header is validated eagerly so a
// malformed upload fails the submission, not the run.
func (m *Manager) SubmitTrace(ts TraceSpec, trace io.Reader) (*Job, error) {
	if !dfrs.KnownAlgorithm(ts.Algorithm) {
		return nil, fmt.Errorf("serve: unknown algorithm %q", ts.Algorithm)
	}
	if ts.Penalty < 0 {
		return nil, fmt.Errorf("serve: negative penalty %g", ts.Penalty)
	}
	if ts.NodeMix != "" && !dfrs.ValidNodeMix(ts.NodeMix) {
		return nil, fmt.Errorf("serve: unknown node mix %q", ts.NodeMix)
	}
	if ts.Objective != "" && !dfrs.KnownObjective(ts.Objective) {
		return nil, fmt.Errorf("serve: unknown objective %q", ts.Objective)
	}
	id, err := newID()
	if err != nil {
		return nil, err
	}
	tracePath := m.path(id, ".trace")
	f, err := os.Create(tracePath)
	if err != nil {
		return nil, err
	}
	if _, err := io.Copy(f, trace); err != nil {
		f.Close()
		os.Remove(tracePath)
		return nil, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tracePath)
		return nil, err
	}
	if err := m.validateTraceFile(tracePath); err != nil {
		os.Remove(tracePath)
		return nil, err
	}
	spec := Spec{ID: id, Kind: KindTrace, SubmittedAt: time.Now().UTC(), Trace: &ts}
	if err := m.writeJSON(m.path(id, ".spec.json"), spec); err != nil {
		os.Remove(tracePath)
		return nil, err
	}
	j := m.add(spec)
	m.start(j)
	return j, nil
}

// validateTraceFile checks the stored upload parses as a trace header.
func (m *Manager) validateTraceFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := workload.StreamTrace(f); err != nil {
		return fmt.Errorf("serve: bad trace upload: %w", err)
	}
	return nil
}

// Resume scans the state directory for submissions without a summary and
// re-enqueues them in submission order, returning their IDs. Call it once,
// before serving traffic.
func (m *Manager) Resume() ([]string, error) {
	entries, err := os.ReadDir(m.opt.Dir)
	if err != nil {
		return nil, err
	}
	var specs []Spec
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".spec.json") {
			continue
		}
		id := strings.TrimSuffix(name, ".spec.json")
		if _, err := os.Stat(m.path(id, ".summary.json")); err == nil {
			continue // completed before the restart
		}
		data, err := os.ReadFile(filepath.Join(m.opt.Dir, name))
		if err != nil {
			return nil, err
		}
		var spec Spec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("serve: corrupt spec %s: %w", name, err)
		}
		if spec.ID != id {
			return nil, fmt.Errorf("serve: spec %s declares ID %q", name, spec.ID)
		}
		specs = append(specs, spec)
	}
	sort.Slice(specs, func(i, k int) bool {
		if !specs[i].SubmittedAt.Equal(specs[k].SubmittedAt) {
			return specs[i].SubmittedAt.Before(specs[k].SubmittedAt)
		}
		return specs[i].ID < specs[k].ID
	})
	ids := make([]string, 0, len(specs))
	for _, spec := range specs {
		j := m.add(spec)
		m.start(j)
		ids = append(ids, spec.ID)
	}
	return ids, nil
}

func (m *Manager) add(spec Spec) *Job {
	j := &Job{
		spec: spec, agg: online.New(), hub: newHub(),
		done: make(chan struct{}), state: StatePending,
	}
	m.mu.Lock()
	m.jobs[spec.ID] = j
	m.order = append(m.order, spec.ID)
	m.mu.Unlock()
	return j
}

// start runs the job on the bounded pool: acquire a slot, execute, write
// the summary, publish the terminal status.
func (m *Manager) start(j *Job) {
	ctx, cancel := context.WithCancel(m.ctx)
	j.cancel = cancel
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer close(j.done)
		defer j.hub.close()
		defer cancel()
		select {
		case m.slots <- struct{}{}:
		case <-ctx.Done():
			j.setState(StateInterrupted, "shut down before starting; resumes on restart")
			return
		}
		defer func() { <-m.slots }()
		j.setState(StateRunning, "")
		j.hub.publish(Event{Type: EventStatus, Data: j.Status()})

		var err error
		switch j.spec.Kind {
		case KindGrid:
			err = m.runGrid(ctx, j)
		case KindTrace:
			err = m.runTrace(ctx, j)
		default:
			err = fmt.Errorf("serve: unknown submission kind %q", j.spec.Kind)
		}
		switch {
		case err == nil:
			if werr := m.writeJSON(m.path(j.spec.ID, ".summary.json"), finalStatus(j)); werr != nil {
				j.setState(StateFailed, werr.Error())
			} else {
				j.setState(StateDone, "")
			}
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			j.setState(StateInterrupted, "interrupted; resumes on restart")
		default:
			j.setState(StateFailed, err.Error())
		}
		j.hub.publish(Event{Type: EventStatus, Data: j.Status()})
	}()
}

// finalStatus is the job's status stamped done, the summary document.
func finalStatus(j *Job) Status {
	st := j.Status()
	st.State = StateDone
	return st
}

// runGrid executes (or resumes) a campaign submission against its JSONL
// checkpoint.
func (m *Manager) runGrid(ctx context.Context, j *Job) error {
	ckptPath := m.path(j.spec.ID, ".jsonl")
	// Fold the already-checkpointed records back into the aggregator so a
	// resumed campaign's record-level metrics keep full history.
	skip := map[string]bool{}
	if f, err := os.Open(ckptPath); err == nil {
		recs, rerr := campaign.ReadRecords(f)
		f.Close()
		if rerr != nil {
			return rerr
		}
		for _, rec := range recs {
			j.agg.ObserveRecord(rec)
			skip[rec.Key] = true
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	total := len(j.spec.Grid.Cells())
	prior := total - j.spec.Grid.Remaining(skip)
	j.setCells(prior, total)

	run, err := dfrs.Campaign(ctx, *j.spec.Grid, dfrs.CampaignOptions{
		Workers:    m.opt.CellWorkers,
		Checkpoint: ckptPath,
		Resume:     true,
		OnJob: func(_ dfrs.CampaignCell, jr dfrs.JobResult) {
			j.agg.ObserveJob(jr)
		},
		Progress: func(done, _ int, rec dfrs.CampaignRecord) {
			j.agg.ObserveRecord(rec)
			j.setCells(prior+done, total)
			j.hub.publish(Event{Type: EventRecord, Data: rec})
			j.hub.publish(Event{Type: EventSnapshot, Data: j.agg.Snapshot()})
		},
	})
	if err != nil {
		return err
	}
	_, err = run.Wait()
	return err
}

// runTrace executes a trace submission as one streaming simulation.
func (m *Manager) runTrace(ctx context.Context, j *Job) error {
	ts := j.spec.Trace
	tracePath := m.path(j.spec.ID, ".trace")
	opts := []dfrs.RunOption{
		dfrs.WithPenalty(ts.Penalty),
		dfrs.WithOnlineMetrics(j.agg),
		dfrs.WithObserver(sim.ObserverFunc((&traceEvents{j: j, every: m.opt.SnapshotEvery}).observe)),
	}
	if ts.NodeMix != "" {
		opts = append(opts, dfrs.WithNodeMix(ts.NodeMix))
	}
	if ts.Objective != "" {
		opts = append(opts, dfrs.WithObjective(ts.Objective))
	}
	if ts.TargetLoad > 0 {
		// The stored upload is seekable, so the two-pass scheme applies:
		// measure the natural load, then replay scaled.
		mf, err := os.Open(tracePath)
		if err != nil {
			return err
		}
		cur, _, err := dfrs.MeasureStreamLoad(mf)
		mf.Close()
		if err != nil {
			return err
		}
		if cur <= 0 {
			return fmt.Errorf("serve: trace has zero measured offered load")
		}
		opts = append(opts, dfrs.WithTargetLoad(ts.TargetLoad), dfrs.WithCurrentLoad(cur))
	}
	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = dfrs.RunStream(ctx, f, ts.Algorithm, opts...)
	return err
}

// traceEvents publishes a trace run's scheduling transitions to the job's
// subscribers, with a snapshot frame every `every` events. It runs on the
// simulator goroutine, so the counter needs no lock; publishing never
// blocks (slow subscribers drop frames).
type traceEvents struct {
	j     *Job
	every int
	n     int
}

// TraceEvent is the wire form of one scheduling transition.
type TraceEvent struct {
	Kind       string  `json:"kind"`
	Time       float64 `json:"time"`
	JID        int     `json:"jid"`
	Nodes      []int   `json:"nodes,omitempty"`
	Turnaround float64 `json:"turnaround,omitempty"`
}

// observe publishes one transition; scheduler invocations are not
// streamed.
func (t *traceEvents) observe(e sim.Event) {
	if e.Kind == sim.EvSchedulerInvoked {
		return
	}
	t.j.hub.publish(Event{Type: EventSim, Data: TraceEvent{
		Kind: e.Kind.String(), Time: e.Time, JID: e.JID, Nodes: e.Nodes, Turnaround: e.Turnaround,
	}})
	t.n++
	if t.n%t.every == 0 {
		t.j.hub.publish(Event{Type: EventSnapshot, Data: t.j.agg.Snapshot()})
	}
}

// path returns the state file for a job ID and extension.
func (m *Manager) path(id, ext string) string {
	return filepath.Join(m.opt.Dir, id+ext)
}

// RecordsPath returns the JSONL checkpoint path of a grid job.
func (m *Manager) RecordsPath(id string) string { return m.path(id, ".jsonl") }

// SummaryPath returns the persisted summary path of a job.
func (m *Manager) SummaryPath(id string) string { return m.path(id, ".summary.json") }

// writeJSON persists v atomically (temp file + rename), so readers and
// restarts never observe a torn document.
func (m *Manager) writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// newID draws a 12-hex-char random job ID.
func newID() (string, error) {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}
