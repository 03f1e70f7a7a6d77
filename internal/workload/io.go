package workload

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/cluster"
)

// The trace file format is a small line-oriented text format so generated
// workloads can be stored and replayed by the command-line tools:
//
//	# dfrs-trace v1
//	# name: lublin-000
//	# nodes: 128
//	# nodemem_gb: 8
//	id submit tasks cpu_need mem_req exec_time
//	0 12.5 4 1.0 0.10 3600
//	...
//
// Comment lines start with '#'; the single header row is required.
//
// The format can be both written and read as a stream: TraceEncoder emits
// one job at a time (dfrs-gen generates million-job traces without
// materializing them) and TraceReader parses one job at a time (the
// simulator admits jobs as virtual time reaches them, so a streamed trace
// keeps memory bounded by jobs-in-system, not trace length).

// maxLineBytes bounds a single trace line. A line of the format is a few
// dozen bytes; the guard exists so a corrupt or non-trace input fails with
// a line-numbered error instead of a silent scanner stop.
const maxLineBytes = 1 << 20

// JobSource is a lazily-consumed stream of jobs in nondecreasing
// submission order — the simulator's one job input. Next returns the
// next job with ok=true; ok=false ends the stream, with err nil on normal
// exhaustion.
type JobSource interface {
	Next() (j Job, ok bool, err error)
}

// SliceSource adapts a materialized job list to JobSource. The slice is
// not copied; it must already be in nondecreasing submission order (as
// Trace.Validate requires).
type SliceSource struct {
	jobs []Job
	pos  int
}

// NewSliceSource returns a JobSource replaying the trace's jobs in order.
func NewSliceSource(t *Trace) *SliceSource { return &SliceSource{jobs: t.Jobs} }

// Next implements JobSource.
func (s *SliceSource) Next() (Job, bool, error) {
	if s.pos >= len(s.jobs) {
		return Job{}, false, nil
	}
	j := s.jobs[s.pos]
	s.pos++
	return j, true, nil
}

// TraceEncoder writes the trace format one job at a time. The caller fixes
// the column layout up front (whether the weight column and how many extra
// columns are emitted) because a streaming writer cannot scan the whole
// job list first; Encode, which can, chooses the minimal layout.
type TraceEncoder struct {
	bw          *bufio.Writer
	meta        Trace
	weighted    bool
	extraDims   int
	offeredLoad float64
	started     bool
}

// NewTraceEncoder returns an encoder that writes the metadata comments and
// the column header for meta (whose Jobs are ignored) followed by the job
// rows. If weighted is true, or extraDims > 0, the weight column is
// emitted; extraDims fixes the number of extra-dimension columns. The
// preamble is deferred until the first Write (or Flush), so optional
// metadata like SetOfferedLoad can still be attached after construction;
// output bytes are unchanged from when the preamble was written eagerly.
func NewTraceEncoder(w io.Writer, meta *Trace, weighted bool, extraDims int) *TraceEncoder {
	if extraDims > 0 {
		weighted = true
	}
	m := Trace{Name: meta.Name, Nodes: meta.Nodes, NodeMemGB: meta.NodeMemGB}
	return &TraceEncoder{bw: bufio.NewWriter(w), meta: m, weighted: weighted, extraDims: extraDims}
}

// SetOfferedLoad declares the stream's offered load in the preamble
// ("# offered_load: v"), letting a single-pass consumer rescale to a
// target load without draining the stream first (TraceReader.DeclaredLoad,
// dfrs-sim -stream -load). It must be called before the first Write;
// non-positive values are rejected. Traces that never declare a load
// encode byte-identically to the pre-metadata format.
func (e *TraceEncoder) SetOfferedLoad(load float64) error {
	if e.started {
		return errors.New("workload: SetOfferedLoad after first Write")
	}
	if !(load > 0) {
		return fmt.Errorf("workload: declared offered load %g must be positive", load)
	}
	e.offeredLoad = load
	return nil
}

// preamble writes the metadata comments and column header once.
func (e *TraceEncoder) preamble() {
	if e.started {
		return
	}
	e.started = true
	fmt.Fprintf(e.bw, "# dfrs-trace v1\n")
	fmt.Fprintf(e.bw, "# name: %s\n", e.meta.Name)
	fmt.Fprintf(e.bw, "# nodes: %d\n", e.meta.Nodes)
	fmt.Fprintf(e.bw, "# nodemem_gb: %g\n", e.meta.NodeMemGB)
	if e.offeredLoad > 0 {
		fmt.Fprintf(e.bw, "# offered_load: %g\n", e.offeredLoad)
	}
	fmt.Fprintf(e.bw, "id submit tasks cpu_need mem_req exec_time")
	if e.weighted {
		fmt.Fprintf(e.bw, " weight")
	}
	for k := 0; k < e.extraDims; k++ {
		fmt.Fprintf(e.bw, " %s", extraDimName(k))
	}
	fmt.Fprintf(e.bw, "\n")
}

// Write emits one job row.
func (e *TraceEncoder) Write(j Job) error {
	e.preamble()
	fmt.Fprintf(e.bw, "%d %.6f %d %.6f %.6f %.6f",
		j.ID, j.Submit, j.Tasks, j.CPUNeed, j.MemReq, j.ExecTime)
	if e.weighted {
		fmt.Fprintf(e.bw, " %.6f", j.EffectiveWeight())
	}
	for k := 0; k < e.extraDims; k++ {
		fmt.Fprintf(e.bw, " %.6f", j.Demand(2+k))
	}
	_, err := fmt.Fprintf(e.bw, "\n")
	return err
}

// Flush flushes the encoder's buffer; call it once after the last Write.
// An encoder flushed without any Write still emits the preamble, so an
// empty trace file remains well-formed.
func (e *TraceEncoder) Flush() error {
	e.preamble()
	return e.bw.Flush()
}

// Encode serializes the trace in the dfrs trace format. When any job
// carries a non-default weight, the optional seventh column is emitted.
// When any job carries demands beyond CPU and memory, the weight column
// and one column per extra dimension follow (so column positions stay
// unambiguous); traces without extras encode byte-identically to the
// original two-resource format.
func (t *Trace) Encode(w io.Writer) error {
	weighted := false
	extraDims := 0
	for _, j := range t.Jobs {
		if j.Weight > 0 && j.Weight != 1 {
			weighted = true
		}
		if len(j.Extra) > extraDims {
			extraDims = len(j.Extra)
		}
	}
	e := NewTraceEncoder(w, t, weighted, extraDims)
	for _, j := range t.Jobs {
		if err := e.Write(j); err != nil {
			return err
		}
	}
	return e.Flush()
}

// extraDimName returns the conventional column name of extra dimension k
// (dimension 2+k of the resource vector; see cluster.CanonicalDimName).
func extraDimName(k int) string {
	return cluster.CanonicalDimName(2 + k)
}

// TraceReader streams jobs from a trace file written by Encode or a
// TraceEncoder. It implements JobSource. A reader created by StreamTrace
// has parsed the metadata comments and column header, so Meta is valid
// before the first job is read, and validates each job (including
// submission ordering) as it is produced, with line-numbered errors.
type TraceReader struct {
	sc          *bufio.Scanner
	meta        Trace
	lineno      int
	headerCols  int
	sawHeader   bool
	lastSubmit  float64
	any         bool
	declLoad    float64
	hasDeclLoad bool
}

// StreamTrace opens a trace for streaming: it parses the leading metadata
// comments and the column header (erroring if the input has none) and
// returns a TraceReader positioned before the first job. Metadata
// comments after the header — which Encode never writes — are still
// applied as they are passed, but are not visible in Meta before then; a
// node count there must repeat the one the stream opened with.
func StreamTrace(r io.Reader) (*TraceReader, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	tr := &TraceReader{sc: sc}
	for !tr.sawHeader {
		line, err := tr.scan()
		if err != nil {
			return nil, err
		}
		if line == nil {
			return nil, errors.New("workload: missing column header")
		}
		if err := tr.headerLine(string(line)); err != nil {
			return nil, err
		}
	}
	if tr.meta.Nodes < 1 {
		return nil, errors.New("workload: trace has no nodes")
	}
	return tr, nil
}

// Meta returns the trace metadata (Name, Nodes, NodeMemGB; Jobs is nil).
func (tr *TraceReader) Meta() *Trace {
	m := tr.meta
	return &m
}

// DeclaredLoad returns the offered load the trace preamble declares
// ("# offered_load:", written by TraceEncoder.SetOfferedLoad), with
// ok=false when the trace carries none. A declared load lets a single-pass
// consumer rescale the stream to a target load (NewScaledSource with
// factor declared/target) without draining it first.
func (tr *TraceReader) DeclaredLoad() (load float64, ok bool) {
	return tr.declLoad, tr.hasDeclLoad
}

// Dims returns the trace's resource dimensionality as declared by the
// column header (2 for the paper's cpu+mem pair, 2+k when the header
// carries k extra-dimension columns after the weight column) — the
// streaming stand-in for Trace.Dims, which scans the jobs.
func (tr *TraceReader) Dims() int {
	if tr.headerCols > 7 {
		return 2 + (tr.headerCols - 7)
	}
	return 2
}

// scan returns the next line, nil at EOF. A scanner failure on an
// over-long line is turned into a line-numbered error instead of the bare
// bufio.ErrTooLong.
func (tr *TraceReader) scan() ([]byte, error) {
	if !tr.sc.Scan() {
		if err := tr.sc.Err(); err != nil {
			if errors.Is(err, bufio.ErrTooLong) {
				return nil, fmt.Errorf("workload: line %d: line too long (over %d bytes)", tr.lineno+1, maxLineBytes)
			}
			return nil, fmt.Errorf("workload: %v", err)
		}
		return nil, nil
	}
	tr.lineno++
	return tr.sc.Bytes(), nil
}

// headerLine consumes one pre-header line: blank, metadata comment, or the
// column header itself.
func (tr *TraceReader) headerLine(raw string) error {
	line := strings.TrimSpace(raw)
	switch {
	case line == "":
		return nil
	case strings.HasPrefix(line, "#"):
		return tr.applyMeta(line)
	case strings.HasPrefix(line, "id "):
		tr.sawHeader = true
		tr.headerCols = len(strings.Fields(line))
		return nil
	default:
		return fmt.Errorf("workload: line %d: missing column header", tr.lineno)
	}
}

// applyMeta parses one '#' comment line, updating the metadata when it is
// one of the known keys.
func (tr *TraceReader) applyMeta(line string) error {
	meta := strings.TrimSpace(strings.TrimPrefix(line, "#"))
	switch {
	case strings.HasPrefix(meta, "name:"):
		tr.meta.Name = strings.TrimSpace(strings.TrimPrefix(meta, "name:"))
	case strings.HasPrefix(meta, "nodes:"):
		v, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(meta, "nodes:")))
		if err != nil {
			return fmt.Errorf("workload: line %d: bad nodes: %v", tr.lineno, err)
		}
		if v > cluster.MaxNodes {
			return fmt.Errorf("workload: line %d: %d nodes, above the limit of %d", tr.lineno, v, cluster.MaxNodes)
		}
		if tr.sawHeader && v != tr.meta.Nodes {
			// The consumer laid out its cluster from Meta when the stream
			// opened, and jobs are validated against that size.
			return fmt.Errorf("workload: line %d: %d nodes after the column header, opened with %d", tr.lineno, v, tr.meta.Nodes)
		}
		tr.meta.Nodes = v
	case strings.HasPrefix(meta, "nodemem_gb:"):
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(meta, "nodemem_gb:")), 64)
		if err != nil {
			return fmt.Errorf("workload: line %d: bad nodemem_gb: %v", tr.lineno, err)
		}
		tr.meta.NodeMemGB = v
	case strings.HasPrefix(meta, "offered_load:"):
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(meta, "offered_load:")), 64)
		if err != nil {
			return fmt.Errorf("workload: line %d: bad offered_load: %v", tr.lineno, err)
		}
		if !(v > 0) {
			return fmt.Errorf("workload: line %d: declared offered load %g must be positive", tr.lineno, v)
		}
		tr.declLoad, tr.hasDeclLoad = v, true
	}
	return nil
}

// Next implements JobSource: it parses lines until the next job row. Each
// job is validated as it is produced, and out-of-order submissions fail
// with a line-numbered error.
func (tr *TraceReader) Next() (Job, bool, error) {
	for {
		raw, err := tr.scan()
		if err != nil {
			return Job{}, false, err
		}
		if raw == nil {
			return Job{}, false, nil
		}
		line := strings.TrimSpace(string(raw))
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := tr.applyMeta(line); err != nil {
				return Job{}, false, err
			}
			continue
		}
		j, err := parseJobLine(line, tr.lineno)
		if err != nil {
			return Job{}, false, err
		}
		if err := j.Validate(tr.meta.Nodes); err != nil {
			return Job{}, false, fmt.Errorf("line %d: %w", tr.lineno, err)
		}
		if tr.any && j.Submit < tr.lastSubmit {
			return Job{}, false, fmt.Errorf("workload: line %d: job %d submitted before its predecessor", tr.lineno, j.ID)
		}
		tr.lastSubmit, tr.any = j.Submit, true
		return j, true, nil
	}
}

// parseJobLine parses one job row of the trace format.
func parseJobLine(line string, lineno int) (Job, error) {
	f := strings.Fields(line)
	if len(f) < 6 {
		return Job{}, fmt.Errorf("workload: line %d: %d fields, want at least 6", lineno, len(f))
	}
	var j Job
	var err error
	if j.ID, err = strconv.Atoi(f[0]); err != nil {
		return Job{}, fmt.Errorf("workload: line %d: id: %v", lineno, err)
	}
	if j.Submit, err = strconv.ParseFloat(f[1], 64); err != nil {
		return Job{}, fmt.Errorf("workload: line %d: submit: %v", lineno, err)
	}
	if j.Tasks, err = strconv.Atoi(f[2]); err != nil {
		return Job{}, fmt.Errorf("workload: line %d: tasks: %v", lineno, err)
	}
	if j.CPUNeed, err = strconv.ParseFloat(f[3], 64); err != nil {
		return Job{}, fmt.Errorf("workload: line %d: cpu_need: %v", lineno, err)
	}
	if j.MemReq, err = strconv.ParseFloat(f[4], 64); err != nil {
		return Job{}, fmt.Errorf("workload: line %d: mem_req: %v", lineno, err)
	}
	if j.ExecTime, err = strconv.ParseFloat(f[5], 64); err != nil {
		return Job{}, fmt.Errorf("workload: line %d: exec_time: %v", lineno, err)
	}
	if len(f) >= 7 {
		if j.Weight, err = strconv.ParseFloat(f[6], 64); err != nil {
			return Job{}, fmt.Errorf("workload: line %d: weight: %v", lineno, err)
		}
	}
	if len(f) > 7 {
		j.Extra = make([]float64, len(f)-7)
		for k, field := range f[7:] {
			if j.Extra[k], err = strconv.ParseFloat(field, 64); err != nil {
				return Job{}, fmt.Errorf("workload: line %d: %s: %v", lineno, extraDimName(k), err)
			}
		}
	}
	return j, nil
}

// ReadTrace parses a trace file written by Encode, materializing every
// job: it is StreamTrace read to the end, so both accept exactly the same
// inputs. Metadata comments after the column header apply as they do when
// streaming; the node count cannot change there.
func ReadTrace(r io.Reader) (*Trace, error) {
	tr, err := StreamTrace(r)
	if err != nil {
		return nil, err
	}
	var jobs []Job
	for {
		j, ok, err := tr.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		jobs = append(jobs, j)
	}
	t := tr.meta
	t.Jobs = jobs
	return &t, nil
}
