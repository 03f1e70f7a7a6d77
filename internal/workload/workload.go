// Package workload defines the job and trace model shared by every
// scheduler, workload generator and experiment in this repository, together
// with the trace transformations used by the paper's evaluation: offered-load
// computation, inter-arrival scaling to a target load, and splitting a long
// trace into fixed-length segments.
//
// The model follows Section II-B1 of the paper: a job is a set of identical
// tasks submitted at one instant; each task has a CPU need (the fraction of
// one node's CPU required to run at full speed) and a memory requirement
// (fraction of one node's memory, a hard constraint); the execution time is
// the duration of the job when every task receives its full CPU need.
package workload

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Job describes one job of a trace.
type Job struct {
	// ID is the job's unique identifier within its trace.
	ID int
	// Submit is the submission time in seconds from trace start.
	Submit float64
	// Tasks is the number of parallel tasks (>= 1). Batch schedulers
	// allocate this many whole nodes; DFRS schedulers place each task in a
	// VM instance on some node.
	Tasks int
	// CPUNeed is the per-task CPU need as a fraction of one node's CPU
	// resource, in (0, 1].
	CPUNeed float64
	// MemReq is the per-task memory requirement as a fraction of one
	// node's memory, in (0, 1]. Node memory is never oversubscribed.
	MemReq float64
	// ExecTime is the execution time in seconds when the job runs with
	// yield 1.0 (every task receiving its full CPU need).
	ExecTime float64
	// Weight implements the user-priority extension the paper's
	// conclusion calls for: under contention a job's yield is
	// proportional to its weight (capped at 1.0). Zero means the default
	// weight of 1; the paper's own evaluation is unweighted.
	Weight float64
	// Extra holds per-task rigid demands for resource dimensions beyond
	// CPU and memory (Extra[0] is dimension 2, conventionally GPU), as
	// fractions of the reference node in [0, 1]. Rigid demands are hard
	// constraints like memory: never oversubscribed, never scaled by
	// yield. Nil means no demand beyond the paper's (CPU, mem) pair, so
	// legacy traces run unchanged on any cluster.
	Extra []float64
}

// Dims returns the number of resource dimensions the job demands (at least
// 2: CPU and memory).
func (j Job) Dims() int { return 2 + len(j.Extra) }

// Demand returns the per-task demand in resource dimension k: CPU need for
// dimension 0, memory for dimension 1, Extra beyond (0 when the job does
// not reach dimension k).
func (j Job) Demand(k int) float64 {
	switch {
	case k == 0:
		return j.CPUNeed
	case k == 1:
		return j.MemReq
	case k-2 < len(j.Extra):
		return j.Extra[k-2]
	}
	return 0
}

// EffectiveWeight returns the job's weight, defaulting to 1.
func (j Job) EffectiveWeight() float64 {
	if j.Weight <= 0 {
		return 1
	}
	return j.Weight
}

// Work returns the job's total CPU work in node-seconds, the quantity used
// by the offered-load computation: tasks x execution time.
func (j Job) Work() float64 { return float64(j.Tasks) * j.ExecTime }

// Validate checks that the job is well-formed for a cluster of the given
// node count. Every comparison is written so that NaN fails it, and times
// and weights must be finite.
func (j Job) Validate(nodes int) error {
	switch {
	case j.Tasks < 1:
		return fmt.Errorf("workload: job %d has %d tasks", j.ID, j.Tasks)
	case nodes > 0 && j.Tasks > nodes:
		return fmt.Errorf("workload: job %d needs %d tasks on %d nodes", j.ID, j.Tasks, nodes)
	case !(j.Submit >= 0) || math.IsInf(j.Submit, 1):
		return fmt.Errorf("workload: job %d has submit time %g, not finite and non-negative", j.ID, j.Submit)
	case !(j.CPUNeed > 0 && j.CPUNeed <= 1):
		return fmt.Errorf("workload: job %d has CPU need %g outside (0,1]", j.ID, j.CPUNeed)
	case !(j.MemReq > 0 && j.MemReq <= 1):
		return fmt.Errorf("workload: job %d has memory requirement %g outside (0,1]", j.ID, j.MemReq)
	case !(j.ExecTime > 0) || math.IsInf(j.ExecTime, 1):
		return fmt.Errorf("workload: job %d has execution time %g, not finite and positive", j.ID, j.ExecTime)
	case !(j.Weight >= 0) || math.IsInf(j.Weight, 1):
		return fmt.Errorf("workload: job %d has weight %g, not finite and non-negative", j.ID, j.Weight)
	}
	for k, x := range j.Extra {
		if !(x >= 0 && x <= 1) {
			return fmt.Errorf("workload: job %d has demand %g outside [0,1] in dimension %d", j.ID, x, 2+k)
		}
	}
	return nil
}

// Trace is a workload: an ordered list of jobs destined for a cluster of
// Nodes homogeneous nodes with NodeMemGB gigabytes of memory each. NodeMemGB
// only matters for bandwidth accounting (Table II); the scheduling model
// works in fractions.
type Trace struct {
	Name      string
	Nodes     int
	NodeMemGB float64
	Jobs      []Job
}

// Validate checks every job and that submissions are sorted.
func (t *Trace) Validate() error {
	if t.Nodes < 1 {
		return errors.New("workload: trace has no nodes")
	}
	for i, j := range t.Jobs {
		if err := j.Validate(t.Nodes); err != nil {
			return err
		}
		if i > 0 && j.Submit < t.Jobs[i-1].Submit {
			return fmt.Errorf("workload: job %d submitted before its predecessor", j.ID)
		}
	}
	return nil
}

// SortBySubmit orders jobs by submission time (stable, preserving relative
// order of simultaneous submissions).
func (t *Trace) SortBySubmit() {
	sort.SliceStable(t.Jobs, func(a, b int) bool { return t.Jobs[a].Submit < t.Jobs[b].Submit })
}

// span returns the time between the first and last submission, in seconds.
// A trace with fewer than two jobs has span 0.
func (t *Trace) span() float64 {
	if len(t.Jobs) < 2 {
		return 0
	}
	return t.Jobs[len(t.Jobs)-1].Submit - t.Jobs[0].Submit
}

// Dims returns the number of resource dimensions the trace's jobs demand
// (at least 2: CPU and memory).
func (t *Trace) Dims() int {
	d := 2
	for _, j := range t.Jobs {
		if j.Dims() > d {
			d = j.Dims()
		}
	}
	return d
}

// totalWork returns the total CPU work of the trace in node-seconds.
func (t *Trace) totalWork() float64 {
	var w float64
	for _, j := range t.Jobs {
		w += j.Work()
	}
	return w
}

// OfferedLoad returns the trace's offered load: total work divided by the
// cluster capacity available over the submission span. This is the load
// definition the paper uses when scaling traces to levels 0.1 through 0.9.
// It returns 0 for traces whose span is zero.
func (t *Trace) OfferedLoad() float64 {
	span := t.span()
	if span <= 0 || t.Nodes == 0 {
		return 0
	}
	return t.totalWork() / (span * float64(t.Nodes))
}

// Clone returns a deep copy of the trace, including each job's extra
// demand vector (so in-place edits on a clone never reach the original —
// the campaign engine caches base traces and derives cells from clones).
func (t *Trace) Clone() *Trace {
	c := *t
	c.Jobs = append([]Job(nil), t.Jobs...)
	for i := range c.Jobs {
		if c.Jobs[i].Extra != nil {
			c.Jobs[i].Extra = append([]float64(nil), c.Jobs[i].Extra...)
		}
	}
	return &c
}

// ScaleInterarrival returns a copy of the trace with every inter-arrival
// time multiplied by factor (> 0), preserving the first submission instant.
// Job IDs, sizes and runtimes are untouched, so the job mix is identical and
// only the offered load changes, exactly as in the paper's construction of
// the 9 scaled trace sets.
func (t *Trace) ScaleInterarrival(factor float64) (*Trace, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("workload: inter-arrival scale factor %g must be positive", factor)
	}
	c := t.Clone()
	if len(c.Jobs) == 0 {
		return c, nil
	}
	base := c.Jobs[0].Submit
	prevOld := base
	prevNew := base
	for i := range c.Jobs {
		if i == 0 {
			continue
		}
		gap := c.Jobs[i].Submit - prevOld
		prevOld = c.Jobs[i].Submit
		prevNew += gap * factor
		c.Jobs[i].Submit = prevNew
	}
	return c, nil
}

// ScaleToLoad returns a copy of the trace rescaled so that its offered load
// equals target. It fails for empty or zero-span traces or non-positive
// targets.
func (t *Trace) ScaleToLoad(target float64) (*Trace, error) {
	if target <= 0 {
		return nil, fmt.Errorf("workload: target load %g must be positive", target)
	}
	cur := t.OfferedLoad()
	if cur <= 0 {
		return nil, errors.New("workload: cannot rescale a trace with zero offered load")
	}
	scaled, err := t.ScaleInterarrival(cur / target)
	if err != nil {
		return nil, err
	}
	scaled.Name = fmt.Sprintf("%s-load%.2f", t.Name, target)
	return scaled, nil
}

// SplitSegments cuts the trace into consecutive segments of the given
// duration (seconds), re-basing submission times inside each segment to
// start at 0. Empty segments are omitted. This mirrors the paper's split of
// the 182-week HPC2N log into 1-week instances.
func (t *Trace) SplitSegments(duration float64) ([]*Trace, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("workload: segment duration %g must be positive", duration)
	}
	if len(t.Jobs) == 0 {
		return nil, nil
	}
	var segs []*Trace
	var cur []Job
	segIdx := 0
	segStart := t.Jobs[0].Submit
	flush := func() {
		if len(cur) == 0 {
			return
		}
		seg := &Trace{
			Name:      fmt.Sprintf("%s-week%03d", t.Name, segIdx),
			Nodes:     t.Nodes,
			NodeMemGB: t.NodeMemGB,
			Jobs:      cur,
		}
		segs = append(segs, seg)
		cur = nil
	}
	for _, j := range t.Jobs {
		for j.Submit >= segStart+duration {
			flush()
			segIdx++
			segStart += duration
		}
		j.Submit -= segStart
		cur = append(cur, j)
	}
	flush()
	return segs, nil
}
