package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced run attaches an Observer to every simulation and records
// spans from this package only, around the calls into each layer:
// workload → pass → operation (a campaign cell or one simulation leg) →
// scheduler hook. A hook span ends when SchedulerInvoked fires and starts
// that moment minus the elapsed time the hook reports. Spans stay in memory
// and are written out when the run ends.

// maxHookSpans bounds the hook spans kept for the spans file. Hooks beyond
// it still count in the per-(family, hook) histograms.
const maxHookSpans = 200_000

// hookNames are the scheduler hooks the simulator reports; anything else
// is counted as "other".
var hookNames = [...]string{"init", "arrival", "completion", "timer", "other"}

func hookIndex(name string) uint8 {
	for i, h := range hookNames[:len(hookNames)-1] {
		if h == name {
			return uint8(i)
		}
	}
	return uint8(len(hookNames) - 1)
}

// span is one record of the spans file. Times are nanoseconds since the
// tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Jobs   int32  `json:"jobs,omitempty"`
}

// hookStats aggregates the invocations of one scheduler hook.
type hookStats struct {
	calls int64
	busy  time.Duration
	jobs  int64 // jobs in system, summed over calls
	hist  histogram
}

func (s *hookStats) merge(o *hookStats) {
	s.calls += o.calls
	s.busy += o.busy
	s.jobs += o.jobs
	s.hist.merge(&o.hist)
}

// layerKey names a (scheduler family, hook) pair, or a (family, placement
// objective) pair for operation time.
type layerKey struct{ family, sub string }

type tracer struct {
	t0 time.Time

	mu        sync.Mutex
	nextID    int64
	passID    int64
	passStart int64
	spans     []span
	hookSpans int
	folded    int
	hooks     map[layerKey]*hookStats
	opTime    map[layerKey]time.Duration // by (family, objective)
	ops       int
	busy      time.Duration // operation spans, summed
	self      time.Duration // operation spans minus their hook spans
	pass0     int64         // hook calls in pass 0
}

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		nextID: 1, // span 1 is the workload
		hooks:  map[layerKey]*hookStats{},
		opTime: map[layerKey]time.Duration{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) id() int64 {
	t.nextID++
	return t.nextID
}

func (t *tracer) beginPass() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.passID = t.id()
	t.passStart = t.now()
}

func (t *tracer) endPass(k int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: t.passID, Parent: 1, Kind: "pass", Name: fmt.Sprint(k), Start: t.passStart, End: t.now()})
	if k == 0 {
		t.pass0 = t.total(nil).calls
	}
}

// hookRec is one hook invocation, kept compact: a stream replay makes
// hundreds of thousands.
type hookRec struct {
	start, end int64
	jobs       int32
	hook       uint8
}

// opTrace is the Observer of one traced operation. A simulation calls its
// observer from one goroutine at a time (a parallel federation serializes
// its members' callbacks), so it needs no lock of its own.
type opTrace struct {
	tr                      *tracer
	name, family, objective string
	start                   int64
	hooks                   []hookRec
}

func (t *tracer) begin(name, family, objective string) *opTrace {
	return &opTrace{tr: t, name: name, family: family, objective: objective, start: t.now()}
}

func (*opTrace) JobSubmitted(float64, int)          {}
func (*opTrace) JobStarted(float64, int, []int)     {}
func (*opTrace) JobPreempted(float64, int)          {}
func (*opTrace) JobMigrated(float64, int, []int)    {}
func (*opTrace) JobCompleted(float64, int, float64) {}
func (o *opTrace) SchedulerInvoked(_ float64, hook string, jobs int, elapsed time.Duration) {
	end := o.tr.now()
	o.hooks = append(o.hooks, hookRec{start: end - int64(elapsed), end: end, jobs: int32(jobs), hook: hookIndex(hook)})
}

// finish closes the operation and folds its hooks into the layer
// statistics.
func (o *opTrace) finish() {
	t := o.tr
	end := t.now()
	iv := make([]interval, len(o.hooks))
	for i, h := range o.hooks {
		iv[i] = interval{h.start, h.end}
	}
	self := selfTime(interval{o.start, end}, iv)

	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.id()
	t.spans = append(t.spans, span{ID: id, Parent: t.passID, Kind: "op", Name: o.name, Start: o.start, End: end})
	for _, h := range o.hooks {
		name := hookNames[h.hook]
		st := t.hooks[layerKey{o.family, name}]
		if st == nil {
			st = &hookStats{}
			t.hooks[layerKey{o.family, name}] = st
		}
		d := time.Duration(h.end - h.start)
		st.calls++
		st.busy += d
		st.jobs += int64(h.jobs)
		st.hist.add(d)
		if t.hookSpans < maxHookSpans {
			t.hookSpans++
			t.spans = append(t.spans, span{ID: t.id(), Parent: id, Kind: "hook", Name: o.family + "." + name, Start: h.start, End: h.end, Jobs: h.jobs})
		} else {
			t.folded++
		}
	}
	t.ops++
	t.busy += time.Duration(end - o.start)
	t.self += self
	t.opTime[layerKey{o.family, o.objective}] += time.Duration(end - o.start)
}

// total merges the statistics of every hook accepted by keep (all when nil).
// The caller holds t.mu or owns the tracer.
func (t *tracer) total(keep func(layerKey) bool) hookStats {
	var all hookStats
	for k, st := range t.hooks {
		if keep == nil || keep(k) {
			all.merge(st)
		}
	}
	return all
}

// layers lists the (family, hook) pairs seen, sorted.
func (t *tracer) layers() []layerKey {
	keys := make([]layerKey, 0, len(t.hooks))
	for k := range t.hooks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].family != keys[j].family {
			return keys[i].family < keys[j].family
		}
		return hookIndex(keys[i].sub) < hookIndex(keys[j].sub)
	})
	return keys
}

// write stores the spans, the workload span first, as JSON lines in
// dir/<workload>.spans.jsonl, followed by one line naming how many hook
// spans were folded into the histograms only.
func (t *tracer) write(dir, workload string, end int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(span{ID: 1, Kind: "workload", Name: workload, End: end}); err != nil {
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := enc.Encode(map[string]int{"folded_hook_spans": t.folded}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
