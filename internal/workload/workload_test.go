package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func validJob(id int, submit float64, tasks int, exec float64) Job {
	return Job{ID: id, Submit: submit, Tasks: tasks, CPUNeed: 0.5, MemReq: 0.25, ExecTime: exec}
}

func sampleTrace() *Trace {
	return &Trace{
		Name:      "sample",
		Nodes:     4,
		NodeMemGB: 8,
		Jobs: []Job{
			validJob(0, 0, 2, 100),
			validJob(1, 50, 1, 200),
			validJob(2, 120, 4, 50),
		},
	}
}

func TestJobValidate(t *testing.T) {
	good := validJob(1, 0, 2, 10)
	if err := good.Validate(4); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Job)
	}{
		{"zero tasks", func(j *Job) { j.Tasks = 0 }},
		{"too many tasks", func(j *Job) { j.Tasks = 5 }},
		{"negative submit", func(j *Job) { j.Submit = -1 }},
		{"zero cpu", func(j *Job) { j.CPUNeed = 0 }},
		{"cpu above 1", func(j *Job) { j.CPUNeed = 1.5 }},
		{"zero mem", func(j *Job) { j.MemReq = 0 }},
		{"mem above 1", func(j *Job) { j.MemReq = 1.01 }},
		{"zero exec", func(j *Job) { j.ExecTime = 0 }},
		{"NaN submit", func(j *Job) { j.Submit = math.NaN() }},
		{"infinite submit", func(j *Job) { j.Submit = math.Inf(1) }},
		{"NaN cpu", func(j *Job) { j.CPUNeed = math.NaN() }},
		{"NaN mem", func(j *Job) { j.MemReq = math.NaN() }},
		{"NaN exec", func(j *Job) { j.ExecTime = math.NaN() }},
		{"infinite exec", func(j *Job) { j.ExecTime = math.Inf(1) }},
		{"NaN weight", func(j *Job) { j.Weight = math.NaN() }},
		{"infinite weight", func(j *Job) { j.Weight = math.Inf(1) }},
		{"NaN extra", func(j *Job) { j.Extra = []float64{math.NaN()} }},
	}
	for _, c := range cases {
		j := good
		c.mut(&j)
		if err := j.Validate(4); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestTraceValidate(t *testing.T) {
	tr := sampleTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	unsorted := sampleTrace()
	unsorted.Jobs[0].Submit = 1000
	if err := unsorted.Validate(); err == nil {
		t.Error("out-of-order submissions accepted")
	}
	empty := &Trace{Nodes: 0}
	if err := empty.Validate(); err == nil {
		t.Error("zero-node trace accepted")
	}
}

func TestSpanAndWork(t *testing.T) {
	tr := sampleTrace()
	if got := tr.span(); got != 120 {
		t.Errorf("span = %v, want 120", got)
	}
	// 2*100 + 1*200 + 4*50 = 600 node-seconds.
	if got := tr.totalWork(); got != 600 {
		t.Errorf("totalWork = %v, want 600", got)
	}
	// load = 600 / (120 * 4) = 1.25
	if got := tr.OfferedLoad(); math.Abs(got-1.25) > 1e-12 {
		t.Errorf("OfferedLoad = %v, want 1.25", got)
	}
	if got := (&Trace{Nodes: 4, Jobs: []Job{validJob(0, 0, 1, 10)}}).OfferedLoad(); got != 0 {
		t.Errorf("single-job load = %v, want 0", got)
	}
}

func TestScaleInterarrival(t *testing.T) {
	tr := sampleTrace()
	scaled, err := tr.ScaleInterarrival(2)
	if err != nil {
		t.Fatal(err)
	}
	wantSubmits := []float64{0, 100, 240}
	for i, w := range wantSubmits {
		if got := scaled.Jobs[i].Submit; math.Abs(got-w) > 1e-9 {
			t.Errorf("job %d submit = %v, want %v", i, got, w)
		}
	}
	// Original untouched.
	if tr.Jobs[1].Submit != 50 {
		t.Error("ScaleInterarrival mutated the original trace")
	}
	if _, err := tr.ScaleInterarrival(0); err == nil {
		t.Error("zero factor accepted")
	}
}

func TestScaleToLoad(t *testing.T) {
	tr := sampleTrace()
	for _, target := range []float64{0.1, 0.5, 0.9, 2.0} {
		scaled, err := tr.ScaleToLoad(target)
		if err != nil {
			t.Fatalf("ScaleToLoad(%v): %v", target, err)
		}
		if got := scaled.OfferedLoad(); math.Abs(got-target) > 1e-9 {
			t.Errorf("ScaleToLoad(%v) produced load %v", target, got)
		}
		if len(scaled.Jobs) != len(tr.Jobs) {
			t.Error("job mix changed")
		}
	}
	if _, err := tr.ScaleToLoad(-1); err == nil {
		t.Error("negative target accepted")
	}
}

// Property: rescaling preserves job identity and ordering and hits the
// target load for any positive target.
func TestScaleToLoadProperty(t *testing.T) {
	f := func(gaps []uint8, target8 uint8) bool {
		if len(gaps) < 2 {
			return true
		}
		target := 0.05 + float64(target8%90)/100
		tr := &Trace{Name: "p", Nodes: 8, NodeMemGB: 8}
		sub := 0.0
		for i, g := range gaps {
			sub += float64(g%50) + 1
			tr.Jobs = append(tr.Jobs, validJob(i, sub, 1+i%8, float64(1+g)))
		}
		scaled, err := tr.ScaleToLoad(target)
		if err != nil {
			return false
		}
		if math.Abs(scaled.OfferedLoad()-target) > 1e-6 {
			return false
		}
		for i := range scaled.Jobs {
			if scaled.Jobs[i].ExecTime != tr.Jobs[i].ExecTime ||
				scaled.Jobs[i].Tasks != tr.Jobs[i].Tasks {
				return false
			}
			if i > 0 && scaled.Jobs[i].Submit < scaled.Jobs[i-1].Submit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitSegments(t *testing.T) {
	tr := &Trace{Name: "w", Nodes: 2, NodeMemGB: 8}
	for i, sub := range []float64{0, 10, 90, 110, 250} {
		tr.Jobs = append(tr.Jobs, validJob(i, sub, 1, 5))
	}
	segs, err := tr.SplitSegments(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("got %d segments, want 3", len(segs))
	}
	if len(segs[0].Jobs) != 3 || len(segs[1].Jobs) != 1 || len(segs[2].Jobs) != 1 {
		t.Errorf("segment sizes: %d %d %d", len(segs[0].Jobs), len(segs[1].Jobs), len(segs[2].Jobs))
	}
	// Submissions re-based inside each segment.
	if segs[1].Jobs[0].Submit != 10 {
		t.Errorf("second segment submit = %v, want 10", segs[1].Jobs[0].Submit)
	}
	if segs[2].Jobs[0].Submit != 50 {
		t.Errorf("third segment submit = %v, want 50", segs[2].Jobs[0].Submit)
	}
	if _, err := tr.SplitSegments(0); err == nil {
		t.Error("zero duration accepted")
	}
	if got, _ := (&Trace{Nodes: 1}).SplitSegments(10); got != nil {
		t.Error("empty trace should split to nil")
	}
}

func TestSortBySubmit(t *testing.T) {
	tr := &Trace{Nodes: 4, Jobs: []Job{
		validJob(0, 30, 1, 1),
		validJob(1, 10, 1, 1),
		validJob(2, 10, 1, 1),
	}}
	tr.SortBySubmit()
	if tr.Jobs[0].ID != 1 || tr.Jobs[1].ID != 2 || tr.Jobs[2].ID != 0 {
		t.Errorf("sort not stable by submit: %v", tr.Jobs)
	}
}

func TestEncodeReadRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != tr.Name || back.Nodes != tr.Nodes || back.NodeMemGB != tr.NodeMemGB {
		t.Errorf("metadata lost: %+v", back)
	}
	if len(back.Jobs) != len(tr.Jobs) {
		t.Fatalf("job count %d, want %d", len(back.Jobs), len(tr.Jobs))
	}
	for i := range tr.Jobs {
		a, b := tr.Jobs[i], back.Jobs[i]
		if a.ID != b.ID || a.Tasks != b.Tasks ||
			math.Abs(a.Submit-b.Submit) > 1e-6 ||
			math.Abs(a.CPUNeed-b.CPUNeed) > 1e-6 ||
			math.Abs(a.MemReq-b.MemReq) > 1e-6 ||
			math.Abs(a.ExecTime-b.ExecTime) > 1e-6 {
			t.Errorf("job %d changed: %+v vs %+v", i, a, b)
		}
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := map[string]string{
		"missing header": "0 1 1 0.5 0.5 10\n",
		"bad fields":     "id submit tasks cpu_need mem_req exec_time\n0 1 1 0.5\n",
		"bad number":     "id submit tasks cpu_need mem_req exec_time\nx 1 1 0.5 0.5 10\n",
		"bad nodes":      "# nodes: zap\nid submit tasks cpu_need mem_req exec_time\n",
	}
	for name, doc := range cases {
		if _, err := ReadTrace(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
	// Invalid trace content (no nodes declared) must fail validation.
	doc := "id submit tasks cpu_need mem_req exec_time\n0 1 1 0.5 0.5 10\n"
	if _, err := ReadTrace(strings.NewReader(doc)); err == nil {
		t.Error("trace without nodes accepted")
	}
}

func TestClone(t *testing.T) {
	tr := sampleTrace()
	c := tr.Clone()
	c.Jobs[0].Submit = 999
	if tr.Jobs[0].Submit == 999 {
		t.Error("Clone shares job storage")
	}
}
