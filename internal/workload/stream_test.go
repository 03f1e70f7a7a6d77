package workload

// Tests for the incremental trace reader behind StreamTrace: it must see
// exactly the jobs ReadTrace sees, report errors with line numbers, and
// guard against unbounded lines.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
)

func encodeSample(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStreamTraceMatchesReadTrace(t *testing.T) {
	traces := []*Trace{
		sampleTrace(),
		{
			Name: "weighted-extra", Nodes: 8, NodeMemGB: 16,
			Jobs: []Job{
				{ID: 0, Submit: 0, Tasks: 2, CPUNeed: 0.5, MemReq: 0.25, ExecTime: 30, Weight: 2, Extra: []float64{0.1}},
				{ID: 1, Submit: 5, Tasks: 1, CPUNeed: 1, MemReq: 0.5, ExecTime: 10, Weight: 1, Extra: []float64{0}},
			},
		},
	}
	for _, tr := range traces {
		enc := encodeSample(t, tr)
		want, err := ReadTrace(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("%s: ReadTrace: %v", tr.Name, err)
		}
		sr, err := StreamTrace(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("%s: StreamTrace: %v", tr.Name, err)
		}
		if sr.Meta().Name != want.Name || sr.Meta().Nodes != want.Nodes || sr.Meta().NodeMemGB != want.NodeMemGB {
			t.Errorf("%s: meta mismatch: %+v", tr.Name, sr.Meta())
		}
		if wd := want.Dims(); sr.Dims() != wd {
			t.Errorf("%s: dims %d, want %d", tr.Name, sr.Dims(), wd)
		}
		var got []Job
		for {
			j, ok, err := sr.Next()
			if err != nil {
				t.Fatalf("%s: Next: %v", tr.Name, err)
			}
			if !ok {
				break
			}
			got = append(got, j)
		}
		if len(got) != len(want.Jobs) {
			t.Fatalf("%s: streamed %d jobs, want %d", tr.Name, len(got), len(want.Jobs))
		}
		for i := range got {
			a, b := got[i], want.Jobs[i]
			// Extra slices alias different backings; compare contents.
			if a.ID != b.ID || a.Submit != b.Submit || a.Tasks != b.Tasks ||
				a.CPUNeed != b.CPUNeed || a.MemReq != b.MemReq ||
				a.ExecTime != b.ExecTime || a.Weight != b.Weight ||
				len(a.Extra) != len(b.Extra) {
				t.Errorf("%s: job %d: %+v vs %+v", tr.Name, i, a, b)
				continue
			}
			for k := range a.Extra {
				if a.Extra[k] != b.Extra[k] {
					t.Errorf("%s: job %d dim %d: %g vs %g", tr.Name, i, k, a.Extra[k], b.Extra[k])
				}
			}
		}
	}
}

func TestStreamTraceErrorsCarryLineNumbers(t *testing.T) {
	header := "# trace: t\n# nodes: 4\n# node_mem_gb: 8\nid submit tasks cpu_need mem_req exec_time\n"
	cases := []struct {
		name, doc, frag string
	}{
		{"bad field count", header + "0 1 1 0.5\n", "line 5"},
		{"bad number", header + "0 1 1 0.5 0.5 10\nx 2 1 0.5 0.5 10\n", "line 6"},
		{"invalid job", header + "0 1 0 0.5 0.5 10\n", "line 5"},
		{"submit disorder", header + "0 9 1 0.5 0.5 10\n1 2 1 0.5 0.5 10\n", "line 6"},
		{"node count change", header + "0 1 1 0.5 0.5 10\n# nodes: 0\n1 2 9 0.5 0.5 10\n", "line 6"},
	}
	for _, c := range cases {
		sr, err := StreamTrace(strings.NewReader(c.doc))
		if err != nil {
			t.Fatalf("%s: header rejected: %v", c.name, err)
		}
		var got error
		for {
			_, ok, err := sr.Next()
			if err != nil {
				got = err
				break
			}
			if !ok {
				break
			}
		}
		if got == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(got.Error(), c.frag) {
			t.Errorf("%s: error %q lacks %q", c.name, got, c.frag)
		}
	}
}

func TestStreamTraceHeaderErrors(t *testing.T) {
	if _, err := StreamTrace(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := StreamTrace(strings.NewReader("0 1 1 0.5 0.5 10\n")); err == nil {
		t.Error("headerless input accepted")
	}
	// A header without a nodes declaration is unusable for streaming.
	if _, err := StreamTrace(strings.NewReader("id submit tasks cpu_need mem_req exec_time\n")); err == nil {
		t.Error("nodeless header accepted")
	}
}

// TestStreamTraceRejectsHugeNodeCount: a header declaring more than
// cluster.MaxNodes nodes fails at the header line, naming the count, so a
// daemon rejects the upload before laying out any cluster.
func TestStreamTraceRejectsHugeNodeCount(t *testing.T) {
	doc := "# nodes: 1000000000\nid submit tasks cpu_need mem_req exec_time\n0 1 1 0.5 0.5 10\n"
	_, err := StreamTrace(strings.NewReader(doc))
	if err == nil {
		t.Fatal("a billion-node header accepted")
	}
	if !strings.Contains(err.Error(), "1000000000") || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("error %q does not name the count and line", err)
	}
	doc = fmt.Sprintf("# nodes: %d\nid submit tasks cpu_need mem_req exec_time\n", cluster.MaxNodes)
	if tr, err := StreamTrace(strings.NewReader(doc)); err != nil || tr.Meta().Nodes != cluster.MaxNodes {
		t.Errorf("header at the limit: %v", err)
	}
}

func TestStreamTraceLineTooLong(t *testing.T) {
	doc := "# nodes: 4\nid submit tasks cpu_need mem_req exec_time\n" +
		"0 1 1 0.5 0.5 10 " + strings.Repeat("x", maxLineBytes+16) + "\n"
	sr, err := StreamTrace(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var got error
	for {
		_, ok, err := sr.Next()
		if err != nil {
			got = err
			break
		}
		if !ok {
			break
		}
	}
	if got == nil {
		t.Fatal("oversized line accepted")
	}
	want := fmt.Sprintf("line 3: line too long (over %d bytes)", maxLineBytes)
	if !strings.Contains(got.Error(), want) {
		t.Errorf("error %q lacks %q", got, want)
	}
}

// TestReadTraceLongLineGuard pins that the materialized reader shares the
// enlarged scanner buffer: lines under the cap parse, over the cap fail.
func TestReadTraceLongLineGuard(t *testing.T) {
	pad := strings.Repeat(" ", 80000)
	doc := "# nodes: 4\nid submit tasks cpu_need mem_req exec_time\n0 1 1 0.5 0.5" + pad + " 10\n"
	tr, err := ReadTrace(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("64KiB+ line rejected: %v", err)
	}
	if len(tr.Jobs) != 1 {
		t.Fatalf("parsed %d jobs, want 1", len(tr.Jobs))
	}
}
