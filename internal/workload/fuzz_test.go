package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// FuzzStreamTrace reads arbitrary bytes the way an uploaded trace is read:
// StreamTrace, then Next until the end or an error. It must not panic, the
// node count a trace declares never exceeds cluster.MaxNodes, and every job
// it returns has at least one task and fits the cluster opened for it.
// Whenever ReadTrace accepts the bytes, the stream must open and yield
// exactly ReadTrace's jobs, in order, with no error.
func FuzzStreamTrace(f *testing.F) {
	for _, tr := range []*Trace{
		sampleTrace(),
		{
			Name: "weighted-extra", Nodes: 8, NodeMemGB: 16,
			Jobs: []Job{
				{ID: 0, Submit: 0, Tasks: 2, CPUNeed: 0.5, MemReq: 0.25, ExecTime: 30, Weight: 2, Extra: []float64{0.1}},
				{ID: 1, Submit: 5, Tasks: 1, CPUNeed: 1, MemReq: 0.5, ExecTime: 10, Weight: 1, Extra: []float64{0}},
			},
		},
	} {
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	header := "# trace: t\n# nodes: 4\n# node_mem_gb: 8\nid submit tasks cpu_need mem_req exec_time\n"
	for _, doc := range []string{
		"",
		"0 1 1 0.5 0.5 10\n",
		"id submit tasks cpu_need mem_req exec_time\n",
		"# nodes: 1000000000\nid submit tasks cpu_need mem_req exec_time\n0 1 1 0.5 0.5 10\n",
		"# nodes: 1048576\nid submit tasks cpu_need mem_req exec_time\n",
		"# nodes: 4\nid submit tasks cpu_need mem_req exec_time\n0 1 1 0.5 0.5 10 " + strings.Repeat("x", 256) + "\n",
		"# nodes: 4\n# offered_load: 0\nid submit tasks cpu_need mem_req exec_time\n",
		"# nodes: 4\n# offered_load: 0.5\nid submit tasks cpu_need mem_req exec_time\n0 1 1 0.5 0.5 10\n",
		header + "0 1 1 0.5\n",
		header + "0 1 1 0.5 0.5 10\nx 2 1 0.5 0.5 10\n",
		header + "0 1 0 0.5 0.5 10\n",
		header + "0 9 1 0.5 0.5 10\n1 2 1 0.5 0.5 10\n",
		header + "0 1 4 0.5 0.5 10\n# nodes: 2\n1 2 4 0.5 0.5 10\n",
		header + "0 1 1 0.5 0.5 10\n# nodes: 0\n1 2 9 0.5 0.5 10\n",
		"id 0\n#nodes:1", // nodes declared only after the column header
		header + "0 NaN 1 0.5 0.5 10\n",
		header + "0 1 1 0.5 0.5 +Inf\n",
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, rerr := ReadTrace(bytes.NewReader(data))
		sr, err := StreamTrace(bytes.NewReader(data))
		if err != nil {
			if rerr == nil {
				t.Fatalf("ReadTrace accepts the trace, StreamTrace fails: %v", err)
			}
			return
		}
		nodes := sr.Meta().Nodes
		if nodes < 1 || nodes > cluster.MaxNodes {
			t.Fatalf("opened a trace declaring %d nodes", nodes)
		}
		for n := 0; ; n++ {
			j, ok, err := sr.Next()
			if rerr == nil {
				switch {
				case err != nil:
					t.Fatalf("ReadTrace accepts the trace, StreamTrace fails after %d jobs: %v", n, err)
				case ok && (n >= len(want.Jobs) || !reflect.DeepEqual(j, want.Jobs[n])):
					t.Fatalf("StreamTrace job %d is %+v, ReadTrace has %d jobs", n, j, len(want.Jobs))
				case !ok && n != len(want.Jobs):
					t.Fatalf("StreamTrace ends after %d jobs, ReadTrace has %d", n, len(want.Jobs))
				}
			}
			if err != nil || !ok {
				return
			}
			if j.Tasks < 1 || j.Tasks > nodes {
				t.Fatalf("job %d has %d tasks on %d nodes", j.ID, j.Tasks, nodes)
			}
			if m := sr.Meta().Nodes; m > cluster.MaxNodes {
				t.Fatalf("trace declares %d nodes after job %d", m, j.ID)
			}
		}
	})
}
