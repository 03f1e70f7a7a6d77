package campaign

import (
	"encoding/json"
	"testing"
)

// FuzzParseGrid asserts the submission parser's contract for dfrs-serve:
// no request body panics it, and an accepted grid is valid and survives a
// JSON round trip through ParseGrid, and expands to at most MaxCells cells.
func FuzzParseGrid(f *testing.F) {
	for _, body := range []string{
		`{"algorithms":["easy"],"families":[{"kind":"lublin","count":1}]}`,
		`{"name":"t","seeds":[1,2],"algorithms":["dynmcb8-per","greedy-pmtn"],"families":[{"kind":"lublin","count":2,"loads":[0.5,0.9]},{"kind":"hpc2n","count":1}],"penalties":[0,300],"nodes":[32],"node_mixes":["bimodal"],"objectives":["cost"],"jobs_per_trace":40}`,
		`{"algorithms":["easy"],"families":[{"kind":"lublin","count":1}],"topologies":["uniform:64+bimodal-priced:32"],"dispatchers":["costaware"]}`,
		`{"algorithms":["easy"],"families":[{"kind":"lublin","count":1}],"topologies":["20000000"]}`,
		`{"algorithms":["easy"],"families":[{"kind":"lublin","count":1}],"topologies":["1000000000000000000"]}`,
		`{"algorithms":["easy"],"families":[{"kind":"lublin","count":1}],"gpu_frac":0.3,"gpu_corr":-0.5,"node_mixes":["gpu-bimodal"]}`,
		`{"algorithms":["easy"],"families":[{"kind":"lublin","count":1}],"loads":[1.5]}`,
		`{"algorithms":["easy"],"families":[{"kind":"lublin","count":1}],"dispatchers":["costaware"]}`,
		`{"algorithms":["easy"],"families":[{"kind":"nosuch","count":1}]}`,
		`{"algorithms":[],"families":[]}`,
		`{"typo":1}`,
		`[]`, `null`, `{`, ``, `{"nodes":[-1]}`,
		`{"algorithms":["easy"],"families":[{"kind":"lublin","count":1000000000}],"nodes":[1000000000],"jobs_per_trace":1000000000}`,
		`{"algorithms":["easy","fcfs"],"families":[{"kind":"lublin","count":1024,"loads":[0.5,0.9]},{"kind":"hpc2n","count":4}],"seeds":[1,2],"penalties":[0,300],"objectives":["","cost"],"loads":[0.7]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseGrid(data)
		if err != nil {
			return
		}
		if g == nil {
			t.Fatalf("%q: nil grid and nil error", data)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%q: accepted grid fails validation: %v", data, err)
		}
		if n := len(g.Cells()); n > MaxCells {
			t.Fatalf("%q: accepted grid expands to %d cells", data, n)
		}
		out, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("%q: accepted grid does not marshal: %v", data, err)
		}
		if _, err := ParseGrid(out); err != nil {
			t.Fatalf("%q: round trip %s rejected: %v", data, out, err)
		}
	})
}
