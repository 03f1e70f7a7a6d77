package serve

// End-to-end coverage of the daemon layer: HTTP submit -> SSE stream ->
// summary; kill/restart checkpoint resume (byte-identical for clean
// interruptions, record-equivalent for torn final lines); concurrent
// submissions sharing one pool (run with -race); online snapshots
// agreeing with a post-hoc fold of the same records.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	dfrs "repro"
	"repro/internal/campaign"
	"repro/internal/metrics/online"
)

// Dropped reports how many frames were lost to slow subscribers.
func (h *hub) Dropped() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}

// testGridJSON expands to algorithms x traces cells of small lublin runs.
func testGridJSON(name string, algorithms []string, traces, jobs int) []byte {
	g := map[string]any{
		"name":           name,
		"algorithms":     algorithms,
		"families":       []map[string]any{{"kind": "lublin", "count": traces}},
		"loads":          []float64{0.7},
		"nodes":          []int{16},
		"jobs_per_trace": jobs,
	}
	data, err := json.Marshal(g)
	if err != nil {
		panic(err)
	}
	return data
}

func newTestManager(t *testing.T, opt Options) *Manager {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = t.TempDir()
	}
	m, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// waitDone blocks until the job leaves the pool and returns its status.
func waitDone(t *testing.T, j *Job) Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", j.ID())
	}
	return j.Status()
}

// submitJSON posts a body and decodes the JSON response into out.
func submitJSON(t *testing.T, url string, body []byte, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestGridEndToEndHTTP(t *testing.T) {
	m := newTestManager(t, Options{})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	var sub struct {
		ID    string `json:"id"`
		Cells int    `json:"cells"`
	}
	code := submitJSON(t, srv.URL+"/v1/campaigns", testGridJSON("e2e", []string{"fcfs", "greedy"}, 3, 60), &sub)
	if code != http.StatusAccepted || sub.ID == "" || sub.Cells != 6 {
		t.Fatalf("submit: code=%d id=%q cells=%d", code, sub.ID, sub.Cells)
	}
	j, ok := m.Get(sub.ID)
	if !ok {
		t.Fatalf("submitted job %s unknown to manager", sub.ID)
	}
	st := waitDone(t, j)
	if st.State != StateDone || st.DoneCells != 6 || st.TotalCells != 6 {
		t.Fatalf("final status: %+v", st)
	}
	if st.Snapshot.Cells != 6 || st.Snapshot.Jobs != 6*60 {
		t.Fatalf("snapshot folded %d cells, %d jobs; want 6 cells, 360 jobs", st.Snapshot.Cells, st.Snapshot.Jobs)
	}

	// The summary endpoint agrees with the in-memory status.
	var sum Status
	resp, err := http.Get(srv.URL + "/v1/jobs/" + sub.ID + "/summary")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sum.State != StateDone || sum.Snapshot != st.Snapshot {
		t.Fatalf("summary %+v disagrees with status %+v", sum, st)
	}

	// The served records fold to the same record-level aggregates the
	// job's own aggregator reports — and the quantile sketch is sane.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + sub.ID + "/records")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := campaign.ReadRecords(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("served %d records, want 6", len(recs))
	}
	fold := online.New()
	for _, rec := range recs {
		fold.ObserveRecord(rec)
	}
	fs, ss := fold.Snapshot(), st.Snapshot
	if fs.Cells != ss.Cells || fs.FinishedJobs != ss.FinishedJobs ||
		fs.Cost != ss.Cost || fs.Utilization != ss.Utilization {
		t.Errorf("record fold %+v disagrees with live snapshot %+v", fs, ss)
	}
	if !(ss.StretchP50 >= 1 && ss.StretchP50 <= ss.StretchP95 &&
		ss.StretchP95 <= ss.StretchP99 && ss.StretchP99 <= ss.MaxStretch) {
		t.Errorf("quantiles not monotone: p50=%g p95=%g p99=%g max=%g",
			ss.StretchP50, ss.StretchP95, ss.StretchP99, ss.MaxStretch)
	}
}

func TestTraceEndToEndHTTP(t *testing.T) {
	tr, err := dfrs.SyntheticTrace(dfrs.SyntheticOptions{Seed: 7, Nodes: 16, Jobs: 90, Name: "serve-trace"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()

	m := newTestManager(t, Options{SnapshotEvery: 16})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	var sub struct {
		ID string `json:"id"`
	}
	code := submitJSON(t, srv.URL+"/v1/runs?alg=greedy-pmtn&penalty=300&load=0.8", encoded, &sub)
	if code != http.StatusAccepted || sub.ID == "" {
		t.Fatalf("submit: code=%d id=%q", code, sub.ID)
	}
	j, _ := m.Get(sub.ID)
	st := waitDone(t, j)
	if st.State != StateDone {
		t.Fatalf("final status: %+v", st)
	}

	// The served run is deterministic, so its snapshot must be identical
	// to a direct RunStream with the same aggregator wiring.
	want := dfrs.NewOnlineAggregator()
	_, err = dfrs.RunStream(context.Background(), bytes.NewReader(encoded), "greedy-pmtn",
		dfrs.WithPenalty(300), dfrs.WithOnlineMetrics(want),
		dfrs.WithTargetLoad(0.8), dfrs.WithCurrentLoad(mustMeasure(t, encoded)))
	if err != nil {
		t.Fatal(err)
	}
	if ws := want.Snapshot(); st.Snapshot != ws {
		t.Errorf("served snapshot %+v != direct run snapshot %+v", st.Snapshot, ws)
	}
	if st.Snapshot.Jobs != 90 || st.Snapshot.Submitted != 90 {
		t.Errorf("snapshot saw %d/%d jobs, want 90/90", st.Snapshot.Jobs, st.Snapshot.Submitted)
	}
}

// TestTraceEventFramesMatchRecorder: every transition of a /v1/runs job
// reaches a subscriber that attached before the run started, as one
// EventSim frame per non-scheduler event of a direct dfrs.Run, with the
// same kind string, time, jid, nodes and turnaround.
func TestTraceEventFramesMatchRecorder(t *testing.T) {
	tr, err := dfrs.SyntheticTrace(dfrs.SyntheticOptions{Seed: 33, Nodes: 32, Jobs: 60, Name: "serve-frames"})
	if err != nil {
		t.Fatal(err)
	}
	if tr, err = tr.ScaleToLoad(0.8); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// The daemon runs the uploaded bytes, whose times are rounded; the
	// direct run reads the same bytes back.
	stored, err := dfrs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	const alg = "dynmcb8-asap-per"
	rec := &dfrs.EventRecorder{}
	if _, err := dfrs.Run(context.Background(), stored, alg, dfrs.WithPenalty(300), dfrs.WithObserver(rec)); err != nil {
		t.Fatal(err)
	}
	var want []TraceEvent
	for _, e := range rec.Events() {
		if e.Kind != dfrs.EvSchedulerInvoked {
			want = append(want, TraceEvent{Kind: e.Kind.String(), Time: e.Time, JID: e.JID, Nodes: e.Nodes, Turnaround: e.Turnaround})
		}
	}

	// Hold the one pool slot so the job cannot start before the
	// subscriber attaches.
	m := newTestManager(t, Options{Jobs: 1, SnapshotEvery: 16})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	m.slots <- struct{}{}
	var sub struct {
		ID string `json:"id"`
	}
	if code := submitJSON(t, srv.URL+"/v1/runs?alg="+alg+"&penalty=300", buf.Bytes(), &sub); code != http.StatusAccepted {
		t.Fatalf("submit: code=%d", code)
	}
	j, _ := m.Get(sub.ID)
	// Room for every frame of the run (transitions, a snapshot every 16,
	// statuses), so a slow reader drops none.
	ch, cancel := j.Subscribe(len(want) + len(want)/16 + 16)
	defer cancel()
	<-m.slots

	var got []TraceEvent
	kinds := map[string]bool{}
	for e := range ch {
		if e.Type == EventSim {
			te := e.Data.(TraceEvent)
			got = append(got, te)
			kinds[te.Kind] = true
		}
	}
	if st := waitDone(t, j); st.State != StateDone {
		t.Fatalf("final status: %+v", st)
	}
	if d := j.hub.Dropped(); d != 0 {
		t.Fatalf("%d frames dropped", d)
	}
	if len(kinds) != 5 {
		t.Errorf("frames carry kinds %v, want all five", kinds)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%d sim frames, recorder %d non-scheduler events; first frames %v, want %v",
			len(got), len(want), got[:min(4, len(got))], want[:min(4, len(want))])
	}
}

func mustMeasure(t *testing.T, encoded []byte) float64 {
	t.Helper()
	cur, _, err := dfrs.MeasureStreamLoad(bytes.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	return cur
}

func TestSubmitValidationHTTP(t *testing.T) {
	m := newTestManager(t, Options{})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	cases := []struct {
		name string
		url  string
		body []byte
	}{
		{"malformed grid", "/v1/campaigns", []byte("{not json")},
		{"unknown grid field", "/v1/campaigns", []byte(`{"name":"x","algorithms":["fcfs"],"families":[{"kind":"lublin","count":1}],"loadz":[0.7]}`)},
		{"unknown algorithm grid", "/v1/campaigns", testGridJSON("bad", []string{"no-such-alg"}, 1, 10)},
		{"missing alg", "/v1/runs", []byte("id submit\n")},
		{"unknown alg", "/v1/runs?alg=no-such-alg", []byte("id submit\n")},
		{"bad trace body", "/v1/runs?alg=fcfs", []byte("not a trace\n")},
		{"bad penalty", "/v1/runs?alg=fcfs&penalty=abc", []byte("")},
	}
	for _, tc := range cases {
		if code := submitJSON(t, srv.URL+tc.url, tc.body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", tc.name, code)
		}
	}
	if len(m.List()) != 0 {
		t.Errorf("rejected submissions left %d jobs behind", len(m.List()))
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/deadbeef0000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status: got %d, want 404", resp.StatusCode)
	}
}

// TestSubmitRejectsHugeSizesHTTP: a trace declaring a billion nodes and
// grids naming a billion nodes, cells or jobs per trace are refused at
// submission with 400, before anything is laid out or expanded.
func TestSubmitRejectsHugeSizesHTTP(t *testing.T) {
	m := newTestManager(t, Options{})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	grid := func(field string, value any) []byte {
		g := map[string]any{
			"algorithms": []string{"easy"},
			"families":   []map[string]any{{"kind": "lublin", "count": 1}},
		}
		g[field] = value
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name string
		url  string
		body []byte
	}{
		{"billion-node trace", "/v1/runs?alg=fcfs", []byte("# nodes: 1000000000\nid submit tasks cpu_need mem_req exec_time\n0 1 1 0.5 0.5 10\n")},
		{"billion-node grid", "/v1/campaigns", grid("nodes", []int{1_000_000_000})},
		{"billion-cell grid", "/v1/campaigns", grid("families", []map[string]any{{"kind": "lublin", "count": 1_000_000_000}})},
		{"billion-job traces", "/v1/campaigns", grid("jobs_per_trace", 1_000_000_000)},
		{"billion-node topology", "/v1/campaigns", grid("topologies", []string{"uniform:1000000000+uniform:1000000000"})},
	}
	for _, tc := range cases {
		if code := submitJSON(t, srv.URL+tc.url, tc.body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", tc.name, code)
		}
	}
	if len(m.List()) != 0 {
		t.Errorf("rejected submissions left %d jobs behind", len(m.List()))
	}
}

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	event string
	data  []byte
}

func readSSE(t *testing.T, url string) []sseFrame {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.event != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return frames
}

func TestSSELiveStream(t *testing.T) {
	// One pool slot: a blocker campaign holds it, so the target job is
	// still pending when the SSE client connects and every frame of its
	// run reaches the wire.
	m := newTestManager(t, Options{Jobs: 1})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	var blocker, target struct {
		ID string `json:"id"`
	}
	submitJSON(t, srv.URL+"/v1/campaigns", testGridJSON("blocker", []string{"fcfs", "greedy"}, 4, 2000), &blocker)
	// Submit the target only once the blocker holds the pool slot, so the
	// target cannot start before the SSE client attaches.
	bj, _ := m.Get(blocker.ID)
	for bj.Status().State == StatePending {
		time.Sleep(time.Millisecond)
	}
	submitJSON(t, srv.URL+"/v1/campaigns", testGridJSON("target", []string{"fcfs"}, 2, 40), &target)

	frames := readSSE(t, srv.URL+"/v1/jobs/"+target.ID+"/events")
	if len(frames) < 4 {
		t.Fatalf("SSE delivered %d frames, want at least initial status + records + final status", len(frames))
	}
	counts := map[string]int{}
	for _, f := range frames {
		counts[f.event]++
	}
	if counts[EventRecord] != 2 {
		t.Errorf("SSE carried %d record frames, want 2 (one per cell)", counts[EventRecord])
	}
	if counts[EventSnapshot] != 2 {
		t.Errorf("SSE carried %d snapshot frames, want 2", counts[EventSnapshot])
	}
	first, last := frames[0], frames[len(frames)-1]
	if first.event != EventStatus || last.event != EventStatus {
		t.Fatalf("stream not status-framed: first=%s last=%s", first.event, last.event)
	}
	var lastSt Status
	if err := json.Unmarshal(last.data, &lastSt); err != nil {
		t.Fatal(err)
	}
	if lastSt.State != StateDone || lastSt.DoneCells != 2 {
		t.Errorf("final SSE status %+v, want done with 2 cells", lastSt)
	}
}

// runGridToCompletion runs one grid submission to done and returns the
// manager's state dir, the job's spec file name, and the checkpoint bytes.
func runGridToCompletion(t *testing.T, gridJSON []byte) (dir, specName string, checkpoint []byte, st Status) {
	t.Helper()
	dir = t.TempDir()
	m := newTestManager(t, Options{Dir: dir})
	g, err := campaign.ParseGrid(gridJSON)
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.SubmitGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, j)
	if st.State != StateDone {
		t.Fatalf("reference run: %+v", st)
	}
	checkpoint, err = os.ReadFile(m.RecordsPath(j.ID()))
	if err != nil {
		t.Fatal(err)
	}
	return dir, j.ID() + ".spec.json", checkpoint, st
}

// seedInterruptedState fabricates a state dir holding the given spec and a
// partial checkpoint with no summary — exactly what a killed daemon leaves.
func seedInterruptedState(t *testing.T, srcDir, specName string, partial []byte) string {
	t.Helper()
	dir := t.TempDir()
	spec, err := os.ReadFile(srcDir + "/" + specName)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/"+specName, spec, 0o644); err != nil {
		t.Fatal(err)
	}
	id := strings.TrimSuffix(specName, ".spec.json")
	if err := os.WriteFile(dir+"/"+id+".jsonl", partial, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestResumeByteIdenticalCheckpoint(t *testing.T) {
	grid := testGridJSON("resume", []string{"fcfs", "greedy"}, 3, 50)
	srcDir, specName, full, refSt := runGridToCompletion(t, grid)

	// A context-cancelled kill stops between cells: the checkpoint ends at
	// a line boundary. Keep the first two records and resume the rest.
	lines := bytes.SplitAfter(full, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("reference checkpoint has %d lines", len(lines))
	}
	partial := bytes.Join(lines[:2], nil)

	dir := seedInterruptedState(t, srcDir, specName, partial)
	m := newTestManager(t, Options{Dir: dir})
	resumed, err := m.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 {
		t.Fatalf("resumed %v, want exactly the interrupted job", resumed)
	}
	j, _ := m.Get(resumed[0])
	st := waitDone(t, j)
	if st.State != StateDone || st.DoneCells != st.TotalCells {
		t.Fatalf("resumed run: %+v", st)
	}
	got, err := os.ReadFile(m.RecordsPath(j.ID()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Errorf("resumed checkpoint differs from uninterrupted run:\n got %d bytes\nwant %d bytes", len(got), len(full))
	}
	// Record-level aggregates keep full history across the restart; the
	// snapshot's cell folds must match the uninterrupted run's.
	if st.Snapshot.Cells != refSt.Snapshot.Cells || st.Snapshot.Cost != refSt.Snapshot.Cost ||
		st.Snapshot.Utilization != refSt.Snapshot.Utilization {
		t.Errorf("resumed cell folds %+v != reference %+v", st.Snapshot, refSt.Snapshot)
	}
	if _, err := os.Stat(m.SummaryPath(j.ID())); err != nil {
		t.Errorf("resumed job wrote no summary: %v", err)
	}
}

func TestResumeRepairsTornLine(t *testing.T) {
	grid := testGridJSON("torn", []string{"fcfs", "greedy"}, 2, 50)
	srcDir, specName, full, _ := runGridToCompletion(t, grid)

	// A hard kill mid-write tears the final line. The torn cell must be
	// recomputed: the record set after resume equals the reference set.
	lines := bytes.SplitAfter(full, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("reference checkpoint has %d lines", len(lines))
	}
	torn := append(bytes.Join(lines[:1], nil), lines[1][:len(lines[1])/2]...)

	dir := seedInterruptedState(t, srcDir, specName, torn)
	m := newTestManager(t, Options{Dir: dir})
	resumed, err := m.Resume()
	if err != nil {
		t.Fatal(err)
	}
	j, _ := m.Get(resumed[0])
	if st := waitDone(t, j); st.State != StateDone {
		t.Fatalf("resumed run: %+v", st)
	}
	got, err := os.ReadFile(m.RecordsPath(j.ID()))
	if err != nil {
		t.Fatal(err)
	}
	wantRecs, err := campaign.ReadRecords(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	gotRecs, err := campaign.ReadRecords(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	campaign.SortRecords(wantRecs)
	campaign.SortRecords(gotRecs)
	if !reflect.DeepEqual(gotRecs, wantRecs) {
		t.Errorf("resumed records differ from reference: got %d, want %d", len(gotRecs), len(wantRecs))
	}
}

func TestResumeSkipsCompletedJobs(t *testing.T) {
	dir, _, _, _ := runGridToCompletion(t, testGridJSON("completed", []string{"fcfs"}, 1, 30))
	m := newTestManager(t, Options{Dir: dir})
	resumed, err := m.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 0 {
		t.Errorf("resume re-enqueued completed jobs: %v", resumed)
	}
}

func TestCloseInterruptsAndResumes(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g, err := campaign.ParseGrid(testGridJSON("interrupt", []string{"fcfs", "greedy", "easy"}, 4, 80))
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.SubmitGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	// Let some work land, then drain — the SIGTERM path.
	ch, cancel := j.Subscribe(64)
	for e := range ch {
		if e.Type == EventRecord {
			break
		}
	}
	cancel()
	m.Close()
	st := j.Status()
	if st.State != StateInterrupted && st.State != StateDone {
		t.Fatalf("state after Close: %+v", st)
	}

	// A fresh manager over the same dir finishes exactly the missing cells.
	m2 := newTestManager(t, Options{Dir: dir})
	resumed, err := m2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if st.State == StateInterrupted {
		if len(resumed) != 1 {
			t.Fatalf("resumed %v, want the interrupted job", resumed)
		}
		j2, _ := m2.Get(resumed[0])
		if st2 := waitDone(t, j2); st2.State != StateDone || st2.DoneCells != 12 {
			t.Fatalf("resumed run: %+v", st2)
		}
	}
	f, err := os.Open(m2.RecordsPath(j.ID()))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := campaign.ReadRecords(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 12 {
		t.Errorf("final checkpoint holds %d records, want 12", len(recs))
	}
}

func TestConcurrentSubmissionsSharePool(t *testing.T) {
	m := newTestManager(t, Options{Jobs: 2})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	const n = 4
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sub struct {
				ID string `json:"id"`
			}
			code := submitJSON(t, srv.URL+"/v1/campaigns",
				testGridJSON(fmt.Sprintf("conc%d", i), []string{"fcfs", "greedy"}, 2, 40), &sub)
			if code != http.StatusAccepted {
				t.Errorf("submit %d: code %d", i, code)
				return
			}
			ids[i] = sub.ID
		}(i)
	}
	// Hammer the read endpoints while the pool churns.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(srv.URL + "/v1/jobs")
			if err == nil {
				var sts []Status
				json.NewDecoder(resp.Body).Decode(&sts)
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	for i, id := range ids {
		if id == "" {
			continue
		}
		j, ok := m.Get(id)
		if !ok {
			t.Errorf("job %d (%s) unknown", i, id)
			continue
		}
		if st := waitDone(t, j); st.State != StateDone || st.Snapshot.Cells != 4 {
			t.Errorf("job %d: %+v", i, st)
		}
	}
	close(stop)
	readers.Wait()
}

func TestHubDropsSlowSubscribers(t *testing.T) {
	h := newHub()
	ch, cancel := h.subscribe(1)
	defer cancel()
	h.publish(Event{Type: "a"})
	h.publish(Event{Type: "b"}) // buffer full: dropped, not blocking
	if d := h.Dropped(); d != 1 {
		t.Errorf("dropped %d frames, want 1", d)
	}
	if e := <-ch; e.Type != "a" {
		t.Errorf("got %q, want first frame", e.Type)
	}
	h.close()
	if _, ok := <-ch; ok {
		t.Error("subscriber channel not closed after hub close")
	}
	// Late subscribers see an immediately closed stream.
	late, lateCancel := h.subscribe(1)
	defer lateCancel()
	if _, ok := <-late; ok {
		t.Error("late subscriber channel not closed")
	}
}
