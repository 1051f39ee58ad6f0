package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/campaign"
	"repro/internal/faultpoint"
	"repro/internal/journal"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// campaignSpecJSON is a small but real campaign: 2 scenarios x 2
// protections x 1 core count x 2 backgrounds = 8 runs.
func campaignSpecJSON(t *testing.T) []byte {
	t.Helper()
	data, err := spec.NewCampaign(spec.CampaignSpec{
		Scenarios:   []string{"tamper", "zone-escape"},
		Protections: []string{"unprotected", "distributed"},
		Cores:       []int{3},
		Backgrounds: []string{"none", "stream"},
		Accesses:    8,
		InjectDelay: 50,
		MaxCycles:   300_000,
	}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sweepSpecJSON is a benign sweep grid of 24 cheap runs.
func sweepSpecJSON(t *testing.T) []byte {
	t.Helper()
	data, err := spec.NewSweep(spec.SweepSpec{
		Protections: []string{"unprotected", "distributed"},
		Workloads:   []string{"stream", "memcopy", "scrub"},
		Targets:     []string{"internal", "external"},
		Cores:       []int{1, 2},
		Accesses:    8,
		MaxCycles:   100_000,
	}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// submit POSTs a spec and returns the created job's status.
func submit(t *testing.T, ts *httptest.Server, body []byte, query string) Status {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/jobs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, msg)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// streamAll claims a job's stream and returns the full JSONL body.
func streamAll(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: status %d: %s", resp.StatusCode, msg)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestStreamMatchesDirectRun is the service's core contract: an
// HTTP-submitted campaign streams byte-identical JSONL to a direct
// in-process run of the same spec, across worker counts.
func TestStreamMatchesDirectRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 8})
	body := campaignSpecJSON(t)

	stOne := submit(t, ts, body, "?workers=1")
	one := streamAll(t, ts, stOne.ID)
	many := streamAll(t, ts, submit(t, ts, body, "?workers=7").ID)
	if !bytes.Equal(one, many) {
		t.Fatal("stream bytes differ across worker counts")
	}

	sp, err := spec.Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sp.Campaign.Grid()
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := campaign.WriteJSONL(&direct, grid, sweep.Shard{}, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, direct.Bytes()) {
		t.Fatal("HTTP stream differs from direct campaign.WriteJSONL with the same spec")
	}

	// The job is terminal and fully accounted, and the listing shows both
	// submissions in order.
	var st Status
	getJSON(t, ts.URL+"/api/v1/jobs/"+stOne.ID, &st)
	if st.State != StateDone || st.Records != uint64(len(grid)) {
		t.Fatalf("after stream: state=%s records=%d, want done/%d", st.State, st.Records, len(grid))
	}
	var list []Status
	getJSON(t, ts.URL+"/api/v1/jobs", &list)
	if len(list) != 2 || list[0].ID != stOne.ID {
		t.Fatalf("job listing = %+v, want 2 jobs led by %s", list, stOne.ID)
	}
}

// TestShardedStreamsMerge: two shard jobs cover the grid; their streams
// concatenate (via sweep.Merge semantics — here just index interleave)
// to the unsharded stream.
func TestShardedStreamsMerge(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	body := sweepSpecJSON(t)

	whole := streamAll(t, ts, submit(t, ts, body, "").ID)
	s0 := streamAll(t, ts, submit(t, ts, body, "?shard=0/2").ID)
	s1 := streamAll(t, ts, submit(t, ts, body, "?shard=1/2").ID)

	var merged bytes.Buffer
	if err := sweep.Merge(&merged, bytes.NewReader(s0), bytes.NewReader(s1)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole, merged.Bytes()) {
		t.Fatal("merged shard streams differ from the unsharded stream")
	}
}

// TestAggregatesMatchOfflineRecompute: the /aggregates snapshot equals a
// byte-for-byte recomputation over the job's own JSONL stream — the
// acceptance gate's contract.
func TestAggregatesMatchOfflineRecompute(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	st := submit(t, ts, campaignSpecJSON(t), "")
	stream := streamAll(t, ts, st.ID)

	var offline agg.Campaign
	sc := bufio.NewScanner(bytes.NewReader(stream))
	n := 0
	for sc.Scan() {
		var rec campaign.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		offline.Add(rec)
		n++
	}
	want, err := json.Marshal(offline.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	var got struct {
		Records    uint64          `json:"records"`
		Aggregates json.RawMessage `json:"aggregates"`
	}
	getJSON(t, ts.URL+st.AggregatesURL, &got)
	if got.Records != uint64(n) {
		t.Fatalf("aggregates records = %d, want %d", got.Records, n)
	}
	if !bytes.Equal(bytes.TrimSpace(got.Aggregates), want) {
		t.Fatalf("online aggregates differ from offline recompute:\n  got  %s\n  want %s", got.Aggregates, want)
	}
}

// TestSubmitRejectsBadSpecs: malformed or invalid specs are 400s carrying
// field paths, never daemon deaths.
func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	post := func(body, query string) (int, errorBody) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/v1/jobs"+query, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, eb
	}

	if code, _ := post("{not json", ""); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", code)
	}

	bad := `{"version":1,"kind":"campaign","campaign":{` +
		`"scenarios":["warp-drive"],"protections":["unprotected"],"cores":[99],"backgrounds":["none"]}}`
	code, eb := post(bad, "")
	if code != http.StatusBadRequest || len(eb.Fields) == 0 {
		t.Fatalf("invalid spec: status %d, fields %v", code, eb.Fields)
	}
	paths := make([]string, len(eb.Fields))
	for i, f := range eb.Fields {
		paths[i] = f.Path
	}
	joined := strings.Join(paths, " ")
	for _, want := range []string{"campaign.scenarios[0]", "campaign.cores[0]"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("field paths %v missing %q", paths, want)
		}
	}

	good := string(campaignSpecJSON(t))
	for _, query := range []string{"?workers=zero", "?shard=5/2", "?mode=sideways"} {
		if code, _ := post(good, query); code != http.StatusBadRequest {
			t.Fatalf("query %s: status %d, want 400", query, code)
		}
	}
}

// TestStreamClaimsOnce: a job streams exactly once; a second claim is a
// 409 with the job's state.
func TestStreamClaimsOnce(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st := submit(t, ts, sweepSpecJSON(t), "")
	streamAll(t, ts, st.ID)
	resp, err := http.Get(ts.URL + st.StreamURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second stream claim: status %d, want 409", resp.StatusCode)
	}
}

// gatedWriter blocks the n-th write until released — a slow HTTP client
// reduced to its essence.
type gatedWriter struct {
	mu      sync.Mutex
	writes  int
	limit   int
	release chan struct{}
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.mu.Lock()
	n := g.writes
	g.writes++
	g.mu.Unlock()
	if n >= g.limit {
		<-g.release
	}
	return len(p), nil
}

// TestSlowConsumerBackpressure: when the sink stalls, the pipeline stops
// computing after at most the reorder window (2x workers) beyond what was
// emitted — bounded memory, no drops, and the stream completes intact
// once the sink drains.
func TestSlowConsumerBackpressure(t *testing.T) {
	const workers = 2
	s := New(Config{Workers: workers})
	defer s.Close()
	sp, err := spec.Parse(sweepSpecJSON(t))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sp.Sweep.Grid()
	if err != nil {
		t.Fatal(err)
	}
	const limit = 3
	gw := &gatedWriter{limit: limit, release: make(chan struct{})}
	j := &Job{id: "job-test", spec: sp, workers: workers, state: StateRunning, sweepGrid: grid}

	done := make(chan error, 1)
	go func() { done <- s.run(context.Background(), j, gw, nil) }()

	// Wait for the pipeline to stall against the gate: computed stops
	// growing at most limit + window beyond the emitted records.
	bound := uint64(limit + 2*workers)
	deadline := time.Now().Add(5 * time.Second)
	for {
		computed := s.recordsComputed.Load()
		if computed > bound {
			t.Fatalf("backpressure breached: %d records computed against a stalled sink (bound %d)", computed, bound)
		}
		if computed == bound || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Hold the stall a beat and re-check nothing leaked past the window.
	time.Sleep(50 * time.Millisecond)
	if computed := s.recordsComputed.Load(); computed > bound {
		t.Fatalf("stalled sink: computed %d > bound %d", computed, bound)
	}

	close(gw.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := s.recordsStreamed.Load(); got != uint64(len(grid)) {
		t.Fatalf("streamed %d records after release, want all %d (no drops)", got, len(grid))
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDisconnectCancelsWorkers: dropping the stream connection cancels the
// request context, shard workers drain, the job lands canceled, and no
// goroutines leak.
func TestDisconnectCancelsWorkers(t *testing.T) {
	t.Cleanup(faultpoint.Disarm)
	s, ts := newTestServer(t, Config{Workers: 2})
	baseline := runtime.NumGoroutine() + 3 // tolerate runtime/transport churn
	// The job's records fit in the socket buffers, and its 24 small runs
	// can all finish before the server sees the client go, landing the
	// job done. So the 24th shard attempt stalls until the job is
	// canceled. It comes after the first record: the pipeline dispatches
	// at most 2 x workers points ahead of the next record it streams.
	if err := faultpoint.Arm("server.shard=stall:1m@24"); err != nil {
		t.Fatal(err)
	}

	st := submit(t, ts, sweepSpecJSON(t), "?workers=2")
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+st.StreamURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one record to prove the stream is live, then vanish.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	waitFor(t, "job to land canceled", func() bool {
		var got Status
		getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID, &got)
		return got.State == StateCanceled
	})
	waitFor(t, "shard workers to drain", func() bool { return s.busy.Load() == 0 })
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, "goroutines to retire", func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestAggregateMode: mode=aggregate runs eagerly against a discarded
// sink; only the aggregates are observable, and the stream cannot be
// claimed.
func TestAggregateMode(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	st := submit(t, ts, campaignSpecJSON(t), "?mode=aggregate")

	waitFor(t, "detached job to finish", func() bool {
		var got Status
		getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID, &got)
		return got.State == StateDone
	})
	var aggs struct {
		Records    uint64 `json:"records"`
		Aggregates struct {
			Kind string `json:"kind"`
			Runs uint64 `json:"runs"`
		} `json:"aggregates"`
	}
	getJSON(t, ts.URL+st.AggregatesURL, &aggs)
	if aggs.Records != uint64(st.GridSize) || aggs.Aggregates.Runs != uint64(st.GridSize) {
		t.Fatalf("aggregate-mode job folded %d/%d records, want %d", aggs.Records, aggs.Aggregates.Runs, st.GridSize)
	}
	if aggs.Aggregates.Kind != "campaign" {
		t.Fatalf("aggregate kind = %q", aggs.Aggregates.Kind)
	}

	resp, err := http.Get(ts.URL + st.StreamURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stream claim on aggregate-mode job: status %d, want 409", resp.StatusCode)
	}
}

// TestHealthzAndMetrics: liveness plus the operational counters after a
// completed job.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	var health map[string]string
	getJSON(t, ts.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}

	st := submit(t, ts, sweepSpecJSON(t), "")
	streamAll(t, ts, st.ID)

	var m Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Jobs.Done != 1 {
		t.Fatalf("metrics jobs = %+v, want 1 done", m.Jobs)
	}
	if m.RecordsStreamed != uint64(st.GridSize) || m.RecordsComputed != uint64(st.GridSize) {
		t.Fatalf("metrics records = %d streamed / %d computed, want %d each",
			m.RecordsStreamed, m.RecordsComputed, st.GridSize)
	}
	if m.ShardsInFlight != 0 || m.Workers.Capacity != 2 || m.Workers.Utilization != 0 {
		t.Fatalf("idle metrics = %+v", m)
	}
}

// TestJobTableBound: MaxJobs rejects further submissions with 429.
func TestJobTableBound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxJobs: 2})
	body := sweepSpecJSON(t)
	submit(t, ts, body, "")
	submit(t, ts, body, "")
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit: status %d, want 429", resp.StatusCode)
	}
}

// TestJobTableEvictsFinished: a full table makes room by evicting its
// oldest finished job and that job's journal file, so a restart does not
// bring it back, and refuses a submit only while every retained job is
// still pending or running.
func TestJobTableEvictsFinished(t *testing.T) {
	dir := t.TempDir()
	jn, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, MaxJobs: 3, Journal: jn})
	body := sweepSpecJSON(t)
	var ids []string
	for i := 0; i < 5; i++ {
		id := submit(t, ts, body, "").ID
		streamAll(t, ts, id)
		ids = append(ids, id)
	}
	status := func(ts *httptest.Server, id string) int {
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i, id := range ids {
		want := http.StatusOK
		if i < 2 {
			want = http.StatusNotFound
		}
		if got := status(ts, id); got != want {
			t.Fatalf("job %s: status %d, want %d", id, got, want)
		}
	}
	logs, err := filepath.Glob(filepath.Join(dir, "*.jnl"))
	if err != nil || len(logs) != 3 {
		t.Fatalf("journal holds %d job files (%v), want 3", len(logs), err)
	}
	jn.Close()

	jn2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	life2, ts2 := newTestServer(t, Config{Workers: 1, MaxJobs: 3, Journal: jn2})
	if _, err := life2.Restore(); err != nil {
		t.Fatal(err)
	}
	var restored []Status
	getJSON(t, ts2.URL+"/api/v1/jobs", &restored)
	if len(restored) != 3 || restored[0].ID != ids[2] || restored[2].ID != ids[4] {
		t.Fatalf("restart restored %+v, want jobs %v", restored, ids[2:])
	}

	// Three pending jobs evict the three finished ones; a fourth finds
	// none finished.
	for i := 0; i < 3; i++ {
		submit(t, ts2, body, "")
	}
	resp, err := http.Post(ts2.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit to a table of three pending jobs: status %d, want 429", resp.StatusCode)
	}
}

// TestRestoreKeepsMaxJobs: a journal holding more jobs than MaxJobs
// restores the newest finished ones and every interrupted one, dropping
// the oldest finished jobs and their files.
func TestRestoreKeepsMaxJobs(t *testing.T) {
	dir := t.TempDir()
	jn, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Journal: jn})
	body := sweepSpecJSON(t)
	var ids []string
	for i := 0; i < 4; i++ {
		id := submit(t, ts, body, "").ID
		if i != 1 { // job 1 stays pending: interrupted, as far as the journal knows
			streamAll(t, ts, id)
		}
		ids = append(ids, id)
	}
	jn.Close()

	jn2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	life2, ts2 := newTestServer(t, Config{Workers: 1, MaxJobs: 2, Journal: jn2})
	if resumed, err := life2.Restore(); err != nil || resumed != 1 {
		t.Fatalf("Restore resumed %d jobs (%v), want 1", resumed, err)
	}
	var restored []Status
	getJSON(t, ts2.URL+"/api/v1/jobs", &restored)
	if len(restored) != 2 || restored[0].ID != ids[1] || restored[1].ID != ids[3] {
		t.Fatalf("restored %+v, want jobs %s and %s", restored, ids[1], ids[3])
	}
	if logs, _ := filepath.Glob(filepath.Join(dir, "*.jnl")); len(logs) != 2 {
		t.Fatalf("journal holds %d job files after Restore, want 2", len(logs))
	}
}

// TestUnknownJob: lookups of absent jobs are 404s on every job route.
func TestUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/api/v1/jobs/nope", "/api/v1/jobs/nope/stream", "/api/v1/jobs/nope/aggregates"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}
