package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/spec"
)

// tracedCampaignSpecJSON is a 2-run campaign with the recovery phase
// armed, so traces carry the full incident lifecycle.
func tracedCampaignSpecJSON(t *testing.T) []byte {
	t.Helper()
	data, err := spec.NewCampaign(spec.CampaignSpec{
		Scenarios:   []string{"burst-flood"},
		Protections: []string{"unprotected", "distributed"},
		Cores:       []int{3},
		Backgrounds: []string{"stream"},
		Accesses:    64,
		InjectDelay: 100,
		MaxCycles:   500_000,
		Recovery:    &spec.RecoverySpec{Enabled: true, ClearDelay: 1500, Staged: true},
	}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDashboardGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Fatalf("content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != dashboardHTML {
		t.Fatal("dashboard body is not the dashboardHTML constant")
	}
	// The page must keep driving the public API surface.
	for _, want := range []string{
		`fetch("/metrics")`, `fetch("/api/v1/jobs")`, "/aggregates", "EventSource",
		`id="jobs"`, `id="detail"`, "<svg", "</html>",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("dashboard lacks %q", want)
		}
	}
	// Unknown non-API paths must stay 404, not swallowed by the root route.
	resp2, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope: status %d, want 404", resp2.StatusCode)
	}
}

// promGolden is the exact exposition of a fresh 4-worker server. Pinning
// bytes (not just shape) keeps names, HELP text and sample order stable
// for scrapers.
const promGolden = `# HELP mpsocd_jobs Jobs in the table by lifecycle state.
# TYPE mpsocd_jobs gauge
mpsocd_jobs{state="pending"} 0
mpsocd_jobs{state="running"} 0
mpsocd_jobs{state="done"} 0
mpsocd_jobs{state="failed"} 0
mpsocd_jobs{state="canceled"} 0
# HELP mpsocd_shards_in_flight Grid points executing right now (held worker-pool slots).
# TYPE mpsocd_shards_in_flight gauge
mpsocd_shards_in_flight 0
# HELP mpsocd_records_computed_total Finished simulation runs.
# TYPE mpsocd_records_computed_total counter
mpsocd_records_computed_total 0
# HELP mpsocd_records_streamed_total Records written to connected clients.
# TYPE mpsocd_records_streamed_total counter
mpsocd_records_streamed_total 0
# HELP mpsocd_worker_capacity Global worker-pool size.
# TYPE mpsocd_worker_capacity gauge
mpsocd_worker_capacity 4
# HELP mpsocd_workers_busy Worker-pool slots held.
# TYPE mpsocd_workers_busy gauge
mpsocd_workers_busy 0
# HELP mpsocd_worker_utilization Busy workers over capacity.
# TYPE mpsocd_worker_utilization gauge
mpsocd_worker_utilization 0
# HELP mpsocd_sse_subscribers Connected /events subscribers.
# TYPE mpsocd_sse_subscribers gauge
mpsocd_sse_subscribers 0
# HELP mpsocd_sse_dropped_total Events dropped by the bounded SSE fan-out.
# TYPE mpsocd_sse_dropped_total counter
mpsocd_sse_dropped_total 0
# HELP mpsocd_trace_events_emitted_total Trace events emitted across traced jobs.
# TYPE mpsocd_trace_events_emitted_total counter
mpsocd_trace_events_emitted_total 0
# HELP mpsocd_trace_events_dropped_total Trace events lost to per-run buffer bounds.
# TYPE mpsocd_trace_events_dropped_total counter
mpsocd_trace_events_dropped_total 0
# HELP mpsocd_shard_retries_total Shard attempts retried after a failure.
# TYPE mpsocd_shard_retries_total counter
mpsocd_shard_retries_total 0
# HELP mpsocd_shards_poisoned_total Shards emitted as error records after exhausting retries.
# TYPE mpsocd_shards_poisoned_total counter
mpsocd_shards_poisoned_total 0
# HELP mpsocd_journal_appends_total Journal entries committed (written and fsync'd).
# TYPE mpsocd_journal_appends_total counter
mpsocd_journal_appends_total 0
# HELP mpsocd_journal_fsync_nanos_total Cumulative journal fsync time in nanoseconds.
# TYPE mpsocd_journal_fsync_nanos_total counter
mpsocd_journal_fsync_nanos_total 0
# HELP mpsocd_journal_jobs_resumed_total Jobs resumed from the journal after a restart.
# TYPE mpsocd_journal_jobs_resumed_total counter
mpsocd_journal_jobs_resumed_total 0
# HELP mpsocd_journal_records_resumed_total Records replayed verbatim from journal acks.
# TYPE mpsocd_journal_records_resumed_total counter
mpsocd_journal_records_resumed_total 0
# HELP mpsocd_journal_lines_discarded_total Torn journal tail lines discarded during replay.
# TYPE mpsocd_journal_lines_discarded_total counter
mpsocd_journal_lines_discarded_total 0
# HELP mpsocd_coordinator_dispatches_total Shard streams dispatched to fleet backends.
# TYPE mpsocd_coordinator_dispatches_total counter
mpsocd_coordinator_dispatches_total 0
# HELP mpsocd_coordinator_retries_total Coordinator dispatch retries.
# TYPE mpsocd_coordinator_retries_total counter
mpsocd_coordinator_retries_total 0
# HELP mpsocd_coordinator_failovers_total Shards re-dispatched away from dead or draining backends.
# TYPE mpsocd_coordinator_failovers_total counter
mpsocd_coordinator_failovers_total 0
# HELP mpsocd_host_exec_nanos_total Wall-clock nanoseconds executing shards (zero with host observability off).
# TYPE mpsocd_host_exec_nanos_total counter
mpsocd_host_exec_nanos_total 0
# HELP mpsocd_host_allocs_total Heap objects allocated during shard execution (zero with host observability off).
# TYPE mpsocd_host_allocs_total counter
mpsocd_host_allocs_total 0
# HELP mpsocd_host_bytes_streamed_total Record bytes streamed to clients (zero with host observability off).
# TYPE mpsocd_host_bytes_streamed_total counter
mpsocd_host_bytes_streamed_total 0
# HELP mpsocd_build_info Build identity: constant 1 with the VCS revision and dirty flag as labels.
# TYPE mpsocd_build_info gauge
mpsocd_build_info{revision="unknown",dirty="false"} 1
`

func TestMetricsPrometheusGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	get := func(path string, accept string) (string, string) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics?format=prometheus", "")
	if ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content-type = %q", ct)
	}
	if body != promGolden {
		t.Fatalf("prometheus exposition drifted:\n got:\n%s\nwant:\n%s", body, promGolden)
	}
	// A scraper's Accept header selects the same rendering without the
	// query parameter; the bare default stays JSON.
	if body2, _ := get("/metrics", "text/plain"); body2 != promGolden {
		t.Fatal("Accept: text/plain did not select the prometheus rendering")
	}
	if body3, ct3 := get("/metrics", ""); ct3 != "application/json" || !strings.HasPrefix(body3, "{") {
		t.Fatalf("default /metrics is not JSON (content-type %q)", ct3)
	}
}

// numericLeaves counts the numeric fields of a struct type, recursing
// into nested structs — the size of the metrics registry.
func numericLeaves(t reflect.Type) int {
	n := 0
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i).Type
		switch f.Kind() {
		case reflect.Struct:
			n += numericLeaves(f)
		case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64:
			n++
		}
	}
	return n
}

// TestPrometheusCoversEveryMetric is the anti-drift gate: every numeric
// leaf of the Metrics registry must appear as exactly one Prometheus
// sample, so adding a JSON metric without a Prometheus rendering (or vice
// versa) fails here.
func TestPrometheusCoversEveryMetric(t *testing.T) {
	var buf bytes.Buffer
	Metrics{}.Prometheus(&buf)
	samples := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			samples++
		}
	}
	leaves := numericLeaves(reflect.TypeOf(Metrics{}))
	if samples != leaves {
		t.Fatalf("prometheus samples = %d, Metrics numeric leaves = %d — the renderings drifted",
			samples, leaves)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	event string
	data  []byte
}

// readSSE parses a server-sent event stream until EOF.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(line[len("data: "):])
		case line == "":
			if cur.event != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEventsSnapshotCadence subscribes before the stream starts and
// checks the feed delivers the replay, the running transition, a partial
// snapshot every SnapshotEvery records, the terminal snapshot and state —
// then ends the stream.
func TestEventsSnapshotCadence(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, SnapshotEvery: 2})
	st := submit(t, ts, campaignSpecJSON(t), "") // 8 runs

	resp, err := http.Get(ts.URL + st.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}

	streamAll(t, ts, st.ID)
	events := readSSE(t, resp.Body) // returns at EOF, i.e. after terminal fan-out

	var states []string
	snapshots := 0
	var lastSnap Aggregates
	for _, e := range events {
		switch e.event {
		case "state":
			var s Status
			if err := json.Unmarshal(e.data, &s); err != nil {
				t.Fatalf("bad state payload: %v", err)
			}
			states = append(states, s.State)
		case "snapshot":
			snapshots++
			if err := json.Unmarshal(e.data, &lastSnap); err != nil {
				t.Fatalf("bad snapshot payload: %v", err)
			}
		}
	}
	if want := []string{StatePending, StateRunning, StateDone}; !reflect.DeepEqual(states, want) {
		t.Fatalf("state sequence = %v, want %v", states, want)
	}
	// Replay + one per 2 records (8 runs) + terminal = 6.
	if snapshots != 6 {
		t.Fatalf("snapshots = %d, want 6", snapshots)
	}
	if lastSnap.Records != 8 || lastSnap.State != StateDone {
		t.Fatalf("final snapshot = %+v", lastSnap)
	}
}

// TestEventsTerminalReplay: subscribing to a finished job replays the
// terminal state and final snapshot, then the stream ends immediately —
// no subscription is registered.
func TestEventsTerminalReplay(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	st := submit(t, ts, sweepSpecJSON(t), "")
	streamAll(t, ts, st.ID)

	resp, err := http.Get(ts.URL + st.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body)
	if len(events) != 2 || events[0].event != "state" || events[1].event != "snapshot" {
		t.Fatalf("terminal replay = %+v", events)
	}
	var got Status
	if err := json.Unmarshal(events[0].data, &got); err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("replayed state = %q", got.State)
	}
	if n := s.sseSubs.Load(); n != 0 {
		t.Fatalf("sseSubs = %d after terminal replay", n)
	}
}

// TestPublishLockedDrops pins the non-blocking send: a full subscriber
// channel drops the message, counts it, and the call returns.
func TestPublishLockedDrops(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	j := &Job{id: "job-test", state: StateRunning}
	sub := &subscriber{id: 1, ch: make(chan sseMsg, 1)}
	j.subs = append(j.subs, sub)

	j.mu.Lock()
	s.publishLocked(j, "snapshot", []byte("a")) // fills the channel
	s.publishLocked(j, "snapshot", []byte("b")) // must drop, not block
	j.mu.Unlock()

	if got := s.sseDropped.Load(); got != 1 {
		t.Fatalf("sseDropped = %d, want 1", got)
	}
	if m := <-sub.ch; string(m.data) != "a" {
		t.Fatalf("retained message = %q, want the first", m.data)
	}
}

// TestFinishDeliversTerminalEventsToFullSubscriber: a subscriber whose
// buffer is already full still receives the terminal snapshot and state
// (older messages are dropped and counted instead), so its /events
// stream always ends on the job's final state.
func TestFinishDeliversTerminalEventsToFullSubscriber(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	st := submit(t, ts, campaignSpecJSON(t), "")
	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	sub := &subscriber{id: 1, ch: make(chan sseMsg, 2)}
	j.mu.Lock()
	j.subs = append(j.subs, sub)
	s.publishLocked(j, "retry", []byte("a"))
	s.publishLocked(j, "retry", []byte("b")) // the buffer is now full
	j.mu.Unlock()

	s.finish(j, context.Background(), nil)

	var got []string
	for m := range sub.ch {
		got = append(got, m.event)
	}
	if len(got) != 2 || got[0] != "snapshot" || got[1] != "state" {
		t.Fatalf("subscriber received %v, want [snapshot state]", got)
	}
	if n := s.sseDropped.Load(); n != 2 {
		t.Fatalf("sseDropped = %d, want 2", n)
	}
}

// TestSlowEventsSubscriberDoesNotStallJob leaves an /events subscriber
// completely unread while a job streams to completion under a 1-record
// snapshot cadence; the job must finish regardless.
func TestSlowEventsSubscriberDoesNotStallJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, SnapshotEvery: 1})
	st := submit(t, ts, sweepSpecJSON(t), "") // 24 runs -> 24+ messages > sseBuf

	resp, err := http.Get(ts.URL + st.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() // never read: the subscriber is as slow as possible

	streamAll(t, ts, st.ID) // returns only if the job ran to completion
	var got Status
	getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID, &got)
	if got.State != StateDone {
		t.Fatalf("job state = %q, want done", got.State)
	}
}

// TestEventsDisconnectUnsubscribes drops the /events connection and waits
// for the server to remove the subscriber.
func TestEventsDisconnectUnsubscribes(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	st := submit(t, ts, campaignSpecJSON(t), "")

	req, err := http.NewRequest(http.MethodGet, ts.URL+st.EventsURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Wait until the subscription is registered (the job is pending, so it
	// stays registered until we disconnect).
	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	waitFor(t, "subscriber registered", func() bool {
		j.mu.Lock()
		defer j.mu.Unlock()
		return len(j.subs) == 1
	})

	cancel()
	waitFor(t, "subscriber removed after disconnect", func() bool {
		j.mu.Lock()
		defer j.mu.Unlock()
		return len(j.subs) == 0
	})
	waitFor(t, "sseSubs back to 0", func() bool { return s.sseSubs.Load() == 0 })
}

// TestJobTrace submits a traced campaign, streams it, and checks the
// trace endpoint serves a Chrome trace_event document covering the
// incident lifecycle.
func TestJobTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st := submit(t, ts, tracedCampaignSpecJSON(t), "?trace=4096")
	if st.TraceURL == "" {
		t.Fatal("traced job status lacks trace_url")
	}
	streamAll(t, ts, st.ID)

	resp, err := http.Get(ts.URL + st.TraceURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
		OtherData struct {
			Emitted uint64 `json:"emitted"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 || doc.OtherData.Emitted == 0 {
		t.Fatalf("empty trace document: %d events, %d emitted", len(doc.TraceEvents), doc.OtherData.Emitted)
	}
	pids := map[int]bool{}
	quarantines := 0
	for _, e := range doc.TraceEvents {
		pids[e.Pid] = true
		if e.Name == "quarantine" {
			quarantines++
		}
	}
	if len(pids) != 2 {
		t.Fatalf("trace covers %d processes, want 2 (one per run)", len(pids))
	}
	if quarantines == 0 {
		t.Fatal("no quarantine events in a recovery-armed burst-flood trace")
	}

	var m Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Trace.EventsEmitted == 0 {
		t.Fatalf("trace_events_emitted metric still 0: %+v", m.Trace)
	}
}

// TestTraceValidation covers the submit- and fetch-side rejections.
func TestTraceValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	// trace=N on a sweep is a 400: sweeps have no incident timeline.
	resp, err := http.Post(ts.URL+"/api/v1/jobs?trace=64", "application/json",
		bytes.NewReader(sweepSpecJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace on sweep: status %d, want 400", resp.StatusCode)
	}

	// trace=N on a coordinator is a 400: it runs no simulation, so it has
	// no per-run traces to serve.
	_, coordTS := newTestServer(t, Config{Workers: 2, Backends: []string{ts.URL}})
	resp, err = http.Post(coordTS.URL+"/api/v1/jobs?trace=64", "application/json",
		bytes.NewReader(campaignSpecJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace on a coordinator: status %d, want 400", resp.StatusCode)
	}

	// A bad limit is a 400.
	resp, err = http.Post(ts.URL+"/api/v1/jobs?trace=zero", "application/json",
		bytes.NewReader(campaignSpecJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace=zero: status %d, want 400", resp.StatusCode)
	}

	// The trace endpoint on an untraced job is a 404.
	st := submit(t, ts, campaignSpecJSON(t), "")
	if st.TraceURL != "" {
		t.Fatalf("untraced job advertises trace_url %q", st.TraceURL)
	}
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace on untraced job: status %d, want 404", resp.StatusCode)
	}
}
