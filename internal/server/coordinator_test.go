package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/faultpoint"
	"repro/internal/journal"
	"repro/internal/sweep"
)

// newFleet builds a coordinator over n real backend servers.
func newFleet(t *testing.T, n int, cfg Config) (*Server, *httptest.Server, []*Server, []*httptest.Server) {
	t.Helper()
	var backends []*Server
	var backendTS []*httptest.Server
	for i := 0; i < n; i++ {
		s, ts := newTestServer(t, Config{Workers: 2})
		backends = append(backends, s)
		backendTS = append(backendTS, ts)
		cfg.Backends = append(cfg.Backends, ts.URL)
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	coord, coordTS := newTestServer(t, cfg)
	return coord, coordTS, backends, backendTS
}

// TestRecordsLeadWithIndex: the coordinator's merge reads a backend line's
// grid index from its first key alone (sweep.Merge), so both record types
// it merges must marshal their index first.
func TestRecordsLeadWithIndex(t *testing.T) {
	for _, rec := range []any{sweep.RunResult{Index: 7, Name: "n"}, campaign.Record{Index: 7, Name: "n"}} {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(line, []byte(`{"index":7,`)) {
			t.Fatalf("%T marshals as %.60s..., want the index first", rec, line)
		}
	}
}

// fleetSpecs are the jobs the coordinator tests fan out: a plain attack
// campaign, a recovery campaign whose records carry throughput windows and
// the recovery fields, and a benign sweep — every record type the
// coordinator decodes and folds.
func fleetSpecs(t *testing.T) []namedSpec {
	return []namedSpec{
		{"campaign", campaignSpecJSON(t)},
		{"recovery-campaign", recoveryCampaignSpecJSON(t)},
		{"sweep", sweepSpecJSON(t)},
	}
}

// TestFleetMergesByteIdentically is the coordinator's core contract: a
// spec fanned across two backends streams the exact bytes a single-node
// run produces, and the coordinator's aggregates match too.
func TestFleetMergesByteIdentically(t *testing.T) {
	for _, tc := range fleetSpecs(t) {
		t.Run(tc.name, func(t *testing.T) {
			_, single := newTestServer(t, Config{Workers: 2})
			sid := submit(t, single, tc.body, "").ID
			want := streamAll(t, single, sid)
			if tc.name == "recovery-campaign" {
				requireRecoveryLifecycle(t, want)
			}
			var wantAgg json.RawMessage
			getJSON(t, single.URL+"/api/v1/jobs/"+sid+"/aggregates", &wantAgg)

			coord, coordTS, _, _ := newFleet(t, 2, Config{})
			st := submit(t, coordTS, tc.body, "")
			got := streamAll(t, coordTS, st.ID)
			if !bytes.Equal(got, want) {
				t.Fatal("fleet-merged stream differs from single-node run")
			}
			var gotAgg json.RawMessage
			getJSON(t, coordTS.URL+"/api/v1/jobs/"+st.ID+"/aggregates", &gotAgg)
			if !bytes.Equal(gotAgg, wantAgg) {
				t.Fatalf("fleet aggregates differ:\n got %s\nwant %s", gotAgg, wantAgg)
			}
			m := coord.metricsSnapshot()
			if m.Coordinator.Dispatches != 2 || m.Coordinator.Failovers != 0 {
				t.Fatalf("dispatches=%d failovers=%d, want 2/0", m.Coordinator.Dispatches, m.Coordinator.Failovers)
			}
			if m.RecordsComputed != 0 {
				t.Fatal("coordinator claims to have computed records itself")
			}
		})
	}
}

// TestFleetSkipsDrainingBackend: a draining backend answers /healthz with
// 503 and must receive no shards.
func TestFleetSkipsDrainingBackend(t *testing.T) {
	_, single := newTestServer(t, Config{Workers: 2})
	want := streamAll(t, single, submit(t, single, sweepSpecJSON(t), "").ID)

	coord, coordTS, backends, _ := newFleet(t, 2, Config{})
	backends[1].BeginDrain()
	st := submit(t, coordTS, sweepSpecJSON(t), "")
	got := streamAll(t, coordTS, st.ID)
	if !bytes.Equal(got, want) {
		t.Fatal("stream with a draining backend differs from single-node run")
	}
	if n := backends[1].metricsSnapshot().RecordsComputed; n != 0 {
		t.Fatalf("draining backend computed %d records", n)
	}
	if d := coord.metricsSnapshot().Coordinator.Dispatches; d != 1 {
		t.Fatalf("dispatches = %d, want 1 (everything on the healthy backend)", d)
	}
}

// TestFleetNoHealthyBackendsFailsJob: with every backend down the job
// fails cleanly instead of hanging.
func TestFleetNoHealthyBackendsFailsJob(t *testing.T) {
	_, coordTS, _, backendTS := newFleet(t, 1, Config{})
	backendTS[0].Close()
	st := submit(t, coordTS, sweepSpecJSON(t), "")
	resp, err := http.Get(coordTS.URL + st.StreamURL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	var got Status
	getJSON(t, coordTS.URL+"/api/v1/jobs/"+st.ID, &got)
	if got.State != StateFailed || !strings.Contains(got.Error, "healthy") {
		t.Fatalf("job = %s (%q), want failed with no-healthy-backends error", got.State, got.Error)
	}
}

// flakyBackend proxies one real backend but tears the connection after
// forwarding half of each stream — a backend that dies mid-job.
type flakyBackend struct {
	mu      sync.Mutex
	target  string
	client  *http.Client
	tripped bool // tear at most once, so the retried dispatch can finish
}

func (f *flakyBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/healthz":
		w.Write([]byte(`{"status":"ok"}`))
	case r.Method == http.MethodPost:
		body, _ := io.ReadAll(r.Body)
		resp, err := f.client.Post(f.target+r.URL.Path+"?"+r.URL.RawQuery, "application/json", bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	default: // stream GET: forward half, then die
		resp, err := f.client.Get(f.target + r.URL.Path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		full, _ := io.ReadAll(resp.Body)
		f.mu.Lock()
		trip := !f.tripped
		f.tripped = true
		f.mu.Unlock()
		if !trip {
			w.Write(full)
			return
		}
		w.Write(full[:len(full)/2])
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		panic(http.ErrAbortHandler) // tear the connection: no terminal chunk
	}
}

// TestFleetFailoverSurvivesBackendDeath is the headline robustness claim:
// a backend dying mid-stream costs nothing but a re-dispatch — the merged
// output is still byte-identical to a single-node run, because the
// replacement stream is fast-forwarded past the consumed bytes.
func TestFleetFailoverSurvivesBackendDeath(t *testing.T) {
	_, single := newTestServer(t, Config{Workers: 2})
	want := streamAll(t, single, submit(t, single, campaignSpecJSON(t), "").ID)

	_, realTS := newTestServer(t, Config{Workers: 2})
	flaky := httptest.NewServer(&flakyBackend{target: realTS.URL, client: realTS.Client()})
	t.Cleanup(flaky.Close)

	coord, coordTS, _, _ := newFleet(t, 0, Config{Backends: []string{flaky.URL, realTS.URL}})
	st := submit(t, coordTS, campaignSpecJSON(t), "")
	got := streamAll(t, coordTS, st.ID)
	if !bytes.Equal(got, want) {
		t.Fatal("failover stream differs from single-node run")
	}
	m := coord.metricsSnapshot()
	if m.Coordinator.Failovers == 0 {
		t.Fatal("no failover recorded — the flaky backend never tripped, test is vacuous")
	}
}

// TestFleetDispatchFaultpointRotates: an injected dispatch error on the
// first attempt rotates to the next backend and counts a retry.
func TestFleetDispatchFaultpointRotates(t *testing.T) {
	t.Cleanup(faultpoint.Disarm)
	_, single := newTestServer(t, Config{Workers: 2})
	want := streamAll(t, single, submit(t, single, sweepSpecJSON(t), "").ID)

	coord, coordTS, _, _ := newFleet(t, 2, Config{})
	if err := faultpoint.Arm("coord.dispatch=error:injected@1"); err != nil {
		t.Fatal(err)
	}
	st := submit(t, coordTS, sweepSpecJSON(t), "")
	got := streamAll(t, coordTS, st.ID)
	if !bytes.Equal(got, want) {
		t.Fatal("stream after dispatch retry differs")
	}
	m := coord.metricsSnapshot()
	if m.Coordinator.Retries != 1 || m.Coordinator.Dispatches != 2 {
		t.Fatalf("retries=%d dispatches=%d, want 1/2", m.Coordinator.Retries, m.Coordinator.Dispatches)
	}
}

// TestJournaledCoordinator pins the path of a coordinator with a journal:
// a job merged over two backends streams the single-node bytes, a second
// GET replays the archive byte-identically, the journal holds one ack per
// grid point (the merged line itself) and a done term, and after a
// restart Restore serves the same archive and aggregates.
func TestJournaledCoordinator(t *testing.T) {
	for _, tc := range fleetSpecs(t) {
		t.Run(tc.name, func(t *testing.T) { testJournaledCoordinator(t, tc.body) })
	}
}

func testJournaledCoordinator(t *testing.T, body []byte) {
	_, single := newTestServer(t, Config{Workers: 2})
	sid := submit(t, single, body, "").ID
	want := streamAll(t, single, sid)
	var wantAgg json.RawMessage
	getJSON(t, single.URL+"/api/v1/jobs/"+sid+"/aggregates", &wantAgg)

	dir := t.TempDir()
	jn, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coord, coordTS, _, _ := newFleet(t, 2, Config{Journal: jn})
	st := submit(t, coordTS, body, "")
	if got := streamAll(t, coordTS, st.ID); !bytes.Equal(got, want) {
		t.Fatal("journaled coordinator stream differs from single-node run")
	}
	if again := streamAll(t, coordTS, st.ID); !bytes.Equal(again, want) {
		t.Fatal("coordinator archive replay differs")
	}
	var gotAgg json.RawMessage
	getJSON(t, coordTS.URL+"/api/v1/jobs/"+st.ID+"/aggregates", &gotAgg)
	if !bytes.Equal(gotAgg, wantAgg) {
		t.Fatalf("coordinator aggregates differ:\n got %s\nwant %s", gotAgg, wantAgg)
	}
	// accept + one ack per grid point + term: no point acked twice.
	if n := jn.Appends(); n != uint64(st.GridSize)+2 {
		t.Fatalf("journal appends = %d, want %d", n, st.GridSize+2)
	}
	jn.Close()

	logs, err := journal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 1 || logs[0].ID != st.ID || logs[0].State != StateDone {
		t.Fatalf("journal logs = %+v, want one done job %s", logs, st.ID)
	}
	lines := bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n"))
	if len(logs[0].Acks) != len(lines) {
		t.Fatalf("%d acks, want %d", len(logs[0].Acks), len(lines))
	}
	for i, ack := range logs[0].Acks {
		if ack.Index != i || !bytes.Equal(ack.Record, lines[i]) {
			t.Fatalf("ack %d: index %d, record is the merged line: %v", i, ack.Index, bytes.Equal(ack.Record, lines[i]))
		}
	}

	jn2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(jn2.Close)
	life2, ts2 := newTestServer(t, Config{Workers: 2, Journal: jn2, Backends: coord.Backends()})
	if resumed, err := life2.Restore(); err != nil || resumed != 0 {
		t.Fatalf("Restore: resumed %d, err %v; want 0 (the job was done)", resumed, err)
	}
	if got := streamAll(t, ts2, st.ID); !bytes.Equal(got, want) {
		t.Fatal("restored coordinator archive differs")
	}
	getJSON(t, ts2.URL+"/api/v1/jobs/"+st.ID+"/aggregates", &gotAgg)
	if !bytes.Equal(gotAgg, wantAgg) {
		t.Fatalf("restored coordinator aggregates differ:\n got %s\nwant %s", gotAgg, wantAgg)
	}
}
