package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/journal"
)

func TestBackoffDeterministicAndBounded(t *testing.T) {
	base, cap := 25*time.Millisecond, time.Second
	for attempt := 1; attempt <= 8; attempt++ {
		d1 := Backoff("job-0001", 3, attempt, base, cap)
		d2 := Backoff("job-0001", 3, attempt, base, cap)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", attempt, d1, d2)
		}
		if d1 < base/2 || d1 > cap {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d1, base/2, cap)
		}
	}
	// Different shards of the same job spread out (the fleet-thundering-herd
	// property). Equal values are astronomically unlikely with FNV-1a.
	if Backoff("job-0001", 0, 1, base, cap) == Backoff("job-0001", 1, 1, base, cap) {
		t.Fatal("jitter does not vary by shard index")
	}
}

func TestHealthzDrainsLivezStays(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	code, body := probe(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz before drain: %d %s", code, body)
	}
	s.BeginDrain()
	code, body = probe(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("healthz during drain: %d %s, want 503 draining", code, body)
	}
	code, body = probe(t, ts.URL+"/livez")
	if code != http.StatusOK || !strings.Contains(body, "alive") {
		t.Fatalf("livez during drain: %d %s, want 200 alive", code, body)
	}
	// A submit during the drain is refused and creates no job: this is
	// how a fleet coordinator learns to move the shard on.
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(sweepSpecJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %d, want 503", resp.StatusCode)
	}
	if m := s.metricsSnapshot().Jobs; m != (Metrics{}).Jobs {
		t.Fatalf("submit during drain created a job: %+v", m)
	}
}

func probe(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestRetryRecoversByteIdentically injects one transient shard failure and
// checks the retried stream is byte-identical to an unfaulted run — the
// whole point of retrying deterministic work.
func TestRetryRecoversByteIdentically(t *testing.T) {
	t.Cleanup(faultpoint.Disarm)
	_, clean := newTestServer(t, Config{Workers: 1})
	want := streamAll(t, clean, submit(t, clean, sweepSpecJSON(t), "").ID)

	var mu sync.Mutex
	var slept []time.Duration
	s, ts := newTestServer(t, Config{Workers: 1, Sleep: func(d time.Duration) {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
	}})
	// Third attempt overall = shard index 2, first attempt: fails once.
	if err := faultpoint.Arm("server.shard=error:transient@3"); err != nil {
		t.Fatal(err)
	}
	got := streamAll(t, ts, submit(t, ts, sweepSpecJSON(t), "").ID)
	if !bytes.Equal(got, want) {
		t.Fatal("retried stream differs from unfaulted stream")
	}
	m := s.metricsSnapshot()
	if m.Shards.Retries != 1 || m.Shards.Poisoned != 0 {
		t.Fatalf("retries=%d poisoned=%d, want 1/0", m.Shards.Retries, m.Shards.Poisoned)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slept) != 1 || slept[0] != Backoff("job-0001", 2, 1, DefaultRetryBase, DefaultRetryCap) {
		t.Fatalf("backoff sleeps = %v, want the deterministic schedule", slept)
	}
}

// TestPoisonedShardDoesNotFailJob arms a permanent shard failure: every
// shard exhausts its retries and is emitted as an error record, but the
// job itself completes and the stream stays gap-free.
func TestPoisonedShardDoesNotFailJob(t *testing.T) {
	t.Cleanup(faultpoint.Disarm)
	s, ts := newTestServer(t, Config{Workers: 2, RetryMax: 2, Sleep: func(time.Duration) {}})
	if err := faultpoint.Arm("server.shard=error:disk on fire"); err != nil {
		t.Fatal(err)
	}
	st := submit(t, ts, campaignSpecJSON(t), "")
	body := streamAll(t, ts, st.ID)
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != st.GridSize {
		t.Fatalf("streamed %d lines, want %d (poisoned shards must hold their slots)", len(lines), st.GridSize)
	}
	for i, line := range lines {
		var rec struct {
			Index int    `json:"index"`
			Err   string `json:"error"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Index != i || !strings.Contains(rec.Err, "shard poisoned") {
			t.Fatalf("line %d: index=%d error=%q", i, rec.Index, rec.Err)
		}
	}
	var got Status
	getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID, &got)
	if got.State != StateDone {
		t.Fatalf("job state = %s, want done (poisoning never fails the job)", got.State)
	}
	m := s.metricsSnapshot()
	if m.Shards.Poisoned != uint64(st.GridSize) || m.Shards.Retries != uint64(st.GridSize) {
		t.Fatalf("poisoned=%d retries=%d, want %d/%d", m.Shards.Poisoned, m.Shards.Retries, st.GridSize, st.GridSize)
	}
}

// TestJournalRejectionRefusesJob: a journal that cannot commit the accept
// entry must refuse the submission — the client may never hold a job id
// the journal would forget.
func TestJournalRejectionRefusesJob(t *testing.T) {
	t.Cleanup(faultpoint.Disarm)
	jn, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(jn.Close)
	_, ts := newTestServer(t, Config{Workers: 1, Journal: jn})
	if err := faultpoint.Arm("journal.append=error:disk gone"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(sweepSpecJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with dead journal: status %d, want 503", resp.StatusCode)
	}
	var jobs []Status
	getJSON(t, ts.URL+"/api/v1/jobs", &jobs)
	if len(jobs) != 0 {
		t.Fatalf("refused job left in table: %+v", jobs)
	}
}

// interruptAfter is a sink that cancels the run's context once n lines have
// been written — an in-process stand-in for the process dying mid-stream.
type interruptAfter struct {
	buf    bytes.Buffer
	lines  int
	cancel context.CancelFunc
}

func (w *interruptAfter) Write(p []byte) (int, error) {
	n, _ := w.buf.Write(p)
	if w.lines -= bytes.Count(p, []byte("\n")); w.lines <= 0 {
		w.cancel()
	}
	return n, nil
}

// TestCrashResumeByteIdentity is the tentpole contract in miniature: a
// journaled job interrupted mid-stream is rebuilt by Restore on a fresh
// server over the same journal, re-emits the acked records verbatim,
// recomputes only the rest, and the resumed full stream plus the final
// aggregates are byte-identical to an uninterrupted run.
func TestCrashResumeByteIdentity(t *testing.T) {
	_, clean := newTestServer(t, Config{Workers: 2})
	cleanID := submit(t, clean, campaignSpecJSON(t), "").ID
	want := streamAll(t, clean, cleanID)
	var wantAgg json.RawMessage
	getJSON(t, clean.URL+"/api/v1/jobs/"+cleanID+"/aggregates", &wantAgg)

	dir := t.TempDir()
	jn, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	life1, ts1 := newTestServer(t, Config{Workers: 2, Journal: jn})
	st := submit(t, ts1, campaignSpecJSON(t), "")

	// Run the stream in-process with a sink that cancels after 3 records,
	// with the drain flag set — exactly the state a killed daemon leaves:
	// some shards acked, no terminal entry.
	life1.mu.Lock()
	j := life1.jobs[st.ID]
	life1.mu.Unlock()
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &interruptAfter{lines: 3, cancel: cancel}
	life1.BeginDrain()
	runErr := life1.run(ctx, j, sink, nil)
	if runErr == nil {
		t.Fatal("interrupted run reported success")
	}
	life1.finish(j, ctx, runErr)
	if got := j.status().State; got != StateCanceled {
		t.Fatalf("interrupted job state = %s", got)
	}
	jn.Close()

	// Second life: a fresh server over the same journal directory.
	jn2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	life2, ts2 := newTestServer(t, Config{Workers: 2, Journal: jn2})
	resumed, err := life2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d jobs, want 1", resumed)
	}
	var restored Status
	getJSON(t, ts2.URL+"/api/v1/jobs/"+st.ID, &restored)
	if restored.State != StatePending {
		t.Fatalf("restored job state = %s, want pending", restored.State)
	}

	got := streamAll(t, ts2, st.ID)
	if !bytes.Equal(got, want) {
		t.Fatal("resumed stream is not byte-identical to the uninterrupted run")
	}
	m := life2.metricsSnapshot()
	if m.Journal.JobsResumed != 1 || m.Journal.RecordsResumed == 0 {
		t.Fatalf("jobs_resumed=%d records_resumed=%d", m.Journal.JobsResumed, m.Journal.RecordsResumed)
	}
	if m.Journal.RecordsResumed >= uint64(st.GridSize) {
		t.Fatalf("records_resumed=%d: nothing was left to recompute, the interruption was vacuous", m.Journal.RecordsResumed)
	}
	var gotAgg json.RawMessage
	getJSON(t, ts2.URL+"/api/v1/jobs/"+st.ID+"/aggregates", &gotAgg)
	if !bytes.Equal(gotAgg, wantAgg) {
		t.Fatalf("resumed aggregates differ:\n got %s\nwant %s", gotAgg, wantAgg)
	}

	// Done journaled jobs re-stream from the archive, byte-identically.
	if again := streamAll(t, ts2, st.ID); !bytes.Equal(again, want) {
		t.Fatal("archive re-stream differs")
	}
}

// TestRestartRestoresTerminalJob: a job that finished before the restart
// comes back queryable — state, aggregates, archive stream and SSE all
// serve from the journal-rebuilt table.
func TestRestartRestoresTerminalJob(t *testing.T) {
	dir := t.TempDir()
	jn, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Config{Workers: 2, Journal: jn})
	st := submit(t, ts1, sweepSpecJSON(t), "")
	want := streamAll(t, ts1, st.ID)
	var wantAgg json.RawMessage
	getJSON(t, ts1.URL+"/api/v1/jobs/"+st.ID+"/aggregates", &wantAgg)
	jn.Close()

	jn2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	life2, ts2 := newTestServer(t, Config{Workers: 2, Journal: jn2})
	resumed, err := life2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("resumed %d jobs, want 0 (job was terminal)", resumed)
	}
	var restored Status
	getJSON(t, ts2.URL+"/api/v1/jobs/"+st.ID, &restored)
	if restored.State != StateDone || restored.Records != uint64(st.GridSize) {
		t.Fatalf("restored status = %+v", restored)
	}
	var gotAgg json.RawMessage
	getJSON(t, ts2.URL+"/api/v1/jobs/"+st.ID+"/aggregates", &gotAgg)
	if !bytes.Equal(gotAgg, wantAgg) {
		t.Fatal("restored aggregates differ")
	}
	if got := streamAll(t, ts2, st.ID); !bytes.Equal(got, want) {
		t.Fatal("restored archive stream differs")
	}

	// An SSE client reconnecting after the restart sees the terminal state
	// immediately and the stream ends (terminal replay, then EOF).
	resp, err := http.Get(ts2.URL + "/api/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body)
	if len(events) < 2 || events[0].event != "state" {
		t.Fatalf("SSE after restart: %+v", events)
	}
	var sseState Status
	if err := json.Unmarshal(events[0].data, &sseState); err != nil {
		t.Fatal(err)
	}
	if sseState.State != StateDone {
		t.Fatalf("SSE replayed state = %s, want done", sseState.State)
	}
}

// TestRestoreSkipsFreshIDCollisions: ids handed out after a restart must
// not collide with journal-restored jobs.
func TestRestoreFreshIDsDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	jn, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Config{Workers: 1, Journal: jn})
	st := submit(t, ts1, sweepSpecJSON(t), "")
	streamAll(t, ts1, st.ID)
	jn.Close()

	jn2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	life2, ts2 := newTestServer(t, Config{Workers: 1, Journal: jn2})
	if _, err := life2.Restore(); err != nil {
		t.Fatal(err)
	}
	st2 := submit(t, ts2, sweepSpecJSON(t), "")
	if st2.ID == st.ID {
		t.Fatalf("fresh job reused restored id %s", st.ID)
	}
}

// TestArchiveReplayConcurrent: several clients re-streaming one done
// journaled job at once each read the byte-identical stream. Archived
// lines are shared by every replay, so a replay must never write into
// them — the race detector (make race) pins that.
func TestArchiveReplayConcurrent(t *testing.T) {
	jn, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(jn.Close)
	_, ts := newTestServer(t, Config{Workers: 2, Journal: jn})
	st := submit(t, ts, campaignSpecJSON(t), "")
	want := streamAll(t, ts, st.ID)

	const clients, rounds = 4, 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				resp, err := http.Get(ts.URL + st.StreamURL)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
					t.Errorf("re-stream: status %d, err %v, byte-identical %v", resp.StatusCode, err, bytes.Equal(got, want))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRestoreRefusesAcksOutOfGridOrder: a job's journaled acks must be its
// grid points in stream order — a prefix of its shard's slice, and all of
// it for a done job. Journals written entry by entry that break this fail
// Restore, naming the job and the first offending index; an honest prefix
// still restores.
func TestRestoreRefusesAcksOutOfGridOrder(t *testing.T) {
	body := sweepSpecJSON(t)
	_, lines := jobLines(t, body) // line i holds grid index i
	n := len(lines)
	upTo := func(k int, more ...int) []int {
		idx := make([]int, 0, k+len(more))
		for i := 0; i < k; i++ {
			idx = append(idx, i)
		}
		return append(idx, more...)
	}
	swapped := upTo(2, 3, 2)
	swapped = append(swapped, upTo(n)[4:]...)
	for _, tc := range []struct {
		name    string
		acks    []int
		state   string // "" leaves the job interrupted
		wantErr string // "" means Restore succeeds
	}{
		{"index out of range", upTo(2, 99), StateFailed, "ack 2 is grid index 99, want 2"},
		{"ack past the grid", upTo(n, 99), StateDone, "ack 24 is grid index 99, past the 24 points"},
		{"swapped pair", swapped, StateDone, "ack 2 is grid index 3, want 2"},
		{"swapped pair, interrupted", upTo(2, 3, 2), "", "ack 2 is grid index 3, want 2"},
		{"done without its last ack", upTo(n - 1), StateDone, "done after 23 of 24 acks: grid index 23 was never acked"},
		{"failed after a prefix", upTo(3), StateFailed, ""},
		{"interrupted after a prefix", upTo(3), "", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			jn, err := journal.Open(dir, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := jn.Accept("job-0001", body, journal.SubmitOpts{Workers: 2, Shard: "0/1", Mode: "stream"}); err != nil {
				t.Fatal(err)
			}
			for _, idx := range tc.acks {
				if err := jn.AckShard("job-0001", idx, lines[min(idx, n-1)]); err != nil {
					t.Fatal(err)
				}
			}
			if tc.state != "" {
				if err := jn.Term("job-0001", tc.state, ""); err != nil {
					t.Fatal(err)
				}
			}
			jn.Close()

			jn2, err := journal.Open(dir, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(jn2.Close)
			s, _ := newTestServer(t, Config{Workers: 2, Journal: jn2})
			_, err = s.Restore()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Restore refused an honest journal: %v", err)
				}
				if got := s.jobs["job-0001"]; got == nil || (tc.state != "" && got.records != uint64(len(tc.acks))) {
					t.Fatalf("restored job = %+v, want %d records", got, len(tc.acks))
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "restore job-0001: ") || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Restore error = %v, want one naming job-0001 and %q", err, tc.wantErr)
			}
		})
	}
}

// TestRestoreShardedDoneJob: a done job that ran one shard of a partition
// acked that shard's cost-balanced slice — grid points 1, 4 and 6 of the
// campaign for shard 1/3, where a count-balanced split would give 1, 4
// and 7 — and comes back with its archive and aggregates.
func TestRestoreShardedDoneJob(t *testing.T) {
	dir := t.TempDir()
	jn, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Config{Workers: 2, Journal: jn})
	st := submit(t, ts1, campaignSpecJSON(t), "?shard=1/3")
	want := streamAll(t, ts1, st.ID)
	var wantAgg json.RawMessage
	getJSON(t, ts1.URL+"/api/v1/jobs/"+st.ID+"/aggregates", &wantAgg)
	jn.Close()
	if lines := bytes.Count(want, []byte("\n")); lines != 3 {
		t.Fatalf("shard 1/3 streamed %d of %d points, want 3", lines, st.GridSize)
	}

	jn2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(jn2.Close)
	life2, ts2 := newTestServer(t, Config{Workers: 2, Journal: jn2})
	if _, err := life2.Restore(); err != nil {
		t.Fatal(err)
	}
	if got := streamAll(t, ts2, st.ID); !bytes.Equal(got, want) {
		t.Fatal("restored shard archive differs")
	}
	var gotAgg json.RawMessage
	getJSON(t, ts2.URL+"/api/v1/jobs/"+st.ID+"/aggregates", &gotAgg)
	if !bytes.Equal(gotAgg, wantAgg) {
		t.Fatalf("restored shard aggregates differ:\n got %s\nwant %s", gotAgg, wantAgg)
	}
}
