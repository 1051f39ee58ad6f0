package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/faultpoint"
	"repro/internal/spec"
	"repro/internal/sweep"
)

func openT(t *testing.T) *Journal {
	t.Helper()
	var fakeNow int64
	j, err := Open(t.TempDir(), Options{NowNanos: func() int64 { fakeNow += 1000; return fakeNow }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(j.Close)
	return j
}

func TestRoundTrip(t *testing.T) {
	j := openT(t)
	spec := []byte(`{"version":1,"campaign":{}}`)
	opts := SubmitOpts{Workers: 4, Shard: "0/1", Mode: "stream"}
	if err := j.Accept("job-0001", spec, opts); err != nil {
		t.Fatal(err)
	}
	if err := j.AckShard("job-0001", 0, []byte(`{"index":0}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.AckShard("job-0001", 2, []byte(`{"index":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Term("job-0001", "done", ""); err != nil {
		t.Fatal(err)
	}
	if j.Appends() != 4 {
		t.Fatalf("appends = %d, want 4", j.Appends())
	}
	if j.FsyncNanos() == 0 {
		t.Fatal("fsync latency not accumulated with NowNanos set")
	}

	logs, err := Replay(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 1 {
		t.Fatalf("replayed %d jobs, want 1", len(logs))
	}
	lg := logs[0]
	if lg.ID != "job-0001" || lg.State != "done" || lg.ErrMsg != "" || lg.Discarded != 0 {
		t.Fatalf("bad log: %+v", lg)
	}
	if !bytes.Equal(lg.Spec, spec) || lg.Opts != opts {
		t.Fatalf("spec/opts did not round-trip: %s %+v", lg.Spec, lg.Opts)
	}
	if len(lg.Acks) != 2 || lg.Acks[0].Index != 0 || lg.Acks[1].Index != 2 ||
		string(lg.Acks[1].Record) != `{"index":2}` {
		t.Fatalf("acks did not round-trip: %+v", lg.Acks)
	}
}

// TestReplayOrdersIDsAsIssued: ids outgrow their zero padding after
// job-9999, and Replay still returns the jobs in the order they were
// issued, which Restore keeps and evicts by.
func TestReplayOrdersIDsAsIssued(t *testing.T) {
	j := openT(t)
	ids := []string{"job-0002", "job-0999", "job-9999", "job-10000", "job-10001", "job-100000"}
	for _, id := range []string{"job-10001", "job-0999", "job-100000", "job-9999", "job-0002", "job-10000"} {
		if err := j.Accept(id, []byte(`{"version":1}`), SubmitOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	logs, err := Replay(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, lg := range logs {
		got = append(got, lg.ID)
	}
	if fmt.Sprint(got) != fmt.Sprint(ids) {
		t.Fatalf("Replay order %v, want %v", got, ids)
	}
}

func TestReplayMissingDirIsEmpty(t *testing.T) {
	logs, err := Replay(filepath.Join(t.TempDir(), "nope"))
	if err != nil || logs != nil {
		t.Fatalf("Replay(missing) = %v, %v", logs, err)
	}
}

// corrupt appends raw bytes to a job's log, simulating a torn append.
func corrupt(t *testing.T, j *Journal, jobID string, raw string) {
	t.Helper()
	f, err := os.OpenFile(j.path(jobID), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(raw); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedTailLineDiscarded(t *testing.T) {
	j := openT(t)
	if err := j.Accept("job-0001", []byte(`{}`), SubmitOpts{Mode: "stream"}); err != nil {
		t.Fatal(err)
	}
	if err := j.AckShard("job-0001", 0, []byte(`{"index":0}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// A crash mid-append leaves a torn, newline-less tail.
	corrupt(t, j, "job-0001", `{"op":"ack","job":"job-0`)

	logs, err := Replay(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 1 || logs[0].State != "" {
		t.Fatalf("bad replay: %+v", logs)
	}
	if len(logs[0].Acks) != 1 || logs[0].Discarded != 1 {
		t.Fatalf("acks=%d discarded=%d, want 1/1", len(logs[0].Acks), logs[0].Discarded)
	}
}

func TestGarbageTailDiscardsRest(t *testing.T) {
	j := openT(t)
	if err := j.Accept("job-0001", []byte(`{}`), SubmitOpts{Mode: "stream"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Garbage followed by a decodable line: the log cannot vouch for
	// anything after the tear, so both go.
	corrupt(t, j, "job-0001", "\x00\x01garbage\n{\"op\":\"ack\",\"job\":\"job-0001\",\"index\":0,\"record\":{}}\n")

	logs, err := Replay(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 1 || len(logs[0].Acks) != 0 || logs[0].Discarded != 2 {
		t.Fatalf("bad replay: %+v", logs)
	}
}

func TestDoubleAckIdempotent(t *testing.T) {
	j := openT(t)
	if err := j.Accept("job-0001", []byte(`{}`), SubmitOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := j.AckShard("job-0001", 3, []byte(`{"index":3,"v":"first"}`)); err != nil {
		t.Fatal(err)
	}
	// A crash between the ack fsync and the caller's next step makes the
	// restarted daemon re-ack the same shard: the first entry wins.
	if err := j.AckShard("job-0001", 3, []byte(`{"index":3,"v":"second"}`)); err != nil {
		t.Fatal(err)
	}
	logs, err := Replay(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(logs[0].Acks) != 1 || string(logs[0].Acks[0].Record) != `{"index":3,"v":"first"}` {
		t.Fatalf("double ack not idempotent: %+v", logs[0].Acks)
	}
}

func TestAcksAfterTerminalIgnored(t *testing.T) {
	j := openT(t)
	if err := j.Accept("job-0001", []byte(`{}`), SubmitOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := j.Term("job-0001", "failed", "boom"); err != nil {
		t.Fatal(err)
	}
	if err := j.AckShard("job-0001", 0, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	logs, err := Replay(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	lg := logs[0]
	if lg.State != "failed" || lg.ErrMsg != "boom" || len(lg.Acks) != 0 {
		t.Fatalf("terminal replay wrong: %+v", lg)
	}
}

func TestFileWithoutAcceptYieldsNoJob(t *testing.T) {
	j := openT(t)
	if err := os.WriteFile(j.path("job-0009"), []byte("{\"op\":\"ack\",\"job\":\"job-0009\",\"index\":0,\"record\":{}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	logs, err := Replay(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 0 {
		t.Fatalf("job without durable accept replayed: %+v", logs)
	}
}

func TestFaultpointInjectsAppendError(t *testing.T) {
	t.Cleanup(faultpoint.Disarm)
	j := openT(t)
	if err := faultpoint.Arm("journal.append=error:disk gone"); err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("job-0001", []byte(`{}`), SubmitOpts{}); err == nil {
		t.Fatal("injected append error not surfaced")
	}
	faultpoint.Disarm()
	if err := j.Accept("job-0001", []byte(`{}`), SubmitOpts{}); err != nil {
		t.Fatal(err)
	}
}

func TestObserveHookFiresPerCommittedAppend(t *testing.T) {
	var fakeNow int64
	var calls []string
	j, err := Open(t.TempDir(), Options{
		NowNanos: func() int64 { fakeNow += 1000; return fakeNow },
		Observe: func(op, jobID string, startNanos, durNanos int64) {
			calls = append(calls, fmt.Sprintf("%s:%s:%d", op, jobID, durNanos))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(j.Close)
	if err := j.Accept("job-0001", []byte(`{"version":1}`), SubmitOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := j.AckShard("job-0001", 0, []byte(`{"index":0}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Term("job-0001", "done", ""); err != nil {
		t.Fatal(err)
	}
	// Each append reads the clock twice around the fsync, so every
	// observed duration is exactly one tick.
	want := []string{"accept:job-0001:1000", "ack:job-0001:1000", "term:job-0001:1000"}
	if len(calls) != len(want) {
		t.Fatalf("observe calls = %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("observe call %d = %q, want %q", i, calls[i], want[i])
		}
	}
}

func TestObserveNotCalledOnRefusedAppend(t *testing.T) {
	t.Cleanup(faultpoint.Disarm)
	calls := 0
	j, err := Open(t.TempDir(), Options{
		Observe: func(op, jobID string, startNanos, durNanos int64) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(j.Close)
	faultpoint.Arm("journal.append=error:disk gone")
	if err := j.Accept("job-0001", []byte(`{}`), SubmitOpts{}); err == nil {
		t.Fatal("expected injected append error")
	}
	if calls != 0 {
		t.Fatalf("Observe fired %d times on a refused append, want 0", calls)
	}
}

// recordLines returns real record lines as a server streams them: the
// four points of a recovery campaign (with throughput windows), the first
// points of a benign sweep, and a campaign record whose strings hold the
// characters json.Marshal escapes (<, >, &).
func recordLines(t *testing.T) [][]byte {
	t.Helper()
	camp, err := spec.NewCampaign(spec.CampaignSpec{
		Scenarios:   []string{"burst-flood", "zone-escape"},
		Protections: []string{"distributed"},
		Cores:       []int{3},
		Backgrounds: []string{"stream", "secure-scrub"},
		Accesses:    96,
		InjectDelay: 100,
		Recovery:    &spec.RecoverySpec{Enabled: true, Staged: true, ClearDelay: 1500},
	}).Campaign.Grid()
	if err != nil {
		t.Fatal(err)
	}
	swp, err := spec.NewSweep(spec.SweepSpec{
		Protections: []string{"unprotected", "distributed", "centralized"},
		Workloads:   []string{"stream"},
		Targets:     []string{"internal", "external"},
		Cores:       []int{2},
		Accesses:    8,
		MaxCycles:   100_000,
	}).Sweep.Grid()
	if err != nil {
		t.Fatal(err)
	}
	var recs []any
	for i, cfg := range camp {
		r := campaign.RunOne(cfg)
		r.Index = i
		recs = append(recs, r)
	}
	for i, cfg := range swp {
		r := sweep.RunOne(cfg)
		r.Index = i
		recs = append(recs, r)
	}
	recs = append(recs, campaign.Record{Index: 9, Name: "<script>&amp;", Goal: "a > b && b < c"})
	var lines [][]byte
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	if last := lines[len(lines)-1]; !bytes.Contains(last, []byte(`\u003cscript\u003e\u0026amp;`)) {
		t.Fatalf("escaped record marshals as %s; want json.Marshal's HTML escapes", last)
	}
	return lines
}

// TestAckLineIsTheMarshaledEntry: AckShard splices the record into the
// entry verbatim, and the line it writes equals what json.Marshal of the
// entry (which re-encodes the record) plus a newline would have written;
// Replay hands each record back byte for byte.
func TestAckLineIsTheMarshaledEntry(t *testing.T) {
	j := openT(t)
	if err := j.Accept("job-0001", []byte(`{"version":1}`), SubmitOpts{Mode: "stream"}); err != nil {
		t.Fatal(err)
	}
	lines := recordLines(t)
	var windows int
	for i, line := range lines {
		before, err := os.ReadFile(j.path("job-0001"))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.AckShard("job-0001", i, line); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(j.path("job-0001"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(entry{Op: "ack", Job: "job-0001", Index: &i, Record: json.RawMessage(line)})
		if err != nil {
			t.Fatal(err)
		}
		if got := after[len(before):]; !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("ack %d writes\n%.200s\nwant\n%.200s", i, got, want)
		}
		if bytes.Contains(line, []byte(`"windows":[{`)) {
			windows++
		}
	}
	if windows == 0 {
		t.Fatal("no record carries throughput windows; the recovery records are vacuous")
	}
	logs, err := Replay(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 1 || len(logs[0].Acks) != len(lines) {
		t.Fatalf("replayed %+v, want one job with %d acks", logs, len(lines))
	}
	for i, ack := range logs[0].Acks {
		if ack.Index != i || !bytes.Equal(ack.Record, lines[i]) {
			t.Fatalf("ack %d replays as index %d, record byte-identical %v", i, ack.Index, bytes.Equal(ack.Record, lines[i]))
		}
	}
}

// TestAckShardRefusesInvalidRecord: a record that is not valid JSON is
// refused before anything is written — the log and the append count stay
// as they were.
func TestAckShardRefusesInvalidRecord(t *testing.T) {
	j := openT(t)
	if err := j.Accept("job-0001", []byte(`{}`), SubmitOpts{Mode: "stream"}); err != nil {
		t.Fatal(err)
	}
	if err := j.AckShard("job-0001", 0, []byte(`{"index":0}`)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(j.path("job-0001"))
	if err != nil {
		t.Fatal(err)
	}
	appends := j.Appends()
	for _, bad := range []string{``, `{"index":1`, `{"index":1}}`, `{"index":1,}`, "not json"} {
		if err := j.AckShard("job-0001", 1, []byte(bad)); err == nil {
			t.Fatalf("AckShard accepted %q", bad)
		}
		after, err := os.ReadFile(j.path("job-0001"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) || j.Appends() != appends {
			t.Fatalf("refused ack %q changed the log (%d -> %d bytes) or the appends (%d -> %d)",
				bad, len(before), len(after), appends, j.Appends())
		}
	}
}
