package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

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

// recoveryRecords runs the four points of a recovery campaign shaped like
// perfbench's fleet-recovery jobs, whose records carry throughput windows:
// with 128 accesses, the workload's mean, they are 2.8-64 KB a line and
// about 33 KB on average.
func recoveryRecords(t testing.TB, accesses int) []any {
	t.Helper()
	camp, err := spec.NewCampaign(spec.CampaignSpec{
		Scenarios:   []string{"burst-flood", "zone-escape"},
		Protections: []string{"distributed"},
		Cores:       []int{3},
		Backgrounds: []string{"stream", "secure-scrub"},
		Accesses:    accesses,
		InjectDelay: 100,
		Recovery:    &spec.RecoverySpec{Enabled: true, Staged: true, ClearDelay: 1500},
	}).Campaign.Grid()
	if err != nil {
		t.Fatal(err)
	}
	var recs []any
	for i, cfg := range camp {
		r := campaign.RunOne(cfg)
		r.Index = i
		recs = append(recs, r)
	}
	return recs
}

// marshalLines marshals records into lines as a server streams them.
func marshalLines(t testing.TB, recs []any) [][]byte {
	t.Helper()
	var lines [][]byte
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	return lines
}

// recordLines returns real record lines as a server streams them: the
// four points of a recovery campaign (with throughput windows), the first
// points of a benign sweep, and a campaign record whose strings hold the
// characters json.Marshal escapes (<, >, &).
func recordLines(t *testing.T) [][]byte {
	t.Helper()
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
	recs := recoveryRecords(t, 96)
	for i, cfg := range swp {
		r := sweep.RunOne(cfg)
		r.Index = i
		recs = append(recs, r)
	}
	recs = append(recs, campaign.Record{Index: 9, Name: "<script>&amp;", Goal: "a > b && b < c"})
	lines := marshalLines(t, recs)
	if last := lines[len(lines)-1]; !bytes.Contains(last, []byte(`\u003cscript\u003e\u0026amp;`)) {
		t.Fatalf("escaped record marshals as %s; want json.Marshal's HTML escapes", last)
	}
	return lines
}

// TestAckLineIsTheMarshaledEntry: AckShard and AckValid, taking turns,
// splice the record into the entry verbatim, and the line each writes
// equals what json.Marshal of the entry (which re-encodes the record) plus
// a newline would have written, though the records shrink and grow from
// one ack to the next in the journal's reused buffer; Replay hands each
// record back byte for byte, and the term entry after them.
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
		ack := j.AckShard
		if i%2 == 1 {
			ack = j.AckValid
		}
		if err := ack("job-0001", i, line); err != nil {
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
	if err := j.Term("job-0001", "done", ""); err != nil {
		t.Fatal(err)
	}
	logs, err := Replay(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 1 || len(logs[0].Acks) != len(lines) || logs[0].State != "done" || logs[0].Discarded != 0 {
		t.Fatalf("replayed %+v, want one done job with %d acks", logs, len(lines))
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

// TestAckAllocatesNoRecord: once the journal's entry buffer has grown to
// the largest record, an ack allocates less than 1 KiB, whatever the size
// of its record — the records here are a fleet-recovery job's, 2.8-64 KB.
func TestAckAllocatesNoRecord(t *testing.T) {
	j := openT(t)
	if err := j.Accept("job-0001", []byte(`{}`), SubmitOpts{Mode: "stream"}); err != nil {
		t.Fatal(err)
	}
	lines := marshalLines(t, recoveryRecords(t, 128))
	for i, line := range lines {
		if err := j.AckShard("job-0001", i, line); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		for i, line := range lines {
			if err := j.AckShard("job-0001", i, line); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(rounds*len(lines)); per >= 1024 {
		t.Fatalf("an ack allocates %d B, want < 1 KiB", per)
	}
}

// TestConcurrentAcksKeepTheirBytes: the entry buffer the journal reuses is
// shared by every job's acks, so acks of records of different sizes from
// several goroutines at once must each land whole: every job's log replays
// every record it acked, byte for byte.
func TestConcurrentAcksKeepTheirBytes(t *testing.T) {
	j := openT(t)
	lines := marshalLines(t, recoveryRecords(t, 128))
	const jobs, rounds = 4, 4
	for g := 0; g < jobs; g++ {
		if err := j.Accept(fmt.Sprintf("job-%04d", g), []byte(`{}`), SubmitOpts{Mode: "stream"}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < jobs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds*len(lines); k++ {
				ack := j.AckShard
				if (g+k)%2 == 1 {
					ack = j.AckValid
				}
				if err := ack(fmt.Sprintf("job-%04d", g), k, lines[(g+k)%len(lines)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	logs, err := Replay(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != jobs {
		t.Fatalf("replayed %d jobs, want %d", len(logs), jobs)
	}
	for g, lg := range logs {
		if len(lg.Acks) != rounds*len(lines) || lg.Discarded != 0 {
			t.Fatalf("%s: %d acks, %d lines discarded; want %d and 0", lg.ID, len(lg.Acks), lg.Discarded, rounds*len(lines))
		}
		for k, ack := range lg.Acks {
			if ack.Index != k || !bytes.Equal(ack.Record, lines[(g+k)%len(lines)]) {
				t.Fatalf("%s ack %d: index %d, record intact %v", lg.ID, k, ack.Index, bytes.Equal(ack.Record, lines[(g+k)%len(lines)]))
			}
		}
	}
}

// BenchmarkAckShard times the journal-ack layer as an outside caller
// reaches it: one op acks one record of a fleet-recovery-shaped job
// (2.8-64 KB, about 33 KB on average), the job's four records in turn,
// checking it is valid JSON and fsyncing it. fsync-ns/op is the part of an
// op spent in fsync, read from the journal's own counter.
func BenchmarkAckShard(b *testing.B) { benchAck(b, (*Journal).AckShard) }

// BenchmarkAckValid is BenchmarkAckShard on the server's path, which acks
// records it has marshaled or decoded without checking them again.
func BenchmarkAckValid(b *testing.B) { benchAck(b, (*Journal).AckValid) }

func benchAck(b *testing.B, ack func(j *Journal, jobID string, index int, record []byte) error) {
	lines := marshalLines(b, recoveryRecords(b, 128))
	j, err := Open(b.TempDir(), Options{NowNanos: func() int64 { return time.Now().UnixNano() }})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	if err := j.Accept("job-0001", []byte(`{}`), SubmitOpts{Mode: "stream"}); err != nil {
		b.Fatal(err)
	}
	fsync0 := j.FsyncNanos()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if err := ack(j, "job-0001", i%len(lines), lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
	b.ReportMetric(float64(j.FsyncNanos()-fsync0)/float64(b.N), "fsync-ns/op")
}
