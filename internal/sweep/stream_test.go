package sweep_test

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// countingWriter records every Write call, to prove the stream is emitted
// incrementally rather than as one buffered report.
type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

func jsonl(t *testing.T, sh sweep.Shard, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sweep.WriteJSONL(&buf, smallGrid(), sh, workers); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestJSONLStreamsIncrementally(t *testing.T) {
	grid := smallGrid()
	var w countingWriter
	if err := sweep.WriteJSONL(&w, grid, sweep.Shard{}, 4); err != nil {
		t.Fatal(err)
	}
	if w.writes < len(grid) {
		t.Fatalf("report written in %d chunks for %d runs — not streaming", w.writes, len(grid))
	}
	lines := bytes.Split(bytes.TrimSpace(w.buf.Bytes()), []byte("\n"))
	if len(lines) != len(grid) {
		t.Fatalf("%d lines for %d runs", len(lines), len(grid))
	}
	for i, l := range lines {
		var r sweep.RunResult
		if err := json.Unmarshal(l, &r); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if r.Index != i {
			t.Fatalf("line %d carries index %d — not grid-ordered", i, r.Index)
		}
	}
}

func TestJSONLWorkerCountInvariant(t *testing.T) {
	serial := jsonl(t, sweep.Shard{}, 1)
	parallel := jsonl(t, sweep.Shard{}, 8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("JSONL differs across worker counts:\n%s\n---\n%s", serial, parallel)
	}
}

// TestShardMergeByteIdentical is the acceptance check for multi-process
// sweeps: shard 0/2 + shard 1/2, recombined by Merge, must be
// byte-identical to the unsharded stream.
func TestShardMergeByteIdentical(t *testing.T) {
	full := jsonl(t, sweep.Shard{}, 4)
	s0 := jsonl(t, sweep.Shard{Index: 0, Count: 2}, 2)
	s1 := jsonl(t, sweep.Shard{Index: 1, Count: 2}, 3)
	if bytes.Equal(s0, s1) {
		t.Fatal("shards produced identical streams — sharding is not partitioning")
	}
	var merged bytes.Buffer
	if err := sweep.Merge(&merged, bytes.NewReader(s1), bytes.NewReader(s0)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, merged.Bytes()) {
		t.Fatalf("merged shards differ from unsharded stream:\n%s\n---\n%s", full, merged.Bytes())
	}
}

func TestShardsPartitionTheGrid(t *testing.T) {
	grid := smallGrid()
	seen := map[int]int{}
	for i := 0; i < 3; i++ {
		sh := sweep.Shard{Index: i, Count: 3}
		// Shards slice cost-aware (protection-weighted), so ownership is
		// defined by Slice, not the round-robin Owns rule.
		owned := map[int]bool{}
		for _, idx := range sh.Slice(len(grid), sweep.Weights(grid)) {
			owned[idx] = true
		}
		if err := sweep.Each(grid, sh, 2, func(r sweep.RunResult) error {
			seen[r.Index]++
			if !owned[r.Index] {
				t.Fatalf("shard %s emitted foreign index %d", sh, r.Index)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != len(grid) {
		t.Fatalf("shards covered %d of %d grid points", len(seen), len(grid))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("grid point %d ran %d times", i, n)
		}
	}
}

// TestEmitErrorCancelsSweep: a failing sink must stop the sweep instead of
// simulating the rest of the grid into a dead writer.
func TestEmitErrorCancelsSweep(t *testing.T) {
	grid := smallGrid()
	sinkErr := errors.New("sink full")
	emitted := 0
	err := sweep.Each(grid, sweep.Shard{}, 2, func(r sweep.RunResult) error {
		emitted++
		if emitted == 2 {
			return sinkErr
		}
		return nil
	})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("Each returned %v, want the emit error", err)
	}
	if emitted != 2 {
		t.Fatalf("emit called %d times after cancellation, want 2", emitted)
	}
}

func TestMergeRejectsDuplicateIndices(t *testing.T) {
	s0 := jsonl(t, sweep.Shard{Index: 0, Count: 2}, 1)
	var out bytes.Buffer
	if err := sweep.Merge(&out, bytes.NewReader(s0), bytes.NewReader(s0)); err == nil {
		t.Fatal("overlapping shards merged without error")
	}
}

// TestMergeRejectsMissingShard: forgetting a shard file must be an error,
// not a silently incomplete dataset.
func TestMergeRejectsMissingShard(t *testing.T) {
	s0 := jsonl(t, sweep.Shard{Index: 0, Count: 2}, 1)
	s2 := jsonl(t, sweep.Shard{Index: 1, Count: 3}, 1) // starts at index 1
	var out bytes.Buffer
	if err := sweep.Merge(&out, bytes.NewReader(s0)); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("half-merge accepted (err=%v)", err)
	}
	out.Reset()
	if err := sweep.Merge(&out, bytes.NewReader(s2)); err == nil {
		t.Fatal("merge not starting at grid index 0 accepted")
	}
	// A single complete stream round-trips.
	full := jsonl(t, sweep.Shard{}, 2)
	out.Reset()
	if err := sweep.Merge(&out, bytes.NewReader(full)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), full) {
		t.Fatal("identity merge altered the stream")
	}
}

// lineGate is a shard stream that fails the test when it is read before
// the merge has written anything.
type lineGate struct {
	t   *testing.T
	out *bytes.Buffer
	r   io.Reader
}

func (g *lineGate) Read(p []byte) (int, error) {
	if g.out.Len() == 0 {
		g.t.Error("shard 1 read before line 0 reached the writer")
	}
	return g.r.Read(p)
}

// TestMergeWritesEarly: Merge writes a line as soon as it holds the next
// grid index. Line 0 must not wait on a shard that cannot supply it — on
// a coordinator that shard is a backend still computing a slower point.
func TestMergeWritesEarly(t *testing.T) {
	var out bytes.Buffer
	s0 := strings.NewReader("{\"index\":0}\n{\"index\":2}\n")
	s1 := &lineGate{t: t, out: &out, r: strings.NewReader("{\"index\":1}\n")}
	if err := sweep.Merge(&out, s0, s1); err != nil {
		t.Fatal(err)
	}
	if want := "{\"index\":0}\n{\"index\":1}\n{\"index\":2}\n"; out.String() != want {
		t.Fatalf("merged %q, want %q", out.String(), want)
	}
}

// TestMergeRejectsForeignLines: a line without an integer grid index as its
// first key, or that is not valid JSON to its end (a torn line), is
// rejected rather than passed on.
func TestMergeRejectsForeignLines(t *testing.T) {
	for _, line := range []string{
		`{"name":"no-index"}`,
		`{"name":"index-later","index":0}`,
		`{"index":"0"}`,
		`{"index":0.5}`,
		`[0]`,
		`{"index":0,"name":"torn`,
		`{"index":0} {}`,
	} {
		var out bytes.Buffer
		err := sweep.Merge(&out, strings.NewReader(line+"\n"))
		if err == nil || !strings.Contains(err.Error(), "without a grid index") {
			t.Errorf("line %s: Merge = %v, want a missing-index error", line, err)
		}
	}
	var out bytes.Buffer
	if err := sweep.Merge(&out, strings.NewReader(` { "index" : 0 , "name":"spaced"}`+"\n")); err != nil {
		t.Fatalf("a valid line with white space around its index rejected: %v", err)
	}
}

func TestParseShard(t *testing.T) {
	good := map[string]sweep.Shard{
		"":    {},
		"0/1": {Index: 0, Count: 1},
		"2/4": {Index: 2, Count: 4},
	}
	for in, want := range good {
		sh, err := sweep.ParseShard(in)
		if err != nil || sh != want {
			t.Fatalf("ParseShard(%q) = %+v, %v; want %+v", in, sh, err, want)
		}
	}
	for _, in := range []string{"x", "1", "2/2", "3/2", "-1/2", "0/0", "1/x", "1/2garbage", "0/2,1/2", "1/2/4"} {
		if _, err := sweep.ParseShard(in); err == nil {
			t.Fatalf("ParseShard(%q) accepted", in)
		}
	}
}

func TestCSVCoversCoresAndFirewalls(t *testing.T) {
	grid := smallGrid()
	var w countingWriter
	if err := sweep.WriteCSV(&w, grid, sweep.Shard{}, 4); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(w.buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 || strings.Join(rows[0], ",") != strings.Join(sweep.CSVHeader, ",") {
		t.Fatalf("bad CSV header: %v", rows[0])
	}
	col := map[string]int{}
	for i, name := range rows[0] {
		col[name] = i
	}
	for _, want := range []string{"scope", "entity", "kind", "instructions", "checked", "blocked", "check_cycles", "local_ops"} {
		if _, ok := col[want]; !ok {
			t.Fatalf("CSV header missing %q", want)
		}
	}
	scopes := map[string]int{}
	for _, row := range rows[1:] {
		scopes[row[col["scope"]]]++
	}
	runs, cores, fws := scopes["run"], scopes["core"], scopes["firewall"]
	if runs != len(grid) {
		t.Fatalf("%d run rows for %d grid points", runs, len(grid))
	}
	if cores == 0 || fws == 0 {
		t.Fatalf("missing breakdown rows: %d core, %d firewall", cores, fws)
	}
	// CSV must be deterministic too.
	var again bytes.Buffer
	if err := sweep.WriteCSV(&again, grid, sweep.Shard{}, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.buf.Bytes(), again.Bytes()) {
		t.Fatal("CSV differs across worker counts")
	}
}
