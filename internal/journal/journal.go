// Package journal is the campaign service's durable job log: an
// append-only, fsync-on-commit record of every accepted job, every
// completed shard, and every terminal state, from which mpsocd rebuilds
// its job table after a crash and resumes interrupted jobs by
// re-dispatching only the shards that never committed.
//
// Each job owns one JSONL file (<job-id>.jnl) in the journal directory.
// Three entry kinds appear, always in this shape:
//
//	{"op":"accept","job":"job-0001","spec":{...},"workers":4,"shard":"0/1","mode":"stream"}
//	{"op":"ack","job":"job-0001","index":3,"record":{...}}   // one per completed shard, in emission order
//	{"op":"term","job":"job-0001","state":"done"}
//
// Every append is written and fsync'd before the caller proceeds, so the
// journal never claims work that might not have happened. The converse —
// work that happened but was never journaled — is exactly what resume
// re-runs, which is safe because runs are deterministic: re-dispatching an
// unacked shard reproduces the identical record bytes.
//
// Replay is tolerant by design: a process killed mid-append leaves a
// truncated (or otherwise undecodable) tail line, and Replay discards that
// line and anything after it rather than failing — the classic
// write-ahead-log recovery rule. Discarded lines are counted so operators
// can see that a tail was dropped. Acks are idempotent on replay (a crash
// between the ack write and the next step can produce a duplicate on the
// next life; the first wins) and acks after a terminal entry are ignored.
package journal

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/faultpoint"
)

// Options parameterize a Journal.
type Options struct {
	// NowNanos, when non-nil, times each fsync for the journal latency
	// metrics. It is injected (cmd/mpsocd passes the wall clock; tests
	// pass a counter) so the deterministic stack itself never reads the
	// host clock — nothing journaled ever depends on it.
	NowNanos func() int64
	// Observe, when non-nil, receives one callback per committed append:
	// the entry op ("accept", "ack", "term"), the job id, and the fsync
	// start/duration in NowNanos's domain. It lets the daemon turn
	// journal commits into host spans and structured logs without this
	// package importing an observability layer; it is called outside the
	// journal lock, after the entry is durable.
	Observe func(op, jobID string, startNanos, durNanos int64)
}

// Journal is one journal directory. Methods are safe for concurrent use.
type Journal struct {
	dir string
	opt Options

	appends    atomic.Uint64
	fsyncNanos atomic.Uint64

	mu    sync.Mutex
	files []openFile // open per-job logs, closed at Term; a slice, not a map, so iteration order is deterministic and the lint stays clean
	line  []byte     // the entry line being appended, reused from one append to the next
}

// openFile is one open per-job log. A slice with linear scan: the open set
// is bounded by live jobs, and a slice keeps every walk deterministic.
type openFile struct {
	id string
	f  *os.File
}

// SubmitOpts are the job's submit-time options, persisted with the accept
// entry so a restart rebuilds the job exactly as it was created. Trace
// buffers are in-memory only and do not survive a restart, so the trace
// limit is deliberately not persisted.
type SubmitOpts struct {
	Workers int    `json:"workers"`
	Shard   string `json:"shard"`
	Mode    string `json:"mode"`
}

// entry is one journal line.
type entry struct {
	Op      string          `json:"op"`
	Job     string          `json:"job"`
	Spec    json.RawMessage `json:"spec,omitempty"`
	Workers int             `json:"workers,omitempty"`
	Shard   string          `json:"shard,omitempty"`
	Mode    string          `json:"mode,omitempty"`
	Index   *int            `json:"index,omitempty"`
	Record  json.RawMessage `json:"record,omitempty"`
	State   string          `json:"state,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// Ack is one committed shard: its global grid index and the exact record
// line it streamed (no trailing newline).
type Ack struct {
	Index  int
	Record []byte
}

// JobLog is one job reconstructed by Replay.
type JobLog struct {
	ID   string
	Spec []byte
	Opts SubmitOpts
	// Acks holds the committed shards in emission (= journal) order, first
	// occurrence winning on duplicates.
	Acks []Ack
	// State is the terminal state, or "" if the job was interrupted and
	// should resume.
	State string
	// ErrMsg is the terminal error, if any.
	ErrMsg string
	// Discarded counts undecodable tail lines dropped during replay.
	Discarded int
}

// Open creates the directory if needed and returns a Journal over it.
func Open(dir string, opt Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{dir: dir, opt: opt}, nil
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Appends reports committed appends; FsyncNanos the cumulative fsync time
// (zero unless Options.NowNanos was provided). Together they are the
// journal latency metric: mean fsync cost = FsyncNanos / Appends.
func (j *Journal) Appends() uint64    { return j.appends.Load() }
func (j *Journal) FsyncNanos() uint64 { return j.fsyncNanos.Load() }

// Accept journals a newly created job: its raw spec body plus submit
// options. It is the first entry of the job's log; the file is created
// here and the directory entry fsync'd so the log itself is durable.
func (j *Journal) Accept(jobID string, spec []byte, opts SubmitOpts) error {
	if err := j.commit(entry{
		Op: "accept", Job: jobID, Spec: json.RawMessage(spec),
		Workers: opts.Workers, Shard: opts.Shard, Mode: opts.Mode,
	}); err != nil {
		return err
	}
	return j.syncDir()
}

// AckShard journals one completed shard: the grid index and the exact
// JSONL record line (without newline) it contributed to the stream. A
// record that is not valid JSON is refused before anything is written;
// then the record is acked as by AckValid.
func (j *Journal) AckShard(jobID string, index int, record []byte) error {
	if !json.Valid(record) {
		return fmt.Errorf("journal: ack %d of %s: record is not valid JSON", index, jobID)
	}
	return j.AckValid(jobID, index, record)
}

// AckValid is AckShard for a record its caller has already found to be
// valid JSON — one it marshaled, or one it decoded — so the record is not
// scanned again. The record's bytes go into the entry verbatim: a record
// line marshaled by encoding/json is already compact and escaped, so the
// entry equals the one json.Marshal would write. The entry is assembled
// in a buffer the journal reuses, so an ack allocates nothing the size of
// its record. The armed faultpoint "journal.ack" fires after the entry is
// durable — the worst possible crash instant, since the very next step
// would have used it.
func (j *Journal) AckValid(jobID string, index int, record []byte) error {
	head, err := json.Marshal(entry{Op: "ack", Job: jobID, Index: &index})
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	// head is {"op":"ack","job":…,"index":…}, and record is the last
	// field an ack carries, so it goes in place of the closing brace.
	if err := j.append(jobID, "ack", head[:len(head)-1], recordKey, record, ackEnd); err != nil {
		return err
	}
	return faultpoint.Hit("journal.ack")
}

// recordKey and ackEnd are the bytes an ack entry puts around its record.
var (
	recordKey = []byte(`,"record":`)
	ackEnd    = []byte("}\n")
)

// Term journals the job's terminal state and closes its log file.
func (j *Journal) Term(jobID, state, errMsg string) error {
	err := j.commit(entry{Op: "term", Job: jobID, State: state, Error: errMsg})
	j.closeFile(jobID)
	if err != nil {
		return err
	}
	return faultpoint.Hit("journal.term")
}

// Remove deletes the job's log, closing it first if it is open, and
// fsyncs the directory, so no later Replay finds the job.
func (j *Journal) Remove(jobID string) error {
	j.closeFile(jobID)
	if err := os.Remove(j.path(jobID)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("journal: %w", err)
	}
	return j.syncDir()
}

// closeFile closes the job's log file if it is open.
func (j *Journal) closeFile(jobID string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, of := range j.files {
		if of.id == jobID {
			of.f.Close()
			j.files = append(j.files[:i], j.files[i+1:]...)
			return
		}
	}
}

// Close closes every open log file.
func (j *Journal) Close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, of := range j.files {
		of.f.Close()
	}
	j.files = nil
}

// file returns the job's open log, opening (append|create) on first use —
// which is also how a restarted daemon continues a resumed job's log.
func (j *Journal) file(jobID string) (*os.File, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, of := range j.files {
		if of.id == jobID {
			return of.f, nil
		}
	}
	f, err := os.OpenFile(j.path(jobID), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.files = append(j.files, openFile{id: jobID, f: f})
	return f, nil
}

func (j *Journal) path(jobID string) string {
	return filepath.Join(j.dir, jobID+".jnl")
}

// commit marshals one entry and appends it.
func (j *Journal) commit(e entry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return j.append(e.Job, e.Op, data, newline)
}

var newline = []byte("\n")

// append writes and fsyncs one entry line: the concatenation of parts,
// newline included, assembled in j.line under the lock that serialises
// appends. The write itself is a single Write call, so a crash mid-append
// can only leave a truncated final line — the case Replay tolerates.
func (j *Journal) append(jobID, op string, parts ...[]byte) error {
	if err := faultpoint.Hit("journal.append"); err != nil {
		return err
	}
	f, err := j.file(jobID)
	if err != nil {
		return err
	}
	var t0, dur int64
	j.mu.Lock()
	line := j.line[:0]
	for _, p := range parts {
		line = append(line, p...)
	}
	j.line = line
	if _, err := f.Write(line); err != nil {
		j.mu.Unlock()
		return fmt.Errorf("journal: %w", err)
	}
	if j.opt.NowNanos != nil {
		t0 = j.opt.NowNanos()
	}
	if err := f.Sync(); err != nil {
		j.mu.Unlock()
		return fmt.Errorf("journal: fsync: %w", err)
	}
	if j.opt.NowNanos != nil {
		if dur = j.opt.NowNanos() - t0; dur > 0 {
			j.fsyncNanos.Add(uint64(dur))
		}
	}
	j.mu.Unlock()
	j.appends.Add(1)
	if j.opt.Observe != nil {
		j.opt.Observe(op, jobID, t0, dur)
	}
	return nil
}

// syncDir fsyncs the journal directory so freshly created log files are
// durable, not just their contents.
func (j *Journal) syncDir() error {
	d, err := os.Open(j.dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: fsync dir: %w", err)
	}
	return nil
}

// Replay reads every job log in the directory and reconstructs the job
// set, in job-id order: shorter ids first, then by name, which for the
// server's zero-padded ids ("job-0001") is the order they were issued,
// past "job-9999" too. Undecodable content is handled per the
// write-ahead-log rule: the bad line and everything after it in that file
// are discarded (counted in JobLog.Discarded), never fatal. A file whose
// accept entry itself is unreadable yields no job — the job was never
// durably accepted.
func Replay(dir string) ([]JobLog, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("journal: %w", err)
	}
	slices.SortFunc(ents, func(a, b os.DirEntry) int {
		return cmp.Or(cmp.Compare(len(a.Name()), len(b.Name())), strings.Compare(a.Name(), b.Name()))
	})
	var logs []JobLog
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".jnl") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		if lg, ok := replayFile(strings.TrimSuffix(ent.Name(), ".jnl"), data); ok {
			logs = append(logs, lg)
		}
	}
	return logs, nil
}

// replayFile decodes one job log tolerantly.
func replayFile(id string, data []byte) (JobLog, bool) {
	lg := JobLog{ID: id}
	seen := make(map[int]bool)
	lines := strings.Split(string(data), "\n")
	accepted := false
	for i, line := range lines {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var e entry
		if err := json.Unmarshal([]byte(line), &e); err != nil || e.Op == "" {
			// Torn or garbage line: drop it and everything after — later
			// lines were appended after this one, so they postdate a write
			// the log cannot vouch for.
			for _, rest := range lines[i:] {
				if strings.TrimSpace(rest) != "" {
					lg.Discarded++
				}
			}
			break
		}
		switch e.Op {
		case "accept":
			if accepted {
				continue // duplicate accept: first wins
			}
			accepted = true
			lg.Spec = append([]byte(nil), e.Spec...)
			lg.Opts = SubmitOpts{Workers: e.Workers, Shard: e.Shard, Mode: e.Mode}
		case "ack":
			if !accepted || lg.State != "" || e.Index == nil || seen[*e.Index] {
				continue // pre-accept, post-terminal or duplicate ack: ignored
			}
			seen[*e.Index] = true
			lg.Acks = append(lg.Acks, Ack{Index: *e.Index, Record: append([]byte(nil), e.Record...)})
		case "term":
			if !accepted || lg.State != "" {
				continue // first terminal entry wins
			}
			lg.State = e.State
			lg.ErrMsg = e.Error
		}
	}
	return lg, accepted
}
