package sweep

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// WriteJSONL runs this shard's portion of the grid and streams one compact
// JSON object per line to w, in global grid index order, as runs complete —
// the report is never buffered whole, and a failing writer cancels the
// remaining grid. The byte stream is identical across worker counts, and
// the concatenation of all shards' streams (via Merge) is identical to an
// unsharded run.
func WriteJSONL(w io.Writer, cfgs []Config, sh Shard, workers int) error {
	return Each(cfgs, sh, workers, EmitJSONL[RunResult](w))
}

// CSVHeader is the column set of the CSV export. The format is long/tidy:
// every run contributes one scope=run row (aggregates), one scope=core row
// per core and one scope=firewall row per enforcement point, so per-core
// and per-firewall series plot directly without un-nesting JSON.
var CSVHeader = []string{
	"index", "name", "protection", "workload", "target", "num_cores",
	"scope", "entity", "kind",
	"cycles", "all_halted",
	"instructions", "stall_cycles", "local_ops", "bus_ops", "bus_errors",
	"checked", "allowed", "blocked", "check_cycles",
	"protocol_txns", "sem_stall_cycles", "sem_max_queue",
	"crypto_cycles", "integrity_failures",
	"bus_transactions", "bus_wait_cycles", "bus_utilization", "bits_moved",
	"alerts", "error",
}

// WriteCSV runs this shard's portion of the grid and streams the long-form
// CSV to w (header first), in global grid index order. Like WriteJSONL it
// never buffers the whole report, cancels on a failing writer, and the
// bytes are identical across worker counts.
func WriteCSV(w io.Writer, cfgs []Config, sh Shard, workers int) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader); err != nil {
		return err
	}
	if err := Each(cfgs, sh, workers, func(r RunResult) error {
		if err := writeCSVRows(cw, r); err != nil {
			return err
		}
		// Flush per run so the stream is incremental, and surface sink
		// errors now — csv.Writer otherwise swallows them until the end.
		cw.Flush()
		return cw.Error()
	}); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// writeCSVRows emits one run's rows: run aggregate, then cores, then
// firewalls.
func writeCSVRows(cw *csv.Writer, r RunResult) error {
	u := strconv.FormatUint
	base := []string{
		strconv.Itoa(r.Index), r.Name, r.Protection, r.Workload, r.Target,
		strconv.Itoa(r.NumCores),
	}
	pad := func(cols ...string) []string {
		row := append(append([]string(nil), base...), cols...)
		for len(row) < len(CSVHeader)-1 {
			row = append(row, "")
		}
		return append(row, r.Err)
	}
	run := pad("run", "", "",
		u(r.Cycles, 10), strconv.FormatBool(r.AllHalted),
		u(r.Instructions, 10), u(r.StallCycles, 10), "", u(r.BusOps, 10), u(r.BusErrors, 10),
		"", "", "", "",
		"", "", "", "", "",
		u(r.Bus.Completed, 10), u(r.Bus.WaitCycles, 10),
		strconv.FormatFloat(r.BusUtilization, 'g', -1, 64), u(r.Bus.BitsMoved, 10),
		strconv.Itoa(r.Alerts))
	if err := cw.Write(run); err != nil {
		return err
	}
	for _, c := range r.Cores {
		row := pad("core", c.Name, "",
			u(c.Cycles, 10), "",
			u(c.Instructions, 10), u(c.StallCycles, 10), u(c.LocalOps, 10),
			u(c.BusOps, 10), u(c.BusErrors, 10))
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	for _, f := range r.Firewalls {
		row := pad("firewall", f.ID, f.Kind,
			"", "",
			"", "", "", "", "",
			u(f.Checked, 10), u(f.Allowed, 10), u(f.Blocked, 10), u(f.CheckCycles, 10),
			u(f.ProtocolTxns, 10), u(f.SEMStallCycles, 10), strconv.Itoa(f.SEMMaxQueue),
			u(f.CryptoCycles, 10), u(f.IntegrityFailures, 10))
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// shardStream is one shard's JSONL stream during a merge: a scanner plus
// the last line read, its parsed grid index, and whether that line still
// waits to be emitted. The line is a slice of the scanner's buffer: the
// merge scans a shard again only after its held line is emitted, so the
// bytes stay put until then.
type shardStream struct {
	id   int
	sc   *bufio.Scanner
	idx  int
	line []byte // nil until the first line is read
	held bool
	done bool
}

// advance loads the stream's next non-empty line and parses its index;
// with valid set, the rest of the line must be valid JSON too.
func (s *shardStream) advance(valid bool) error {
	for s.sc.Scan() {
		raw := bytes.TrimSpace(s.sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		idx, ok := lineIndex(raw)
		if !ok || valid && !json.Valid(raw) {
			return fmt.Errorf("sweep: shard %d: line without a grid index: %.80s", s.id, raw)
		}
		if s.line != nil && idx <= s.idx {
			return fmt.Errorf("sweep: shard %d: indices not strictly ascending (%d after %d)",
				s.id, idx, s.idx)
		}
		s.idx, s.held, s.line = idx, true, raw
		return nil
	}
	if err := s.sc.Err(); err != nil {
		return fmt.Errorf("sweep: shard %d: %w", s.id, err)
	}
	s.done = true
	return nil
}

// scanBufSize is the first buffer of a merge's shard scanner, which grows
// past it only for a longer line; mergeBufs keeps those buffers from one
// merge to the next, as a coordinator merges every job it runs.
const scanBufSize = 64 << 10

var mergeBufs = sync.Pool{New: func() any { return new([scanBufSize]byte) }}

// lineIndex returns a record line's grid index, read from the line's first
// key, which must be "index" (every record type leads with it), without
// decoding the rest of the line or checking that it is valid JSON. ok is
// false unless that key holds an integer.
func lineIndex(raw []byte) (idx int, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return 0, false
	}
	if tok, err := dec.Token(); err != nil || tok != "index" {
		return 0, false
	}
	tok, err := dec.Token()
	num, isNum := tok.(json.Number)
	if err != nil || !isNum {
		return 0, false
	}
	if idx, err = strconv.Atoi(string(num)); err != nil {
		return 0, false
	}
	return idx, true
}

// Merge recombines shard JSONL streams into the exact stream an unsharded
// single-process sweep would have written: lines pass through byte-for-byte,
// merged on their global grid index. Each input must be ascending in index
// (every stream WriteJSONL produces is), so Merge holds at most one read
// line per shard — merging stays streaming no matter how large the grid —
// and writes a line the moment it holds the next grid index: it reads a
// shard (the lowest-numbered one holding no line) only while none of the
// lines it holds is that index. Every line must be valid JSON whose first
// key is its "index", as every record's is: the check is one scan per
// line, made as the line is read, and it keeps a torn line out of the
// merged stream. Duplicate indices across shards are an error (overlapping
// shards), and so is any gap in the merged sequence: the shards of a full
// partition cover indices 0..N-1 contiguously, so a hole means a shard is
// missing and the output would be a silently incomplete dataset. A refusal
// can come after lines already written.
func Merge(w io.Writer, shards ...io.Reader) error {
	var last []byte
	return merge(shards, true, func(_ int, line []byte) error {
		_, err := w.Write(withNewline(line, &last))
		return err
	})
}

// MergeLines is Merge for a caller that checks each line itself, as a
// fleet coordinator does by decoding the line before it writes it: the
// same merge, refusing the same streams, except that it reads only each
// line's leading index and does not check that the rest of the line is
// valid JSON. It hands emit each line in grid order, with its index and
// without its newline. The line lives in the merge's reused buffer: it is
// valid only until emit returns, and emit must not write to it.
func MergeLines(shards []io.Reader, emit func(index int, line []byte) error) error {
	return merge(shards, false, func(index int, line []byte) error {
		return emit(index, line[:len(line):len(line)])
	})
}

// merge is the k-way merge behind Merge and MergeLines; valid selects
// Merge's check of every line. emit gets a slice of the held shard's
// scanner buffer, whose capacity runs on to the buffer's end.
func merge(shards []io.Reader, valid bool, emit func(index int, line []byte) error) error {
	streams := make([]*shardStream, len(shards))
	for i, r := range shards {
		buf := mergeBufs.Get().(*[scanBufSize]byte)
		defer mergeBufs.Put(buf)
		sc := bufio.NewScanner(r)
		sc.Buffer(buf[:0], 16*1024*1024)
		streams[i] = &shardStream{id: i, sc: sc}
	}
	for next := 0; ; {
		var ready, idle, ahead *shardStream
		for _, s := range streams {
			switch {
			case s.held && s.idx < next:
				return fmt.Errorf("sweep: duplicate grid index %d across shards", s.idx)
			case s.held && s.idx == next:
				ready = s
			case s.held:
				ahead = s
			case !s.done && idle == nil:
				idle = s
			}
		}
		switch {
		case ready != nil:
			next++
			ready.held = false
			if err := emit(ready.idx, ready.line); err != nil {
				return err
			}
		case idle != nil:
			if err := idle.advance(valid); err != nil {
				return err
			}
		case ahead != nil:
			return fmt.Errorf("sweep: grid index %d missing from merge inputs (is a shard file absent?)", next)
		default:
			return nil
		}
	}
}

// withNewline returns a held line followed by a newline. Inside the
// scanner's buffer the line is followed by the newline that ended it —
// unless it was the stream's last line, or trimmed whitespace came
// between — so that slice is the answer, read and not written: the rest
// of the buffer holds read-ahead bytes. Otherwise the line is copied into
// *last.
func withNewline(line []byte, last *[]byte) []byte {
	if n := len(line); cap(line) > n && line[:n+1][n] == '\n' {
		return line[:n+1]
	}
	*last = append(append((*last)[:0], line...), '\n')
	return *last
}
