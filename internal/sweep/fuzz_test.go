package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"testing"
)

// firstIndex reads a line's first key and its value the way the merge
// contract states it: the key must be "index" and the value an integer.
func firstIndex(line []byte) (int, bool) {
	dec := json.NewDecoder(bytes.NewReader(line))
	var idx int
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return 0, false
	}
	if tok, err := dec.Token(); err != nil || tok != "index" {
		return 0, false
	}
	if err := dec.Decode(&idx); err != nil {
		return 0, false
	}
	return idx, true
}

// refStream and refMerge are the priming k-way merge that Merge replaced,
// kept as FuzzMerge's reference: it reads one line from every shard before
// it writes anything, and after each write reads that shard's next line
// before it looks at the lines it already holds.
type refStream struct {
	id   int
	sc   *bufio.Scanner
	idx  int
	line []byte
	done bool
}

func (s *refStream) advance() error {
	for s.sc.Scan() {
		raw := bytes.TrimSpace(s.sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		idx, ok := lineIndex(raw)
		if !ok || !json.Valid(raw) {
			return fmt.Errorf("shard %d: line without a grid index", s.id)
		}
		if s.line != nil && idx <= s.idx {
			return fmt.Errorf("shard %d: indices not strictly ascending", s.id)
		}
		s.idx = idx
		s.line = append(s.line[:0], raw...)
		return nil
	}
	if err := s.sc.Err(); err != nil {
		return err
	}
	s.done = true
	return nil
}

func refMerge(w io.Writer, shards ...io.Reader) error {
	streams := make([]*refStream, 0, len(shards))
	for i, r := range shards {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
		s := &refStream{id: i, sc: sc}
		if err := s.advance(); err != nil {
			return err
		}
		if !s.done {
			streams = append(streams, s)
		}
	}
	next := 0
	for len(streams) > 0 {
		min := 0
		for i, s := range streams[1:] {
			if s.idx < streams[min].idx {
				min = i + 1
			}
		}
		s := streams[min]
		if s.idx < next {
			return fmt.Errorf("duplicate grid index %d", s.idx)
		}
		if s.idx > next {
			return fmt.Errorf("grid index %d missing", next)
		}
		next++
		if _, err := w.Write(append(s.line, '\n')); err != nil {
			return err
		}
		if err := s.advance(); err != nil {
			return err
		}
		if s.done {
			streams = append(streams[:min], streams[min+1:]...)
		}
	}
	return nil
}

// FuzzMerge merges two shard streams. Merge must never panic, must accept
// exactly what the priming reference accepts and then write the same
// bytes, and when it accepts its input its output must be exactly the
// input's non-empty lines, trimmed, ordered by grid index, with the
// indices 0..N-1 in order and every line valid JSON. MergeLines, which
// leaves the JSON check to its caller, must accept whatever Merge accepts
// and emit the same lines, each with the index Merge ordered it by; what
// it accepts beyond that must hold a line that is not valid JSON. Plain go
// test replays the seeds below and the corpus in testdata/fuzz/FuzzMerge:
// real records, a duplicate index, an out-of-order pair, a gap, a torn
// last line and a line whose first key is not index.
func FuzzMerge(f *testing.F) {
	f.Add([]byte("{\"index\":0}\n{\"index\":2}\n"), []byte("{\"index\":1}\n"))
	// A gap found only at the end: every index up to 4 merges before 5
	// turns out to be missing.
	f.Add([]byte("{\"index\":0}\n{\"index\":2}\n{\"index\":4}\n"), []byte("{\"index\":1}\n{\"index\":3}\n{\"index\":6}\n"))
	// A duplicate across shards past the first line.
	f.Add([]byte("{\"index\":0}\n{\"index\":1}\n"), []byte("{\"index\":1}\n{\"index\":2}\n"))
	// An empty second shard.
	f.Add([]byte("{\"index\":0}\n{\"index\":1}\n"), []byte(""))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var out, ref, lines bytes.Buffer
		err := Merge(&out, bytes.NewReader(a), bytes.NewReader(b))
		refErr := refMerge(&ref, bytes.NewReader(a), bytes.NewReader(b))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Merge = %v, reference = %v", err, refErr)
		}
		allValid := true
		linesErr := MergeLines([]io.Reader{bytes.NewReader(a), bytes.NewReader(b)}, func(index int, line []byte) error {
			if idx, ok := firstIndex(line); !ok || idx != index {
				t.Fatalf("MergeLines emitted %q as index %d", line, index)
			}
			allValid = allValid && json.Valid(line)
			lines.Write(line)
			lines.WriteByte('\n')
			return nil
		})
		switch {
		case err == nil && linesErr != nil:
			t.Fatalf("Merge accepted what MergeLines refused: %v", linesErr)
		case err != nil && linesErr == nil && allValid:
			t.Fatalf("MergeLines accepted only valid lines where Merge refused: %v", err)
		case err == nil && !bytes.Equal(lines.Bytes(), out.Bytes()):
			t.Fatalf("MergeLines emitted %q, Merge wrote %q", lines.Bytes(), out.Bytes())
		}
		if err != nil {
			return
		}
		if !bytes.Equal(out.Bytes(), ref.Bytes()) {
			t.Fatalf("Merge wrote %q, reference %q", out.Bytes(), ref.Bytes())
		}
		var want [][]byte
		for _, in := range [][]byte{a, b} {
			for _, l := range bytes.Split(in, []byte("\n")) {
				if l = bytes.TrimSpace(l); len(l) > 0 {
					want = append(want, l)
				}
			}
		}
		got := bytes.SplitAfter(out.Bytes(), []byte("\n"))
		if n := len(got); n > 0 && len(got[n-1]) == 0 {
			got = got[:n-1]
		}
		if len(got) != len(want) {
			t.Fatalf("merged %d lines from %d input lines", len(got), len(want))
		}
		for i, l := range got {
			l, ok := bytes.CutSuffix(l, []byte("\n"))
			if !ok {
				t.Fatalf("line %d is not newline-terminated", i)
			}
			if !json.Valid(l) {
				t.Fatalf("line %d is not valid JSON: %q", i, l)
			}
			if idx, ok := firstIndex(l); !ok || idx != i {
				t.Fatalf("line %d carries index %d (ok %v): %q", i, idx, ok, l)
			}
			j := slices.IndexFunc(want, func(w []byte) bool { return bytes.Equal(w, l) })
			if j < 0 {
				t.Fatalf("line %d is not an input line: %q", i, l)
			}
			want = slices.Delete(want, j, j+1)
		}
	})
}
