package sweep_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/sweep"
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

// FuzzMerge merges two shard streams. Merge must never panic, and when it
// accepts its input its output must be exactly the input's non-empty
// lines, trimmed, ordered by grid index, with the indices 0..N-1 in order
// and every line valid JSON. Plain go test replays the seed corpus in
// testdata/fuzz/FuzzMerge: real records, a duplicate index, an
// out-of-order pair, a gap, a torn last line and a line whose first key is
// not index.
func FuzzMerge(f *testing.F) {
	f.Add([]byte("{\"index\":0}\n{\"index\":2}\n"), []byte("{\"index\":1}\n"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var out bytes.Buffer
		if err := sweep.Merge(&out, bytes.NewReader(a), bytes.NewReader(b)); err != nil {
			return
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
