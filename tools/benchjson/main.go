// Command benchjson converts `go test -bench` text output (stdin) into a
// stable JSON document (stdout): benchmark name -> ns/op, bytes/op,
// allocs/op and any custom ReportMetric units. The Makefile's bench-json
// target feeds it the repository benchmark suite and stores the result as
// BENCH_<pr>.json, the per-PR perf trajectory CI uploads as an artifact —
// so future changes diff their benchmark numbers against history instead
// of eyeballing logs.
//
// Given documents as arguments instead, benchjson merges them: every
// benchmark keeps its entry with the median ns/op across the documents.
// `make bench-baseline` commits the median of three bench-json runs, so
// that one run landing in a fast phase of a shared host does not become
// the reference every later run is held to.
//
// Usage:
//
//	benchjson < bench.txt > BENCH_<pr>.json
//	benchjson BENCH_a.json BENCH_b.json BENCH_c.json > BENCH_baseline.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Entry is the parsed result of one benchmark line.
type Entry struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Doc is the full document: environment header lines plus all benchmarks.
type Doc struct {
	Go       string           `json:"go,omitempty"`
	OS       string           `json:"goos,omitempty"`
	Arch     string           `json:"goarch,omitempty"`
	CPU      string           `json:"cpu,omitempty"`
	Packages []string         `json:"packages,omitempty"`
	Bench    map[string]Entry `json:"benchmarks"`
}

func main() {
	var (
		doc Doc
		err error
	)
	if len(os.Args) > 1 {
		doc, err = medianOf(os.Args[1:])
	} else {
		doc, err = parse(os.Stdin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	os.Stdout.Write(append(out, '\n'))
}

// parse reads `go test -bench` text output.
func parse(r io.Reader) (Doc, error) {
	doc := Doc{Bench: map[string]Entry{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.OS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Arch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			doc.Packages = append(doc.Packages, strings.TrimPrefix(line, "pkg: "))
		case strings.HasPrefix(line, "Benchmark"):
			name, e, err := parseBenchLine(line)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: skipping %q: %v\n", line, err)
				continue
			}
			record(&doc, name, e)
		}
	}
	return doc, sc.Err()
}

// medianOf reads benchjson documents and merges them with median.
func medianOf(paths []string) (Doc, error) {
	docs := make([]Doc, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return Doc{}, err
		}
		if err := json.Unmarshal(data, &docs[i]); err != nil {
			return Doc{}, fmt.Errorf("%s: %w", p, err)
		}
	}
	return median(docs), nil
}

// median keeps, for every benchmark, its entry with the median ns/op
// across the documents that have it (the lower middle one for an even
// count), so each entry's fields stay those of one real run. The header
// is the first document's.
func median(docs []Doc) Doc {
	out := docs[0]
	out.Bench = map[string]Entry{}
	runs := map[string][]Entry{}
	for _, d := range docs {
		for name, e := range d.Bench {
			runs[name] = append(runs[name], e)
		}
	}
	for name, es := range runs {
		sort.Slice(es, func(i, j int) bool { return es[i].NsPerOp < es[j].NsPerOp })
		out.Bench[name] = es[(len(es)-1)/2]
	}
	return out
}

// record stores a benchmark sample. Repeated runs of one benchmark
// (go test -count=N) keep the fastest sample: min-of-N is the standard
// low-noise estimate, and it is what lets tools/benchdiff hold a tight
// regression threshold without flaking on scheduler or frequency jitter.
func record(doc *Doc, name string, e Entry) {
	if prev, ok := doc.Bench[name]; ok && prev.NsPerOp <= e.NsPerOp {
		e = prev
	}
	doc.Bench[name] = e
}

// parseBenchLine parses one result line:
//
//	BenchmarkName-8   1234   56.7 ns/op   8 B/op   1 allocs/op   9.9 widgets/op
//
// The name's -N GOMAXPROCS suffix is stripped so trajectories compare
// across machines.
func parseBenchLine(line string) (string, Entry, error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return "", Entry{}, fmt.Errorf("want name, count and value/unit pairs, got %d fields", len(f))
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return "", Entry{}, fmt.Errorf("bad iteration count %q", f[1])
	}
	e := Entry{Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", Entry{}, fmt.Errorf("bad value %q", f[i])
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			e.NsPerOp = v
		case "B/op":
			b := v
			e.BytesPerOp = &b
		case "allocs/op":
			a := v
			e.AllocsPerOp = &a
		default:
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[unit] = v
		}
	}
	return name, e, nil
}
