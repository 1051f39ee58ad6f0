package main

import "testing"

func TestParseBenchLine(t *testing.T) {
	name, e, err := parseBenchLine(
		"BenchmarkSecureMemoryThroughput-8   380144   6393 ns/op   10.01 MB/s   1356 sim-cycles/op   0 B/op   0 allocs/op")
	if err != nil {
		t.Fatal(err)
	}
	if name != "BenchmarkSecureMemoryThroughput" {
		t.Fatalf("name = %q (GOMAXPROCS suffix not stripped?)", name)
	}
	if e.Iterations != 380144 || e.NsPerOp != 6393 {
		t.Fatalf("entry = %+v", e)
	}
	if e.BytesPerOp == nil || *e.BytesPerOp != 0 || e.AllocsPerOp == nil || *e.AllocsPerOp != 0 {
		t.Fatalf("benchmem fields = %+v", e)
	}
	if e.Metrics["MB/s"] != 10.01 || e.Metrics["sim-cycles/op"] != 1356 {
		t.Fatalf("metrics = %+v", e.Metrics)
	}
}

func TestParseBenchLineNoSuffix(t *testing.T) {
	name, e, err := parseBenchLine("BenchmarkHash 	 100 	 250.5 ns/op")
	if err != nil {
		t.Fatal(err)
	}
	if name != "BenchmarkHash" || e.NsPerOp != 250.5 {
		t.Fatalf("got %q %+v", name, e)
	}
	if e.BytesPerOp != nil || e.AllocsPerOp != nil || e.Metrics != nil {
		t.Fatalf("unexpected optional fields: %+v", e)
	}
}

func TestParseBenchLineMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX",
		"BenchmarkX 12",
		"BenchmarkX twelve 3 ns/op",
		"BenchmarkX 12 foo ns/op",
	} {
		if _, _, err := parseBenchLine(line); err == nil {
			t.Errorf("%q parsed without error", line)
		}
	}
}

func TestRecordKeepsFastestSample(t *testing.T) {
	doc := Doc{Bench: map[string]Entry{}}
	record(&doc, "BenchmarkX", Entry{NsPerOp: 100, Iterations: 1})
	record(&doc, "BenchmarkX", Entry{NsPerOp: 80, Iterations: 2})
	record(&doc, "BenchmarkX", Entry{NsPerOp: 95, Iterations: 3})
	got := doc.Bench["BenchmarkX"]
	if got.NsPerOp != 80 || got.Iterations != 2 {
		t.Fatalf("kept %+v, want the fastest sample", got)
	}
}

func TestMedianKeepsMiddleRun(t *testing.T) {
	run := func(ns float64, iters int64) Doc {
		return Doc{CPU: "cpu", Bench: map[string]Entry{"BenchmarkX": {NsPerOp: ns, Iterations: iters}}}
	}
	docs := []Doc{run(95, 1), run(80, 2), run(140, 3)}
	docs[1].Bench["BenchmarkOnlyOnce"] = Entry{NsPerOp: 7}
	got := median(docs)
	if x := got.Bench["BenchmarkX"]; x.NsPerOp != 95 || x.Iterations != 1 {
		t.Fatalf("kept %+v, want the median run's entry", x)
	}
	if got.Bench["BenchmarkOnlyOnce"].NsPerOp != 7 || got.CPU != "cpu" {
		t.Fatalf("merged %+v", got)
	}
	even := median([]Doc{run(95, 1), run(80, 2)})
	if x := even.Bench["BenchmarkX"]; x.NsPerOp != 80 {
		t.Fatalf("even count kept %+v, want the lower middle run", x)
	}
}
