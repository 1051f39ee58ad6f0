package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// TestTraceSpansNestAndAddUp replays a tiny job list as a traced run does,
// on one node and through the fleet path, and checks that the spans nest,
// that the self times plus the unaccounted remainder equal the traced wall
// time exactly, that the untraced replays and the probes stay off the
// tracer's clock, and that the Chrome trace_event document carries every
// span.
func TestTraceSpansNestAndAddUp(t *testing.T) {
	jobs := tinyJobs(t)
	for _, fleet := range []bool{false, true} {
		t0 := time.Now()
		st, err := replayAll(context.Background(), jobs, fleet, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		total := time.Since(t0)
		tr, wall := st.tr, st.traced
		if st.untraced <= 0 || st.build.ns <= 0 || len(st.tree) != len(jobs) || len(st.lcf) != len(jobs) {
			t.Errorf("fleet=%v: untraced %v, build probes %v ns, %d hashtree and %d lcf trials",
				fleet, st.untraced, st.build.ns, len(st.tree), len(st.lcf))
		}
		if wall+st.untraced+time.Duration(st.build.ns) > total {
			t.Errorf("fleet=%v: traced %v + untraced %v + probes %v exceed the replay's %v: the tracer's clock ran outside the traced replays",
				fleet, wall, st.untraced, time.Duration(st.build.ns), total)
		}
		if last := tr.spans[len(tr.spans)-1]; last.End > wall {
			t.Errorf("fleet=%v: last span ends at %v, after the traced wall %v", fleet, last.End, wall)
		}
		if err := tr.checkNesting(); err != nil {
			t.Fatalf("fleet=%v: %v", fleet, err)
		}
		acc := tr.account(wall)
		var self time.Duration
		for _, d := range acc.Self {
			if d < 0 {
				t.Errorf("fleet=%v: negative self time %v", fleet, d)
			}
			self += d
		}
		if acc.Unaccounted < 0 || self+acc.Unaccounted != wall {
			t.Errorf("fleet=%v: self %v + unaccounted %v != wall %v", fleet, self, acc.Unaccounted, wall)
		}
		want := []string{"spec.Parse", "journal.Accept", "sweep.RunOne", "campaign.RunOne", "json.Marshal",
			"journal.AckShard", "agg.Sweep.Add", "agg.Campaign.Add", "journal.Term"}
		if fleet {
			want = append(want, "sweep.Merge", "json.Unmarshal")
		}
		for _, name := range want {
			if acc.Count[name] == 0 {
				t.Errorf("fleet=%v: no %s span", fleet, name)
			}
		}
		if !fleet && acc.Count["sweep.Merge"] != 0 {
			t.Error("single-node replay merged")
		}
		for i, s := range tr.spans {
			if s.Parent >= 0 && tr.spans[s.Parent].Name != "sweep.Merge" {
				t.Errorf("fleet=%v: span %d (%s) nested in %s", fleet, i, s.Name, tr.spans[s.Parent].Name)
			}
		}
		if fleet && acc.Self["sweep.Merge"] >= acc.Total["sweep.Merge"] {
			t.Error("merge sink spans do not nest inside sweep.Merge")
		}
		checkChrome(t, tr)
	}
}

// checkChrome decodes the trace document and matches it against the spans.
func checkChrome(t *testing.T, tr *tracer) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf, "test", map[string]any{"jobs": 2}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	var complete []int
	for i, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete = append(complete, i)
		}
	}
	if len(complete) != len(tr.spans) {
		t.Fatalf("%d complete events for %d spans", len(complete), len(tr.spans))
	}
	for k, i := range complete {
		ev, s := doc.TraceEvents[i], tr.spans[k]
		if ev.Name != s.Name || ev.Dur < 0 || int(ev.Args["parent"].(float64)) != s.Parent {
			t.Fatalf("event %d = %+v does not match span %+v", k, ev, s)
		}
	}
}

func TestCheckNestingRejectsOverlap(t *testing.T) {
	bad := []*tracer{
		{spans: []span{{Name: "a", Parent: -1, Start: 0, End: 10}, {Name: "b", Parent: 0, Start: 5, End: 20}}},
		{spans: []span{{Name: "a", Parent: -1, Start: 0, End: 10}, {Name: "b", Parent: -1, Start: 5, End: 20}}},
		{spans: []span{{Name: "a", Parent: -1, Start: 10, End: 5}}},
	}
	for i, tr := range bad {
		if tr.checkNesting() == nil {
			t.Errorf("case %d: bad spans accepted", i)
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that a run prints exactly the
// metrics BENCHMARK.json declares, with the declared units, and that
// BENCHMARK.json gates every workload but sweep-churn, whose timings drift
// beyond the largest bound (README.md, Host noise).
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bench struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var declared, ours []string
	for _, w := range bench.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		if w.Name != "sweep-churn" {
			ours = append(ours, w.Name)
		}
	}
	if !slices.Equal(declared, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", declared, ours)
	}

	jobs := tinyJobs(t)
	ref, err := buildReference(jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := &measured{wall: time.Second, records: ref.counts.Records,
		setups: []float64{0.01}, results: []jobResult{intact(ref.lines[0]), intact(ref.lines[1])}}
	for i := range m.results {
		m.results[i].submit, m.results[i].accepted = time.Millisecond, 2*time.Millisecond
		m.results[i].first, m.results[i].last = 3*time.Millisecond, 4*time.Millisecond
	}
	e2e := &result{Metrics: map[string]metric{}}
	endToEndMetrics(m, e2e)
	layers := &result{Metrics: map[string]metric{}}
	cfg := config{workload: workloads[0], seed: 1, work: t.TempDir()}
	if err := layerMetrics(context.Background(), cfg, t.TempDir(), jobs, ref, m, layers); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what  string
		decls []decl
		got   map[string]metric
	}{{"end_to_end", bench.EndToEnd, e2e.Metrics}, {"per_layer", bench.PerLayer, layers.Metrics}} {
		var names []string
		for _, d := range c.decls {
			names = append(names, d.Name)
			if m, ok := c.got[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s %s: printed %+v (present %v), declared unit %q", c.what, d.Name, m, ok, d.Unit)
			}
		}
		for n := range c.got {
			if !slices.Contains(names, n) {
				t.Errorf("%s: %s printed but not declared", c.what, n)
			}
		}
	}
}
