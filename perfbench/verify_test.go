package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// tinyJobs is a two-job list that runs in milliseconds: a two-point benign
// sweep and a two-point recovery campaign.
func tinyJobs(t *testing.T) []Job {
	t.Helper()
	sw, err := spec.NewSweep(spec.SweepSpec{Protections: []string{"distributed"}, Workloads: []string{"stream"},
		Targets: []string{"internal", "external"}, Cores: []int{1}, Accesses: 8}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := spec.NewCampaign(spec.CampaignSpec{Scenarios: []string{"zone-escape"}, Protections: []string{"distributed"},
		Cores: []int{3}, Backgrounds: []string{"stream", "secure-scrub"}, Accesses: 64, InjectDelay: 100,
		Recovery: &spec.RecoverySpec{Enabled: true, Staged: true, ClearDelay: 1500}}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	return []Job{{ID: 0, Body: sw}, {ID: 1, Body: cp}}
}

// intact is the result of a job whose stream matches the reference.
func intact(lines [][]byte) jobResult {
	var stream []byte
	for _, l := range lines {
		stream = append(append(stream, l...), '\n')
	}
	return jobResult{submitCode: http.StatusCreated, streamCode: http.StatusOK, gridSize: len(lines), stream: stream}
}

// TestFailedJobsAreCounted feeds damaged streams through the verifier:
// each damage makes its job count as failed, and the intact job does not.
func TestFailedJobsAreCounted(t *testing.T) {
	jobs := tinyJobs(t)
	ref, err := buildReference(jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for j := range jobs {
		for _, line := range ref.lines[j] {
			if bytes.Contains(line, []byte(`"error"`)) {
				t.Fatalf("reference record carries an error: %s", line)
			}
		}
	}
	damages := map[string]func(r *jobResult){
		"intact":    func(r *jobResult) {},
		"truncated": func(r *jobResult) { r.stream = r.stream[:len(r.stream)/2] },
		"missing last record": func(r *jobResult) {
			body := bytes.TrimSuffix(r.stream, []byte("\n"))
			r.stream = body[:bytes.LastIndexByte(body, '\n')+1]
		},
		"error record": func(r *jobResult) {
			r.stream = bytes.Replace(r.stream, []byte(`{"index":0,`), []byte(`{"index":0,"error":"boom",`), 1)
		},
		"one-byte diff": func(r *jobResult) {
			at := bytes.Index(r.stream, []byte(`"cycles":`)) + len(`"cycles":`)
			r.stream = bytes.Clone(r.stream)
			if r.stream[at] == '1' {
				r.stream[at] = '2'
			} else {
				r.stream[at] = '1'
			}
		},
		"refused":       func(r *jobResult) { r.submitCode = http.StatusTooManyRequests },
		"stream status": func(r *jobResult) { r.streamCode = http.StatusInternalServerError },
	}
	for name, damage := range damages {
		results := []jobResult{intact(ref.lines[0]), intact(ref.lines[1])}
		damage(&results[0])
		failed, reasons := countFailures(results, ref)
		want := 1
		if name == "intact" {
			want = 0
		}
		if failed != want {
			t.Errorf("%s: %d failed jobs (%v), want %d", name, failed, reasons, want)
		}
	}
}

// TestExactCountsRepeat checks that the exact counts, the reference bytes
// and the journal's append count repeat exactly from run to run: the
// reference is built twice (on one worker, then on two), and each job list
// is replayed twice into fresh journals.
func TestExactCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		jobs, err := w.Jobs(7, "timed", 2)
		if err != nil {
			t.Fatal(err)
		}
		a, err := buildReference(jobs, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildReference(jobs, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.counts, b.counts) {
			t.Errorf("%s: counts differ between runs:\n%+v\n%+v", w.Name, a.counts, b.counts)
		}
		if !reflect.DeepEqual(a.lines, b.lines) {
			t.Errorf("%s: reference bytes differ between runs", w.Name)
		}
		c := a.counts
		if c.Records == 0 || c.EngineCycles == 0 || c.CoreCycles == 0 || c.StallCycles == 0 || c.LCFChecks == 0 {
			t.Errorf("%s: vacuous counts %+v", w.Name, c)
		}
		for run := 0; run < 2; run++ {
			dir := t.TempDir()
			replayJobs(t, jobs, w.Fleet, dir)
			if got, want := journalEntries(t, dir), 2*c.Jobs+c.Records; got != want {
				t.Errorf("%s replay %d: %d journal entries, want %d (accept+term per job, one ack per record)", w.Name, run, got, want)
			}
		}
	}
}

// replayJobs replays a job list untraced into a journal in dir.
func replayJobs(t *testing.T, jobs []Job, fleet bool, dir string) {
	t.Helper()
	r, err := newReplayer(dir, fleet, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.jn.Close()
	for _, job := range jobs {
		if err := r.job(job); err != nil {
			t.Fatalf("replaying job %d: %v", job.ID, err)
		}
	}
}

// journalEntries counts the entries of every job log in dir.
func journalEntries(t *testing.T, dir string) int {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(dir, "*.jnl"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, path := range logs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n += strings.Count(string(data), "\n")
	}
	return n
}

// TestWithIndexMatchesMarshal checks the reference's index rewrite against
// marshaling the record with its index set, for both record types.
func TestWithIndexMatchesMarshal(t *testing.T) {
	p, err := parseJob(tinyJobs(t)[1].Body)
	if err != nil {
		t.Fatal(err)
	}
	camp := campaign.RunOne(p.campaign[0])
	swp := sweep.RunOne(sweep.Config{Workload: "stream", Accesses: 8})
	for _, i := range []int{0, 7, 123} {
		line0, _ := json.Marshal(camp)
		camp.Index = i
		want, _ := json.Marshal(camp)
		camp.Index = 0
		if got, err := withIndex(line0, i); err != nil || !bytes.Equal(got, want) {
			t.Errorf("campaign index %d: %s, %v", i, got, err)
		}
		line0, _ = json.Marshal(swp)
		swp.Index = i
		want, _ = json.Marshal(swp)
		swp.Index = 0
		if got, err := withIndex(line0, i); err != nil || !bytes.Equal(got, want) {
			t.Errorf("sweep index %d: %s, %v", i, got, err)
		}
	}
	if _, err := withIndex([]byte(`{"name":"x"}`), 1); err == nil {
		t.Error("a line without a leading index was rewritten")
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 0.9: 3.7, 1: 4} {
		if got := quantile(v, q); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("quantile(%v, %g) = %g, want %g", v, q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of an empty sample is not 0")
	}
}
