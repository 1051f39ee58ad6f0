package server

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/journal"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// recoveryCampaignSpecJSON is a four-point recovery campaign of the shape
// perfbench's fleet-recovery workload submits: two hijack/flood
// scenarios on the distributed platform, an internal and an
// external-memory background, staged release. Its records carry
// throughput windows, 2.5-49 KB per line.
func recoveryCampaignSpecJSON(t testing.TB) []byte {
	t.Helper()
	data, err := spec.NewCampaign(spec.CampaignSpec{
		Scenarios:   []string{"burst-flood", "zone-escape"},
		Protections: []string{"distributed"},
		Cores:       []int{3},
		Backgrounds: []string{"stream", "secure-scrub"},
		Accesses:    96,
		InjectDelay: 100,
		Recovery:    &spec.RecoverySpec{Enabled: true, Staged: true, ClearDelay: 1500},
	}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// namedSpec is a spec body with a subtest name.
type namedSpec struct {
	name string
	body []byte
}

// testJob builds an unregistered job from a spec body on server s.
func testJob(t testing.TB, s *Server, body []byte) *Job {
	t.Helper()
	sp, err := spec.Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.newJob(sp, body, journal.SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// jobLines builds a job from a spec body and computes every grid point's
// record line exactly as deliver marshals it.
func jobLines(t testing.TB, body []byte) (*Job, [][]byte) {
	t.Helper()
	s := New(Config{Workers: 1})
	t.Cleanup(s.Close)
	j := testJob(t, s, body)
	lines := make([][]byte, j.gridSize())
	for i := range lines {
		var err error
		if lines[i], err = json.Marshal(s.compute(context.Background(), j, i).rec); err != nil {
			t.Fatal(err)
		}
	}
	return j, lines
}

// requireRecoveryLifecycle fails unless a recovery campaign's stream is
// non-vacuous for the fold: every record carries throughput windows, and
// at least one was quarantined and recovered.
func requireRecoveryLifecycle(t *testing.T, stream []byte) {
	t.Helper()
	recovered := false
	for _, line := range bytes.Split(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n")) {
		var r campaign.Record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		if len(r.Windows) == 0 {
			t.Fatalf("record %d carries no throughput windows", r.Index)
		}
		recovered = recovered || (r.QuarantineCycle > 0 && r.Recovered)
	}
	if !recovered {
		t.Fatal("no record was quarantined and recovered: the recovery fields fold only zeros")
	}
}

// TestDecodeMatchesFullDecode: decode yields every field of a record but
// the three nested arrays it skips, for both record types.
func TestDecodeMatchesFullDecode(t *testing.T) {
	for _, tc := range []namedSpec{
		{"recovery-campaign", recoveryCampaignSpecJSON(t)},
		{"sweep", sweepSpecJSON(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, lines := jobLines(t, tc.body)
			for i, line := range lines {
				got, err := j.decode(line, i)
				if err != nil {
					t.Fatalf("line %d: %v", i, err)
				}
				var want any
				if j.campaignGrid != nil {
					var r campaign.Record
					if err := json.Unmarshal(line, &r); err != nil {
						t.Fatal(err)
					}
					if len(r.Windows) == 0 || len(r.Cores) == 0 || len(r.Firewalls) == 0 {
						t.Fatalf("line %d lacks an array decode skips; the comparison is vacuous", i)
					}
					r.Windows, r.Cores, r.Firewalls = nil, nil, nil
					want = r
				} else {
					var r sweep.RunResult
					if err := json.Unmarshal(line, &r); err != nil {
						t.Fatal(err)
					}
					r.Cores, r.Firewalls = nil, nil
					want = r
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("line %d:\n got %+v\nwant %+v", i, got, want)
				}
			}
		})
	}
}

// TestDecodeRefusesMistypedFields: a skipped array must still be an array
// (or null), every other field keeps its type check, the line must be
// valid JSON to its end, and its index must be the grid index it was
// given at, in the last "index" key too.
func TestDecodeRefusesMistypedFields(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(s.Close)
	camp, swp := testJob(t, s, campaignSpecJSON(t)), testJob(t, s, sweepSpecJSON(t))
	for _, tc := range []struct {
		j    *Job
		line string
		ok   bool
	}{
		{camp, `{"index":0,"windows":5}`, false},
		{camp, `{"index":0,"windows":"x"}`, false},
		{camp, `{"index":0,"cores":{}}`, false},
		{camp, `{"index":0,"firewalls":true}`, false},
		{camp, `{"index":0,"detected":"yes"}`, false},
		{camp, `{"index":0,"windows":[{}],"cores":[],"firewalls":null,"detected":true}`, true},
		{swp, `{"index":0,"cores":{}}`, false},
		{swp, `{"index":0,"firewalls":5}`, false},
		{swp, `{"index":0,"cycles":"many"}`, false},
		{swp, `{"index":0,"cores":[{}],"firewalls":null,"cycles":7}`, true},
		{camp, `{"index":0,"name":"torn`, false},
		{camp, `{"index":0} {}`, false},
		{camp, `{"index":1}`, false},
		{camp, `{"index":0,"name":"x","index":7}`, false},
		{swp, `{"index":0,"Index":7}`, false},
		{swp, `{"index":0,"name":"x","index":0}`, true},
	} {
		_, err := tc.j.decode([]byte(tc.line), 0)
		if (err == nil) != tc.ok {
			t.Errorf("decode(%s): err %v, want accepted=%v", tc.line, err, tc.ok)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "decoding record: ") {
			t.Errorf("decode(%s): error %q lacks its context", tc.line, err)
		}
	}
}

// BenchmarkDecodeMergedLine times what a coordinator does with each merged
// line besides writing and acking it: decode, before the write, plus fold,
// over the four lines (2.5-49 KB) of a fleet-recovery-shaped job. One op
// is the whole job.
func BenchmarkDecodeMergedLine(b *testing.B) {
	j, lines := jobLines(b, recoveryCampaignSpecJSON(b))
	var size int64
	for _, line := range lines {
		size += int64(len(line))
	}
	b.SetBytes(size)
	b.ReportAllocs()
	for b.Loop() {
		for i, line := range lines {
			rec, err := j.decode(line, i)
			if err != nil {
				b.Fatal(err)
			}
			j.foldLocked(record{index: i, rec: rec})
		}
	}
}
