package sweep_test

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"repro/internal/campaign"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// BenchmarkMerge times the coordinator-merge layer: MergeLines, which a
// coordinator merges through, over the two shard streams of a
// fleet-recovery-shaped job (a four-point staged recovery campaign whose
// records carry throughput windows, 2.5-49 KB a line), each shard laid
// out by Shard.Slice as a coordinator's two backends stream it. One op is
// the whole job. Merge, the CLI's merge, adds one json.Valid per line.
func BenchmarkMerge(b *testing.B) {
	cfgs, err := spec.NewCampaign(spec.CampaignSpec{
		Scenarios:   []string{"burst-flood", "zone-escape"},
		Protections: []string{"distributed"},
		Cores:       []int{3},
		Backgrounds: []string{"stream", "secure-scrub"},
		Accesses:    96,
		InjectDelay: 100,
		Recovery:    &spec.RecoverySpec{Enabled: true, Staged: true, ClearDelay: 1500},
	}).Campaign.Grid()
	if err != nil {
		b.Fatal(err)
	}
	lines := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		rec := campaign.RunOne(cfg)
		rec.Index = i
		if lines[i], err = json.Marshal(rec); err != nil {
			b.Fatal(err)
		}
	}
	var shards [2][]byte
	for s := range shards {
		for _, i := range (sweep.Shard{Index: s, Count: len(shards)}).Slice(len(cfgs), campaign.Weights(cfgs)) {
			shards[s] = append(append(shards[s], lines[i]...), '\n')
		}
	}
	b.SetBytes(int64(len(shards[0]) + len(shards[1])))
	b.ReportAllocs()
	for b.Loop() {
		err := sweep.MergeLines([]io.Reader{bytes.NewReader(shards[0]), bytes.NewReader(shards[1])},
			func(int, []byte) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}
