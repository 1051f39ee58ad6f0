package campaign_test

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/spec"
)

var recordSink campaign.Record

// BenchmarkRunOne times the grid-point layer: campaign.RunOne, the
// platform pair's build, the attacked run and its attack-free twin, on
// three distributed secure-scrub points shaped like the dearest points of
// the gated perfbench workloads — campaign-secmem's tamper and dos-flood
// at 320 accesses, and fleet-recovery's dos-flood under a staged recovery.
// The flood points log tens of thousands of alerts each, so the
// allocation figures show the alert log's cost as well as the build's.
func BenchmarkRunOne(b *testing.B) {
	for _, p := range []struct {
		name string
		spec spec.CampaignSpec
	}{
		{"tamper-320", spec.CampaignSpec{Scenarios: []string{"tamper"}, Accesses: 320}},
		{"dos-flood-320", spec.CampaignSpec{Scenarios: []string{"dos-flood"}, Accesses: 320}},
		{"dos-flood-128-recovery", spec.CampaignSpec{Scenarios: []string{"dos-flood"}, Accesses: 128,
			Recovery: &spec.RecoverySpec{Enabled: true, Staged: true, ClearDelay: 2000}}},
	} {
		p.spec.Protections = []string{"distributed"}
		p.spec.Cores = []int{3}
		p.spec.Backgrounds = []string{"secure-scrub"}
		p.spec.InjectDelay = 100
		cfgs, err := spec.NewCampaign(p.spec).Campaign.Grid()
		if err != nil || len(cfgs) != 1 {
			b.Fatalf("%s: %d points, %v", p.name, len(cfgs), err)
		}
		if rec := campaign.RunOne(cfgs[0]); rec.Err != "" || !rec.Completed {
			b.Fatalf("%s: %+v", p.name, rec)
		}
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				recordSink = campaign.RunOne(cfgs[0])
			}
		})
	}
}
