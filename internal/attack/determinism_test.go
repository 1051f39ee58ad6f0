package attack_test

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/soc"
)

// TestCampaignDeterministic: the entire attack campaign is bit-identical
// across runs — the property every reported attack number rests on.
func TestCampaignDeterministic(t *testing.T) {
	run := func() []attack.Outcome { return attack.All(soc.Distributed) }
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("campaign lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scenario %s diverged:\n  %+v\n  %+v", a[i].Scenario, a[i], b[i])
		}
	}
}

func TestDoSDeterministic(t *testing.T) {
	a, b := attack.DoS(soc.Unprotected), attack.DoS(soc.Unprotected)
	if a.VictimCycles != b.VictimCycles || a.BaselineCycles != b.BaselineCycles {
		t.Fatalf("DoS non-deterministic: %d/%d vs %d/%d",
			a.VictimCycles, a.BaselineCycles, b.VictimCycles, b.BaselineCycles)
	}
}

// TestOutcomesCarryProtectionLabel guards the reporting path.
func TestOutcomesCarryProtectionLabel(t *testing.T) {
	for _, o := range attack.All(soc.Centralized) {
		if o.Protection != soc.Centralized {
			t.Fatalf("%s labeled %v", o.Scenario, o.Protection)
		}
	}
}
