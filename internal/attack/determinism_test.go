package attack_test

import (
	"reflect"
	"testing"

	"repro/internal/attack"
	"repro/internal/soc"
)

// TestCampaignDeterministic: the entire attack campaign is bit-identical
// across runs — the property every reported attack number rests on.
func TestCampaignDeterministic(t *testing.T) {
	for _, sc := range attack.DefaultNames() {
		a, b := run(t, sc, soc.Distributed), run(t, sc, soc.Distributed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("scenario %s diverged:\n  %+v\n  %+v", sc, a, b)
		}
	}
}

func TestDoSDeterministic(t *testing.T) {
	a, b := dos(t, soc.Unprotected), dos(t, soc.Unprotected)
	if a.AttackCycles != b.AttackCycles || a.TwinCycles != b.TwinCycles {
		t.Fatalf("DoS non-deterministic: %d/%d vs %d/%d",
			a.AttackCycles, a.TwinCycles, b.AttackCycles, b.TwinCycles)
	}
}

// TestOutcomesCarryProtectionLabel guards the reporting path.
func TestOutcomesCarryProtectionLabel(t *testing.T) {
	for _, sc := range attack.DefaultNames() {
		if o := run(t, sc, soc.Centralized); o.Protection != soc.Centralized.String() {
			t.Fatalf("%s labeled %v", o.Scenario, o.Protection)
		}
	}
}
