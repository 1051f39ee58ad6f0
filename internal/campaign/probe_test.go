package campaign

import (
	"strings"
	"testing"

	"repro/internal/soc"
)

// stalledDDR returns a pair constructor whose attacked platform's external
// memory stops answering at cycle at: from then on a DDR access takes
// longer than any probe's budget.
func stalledDDR(at uint64) func(soc.Config) (*soc.Pair, error) {
	return func(cfg soc.Config) (*soc.Pair, error) {
		p, err := soc.NewPair(cfg)
		if err != nil {
			return nil, err
		}
		p.Attacked.Eng.ScheduleAt(at, func(uint64) { p.Attacked.DDR.FirstAccess = 1 << 40 })
		return p, nil
	}
}

// TestUnfinishedVictimAccessIsAnError: a victim access that does not
// complete is no measurement. A victim read that never completes gives
// the record an error naming it, and the record claims neither detection
// nor containment; a Setup write that never completes fails the run the
// same way.
func TestUnfinishedVictimAccessIsAnError(t *testing.T) {
	cfg := Config{Scenario: "tamper", Protection: soc.Distributed, Background: "none"}
	ref := RunOne(cfg)
	if ref.Err != "" || !ref.Detected || !ref.Contained {
		t.Fatalf("reference run: %+v", ref)
	}
	for _, tc := range []struct {
		name   string
		stall  uint64
		access string
	}{
		{"read", ref.InjectCycle, "victim read"},
		{"setup write", 0, "victim write"},
	} {
		rec := runOne(cfg, nil, stalledDDR(tc.stall))
		if !strings.Contains(rec.Err, tc.access) {
			t.Fatalf("%s: record error %q does not name the %s", tc.name, rec.Err, tc.access)
		}
		if rec.Detected || rec.Contained {
			t.Fatalf("%s: record claims detected=%v contained=%v without a completed %s",
				tc.name, rec.Detected, rec.Contained, tc.access)
		}
	}
}
