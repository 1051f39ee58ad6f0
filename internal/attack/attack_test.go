package attack_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/soc"
)

// run fires the named scenario on an otherwise idle platform: the campaign
// grid point with no background load.
func run(t *testing.T, scenario string, p soc.Protection) campaign.Record {
	t.Helper()
	r := campaign.RunOne(campaign.Config{Scenario: scenario, Protection: p, Background: "none"})
	if r.Err != "" {
		t.Fatalf("%s: %s", r.Name, r.Err)
	}
	return r
}

// dos runs experiment E3's grid point: cpu2 floods an address outside its
// policy while cpu0 and cpu1 each stream 512 BRAM words, and the same
// streams on the attack-free twin are the baseline.
func dos(t *testing.T, p soc.Protection) campaign.Record {
	t.Helper()
	r := campaign.RunOne(campaign.Config{Scenario: "dos-flood", Protection: p,
		NumCores: 3, Background: "stream", Accesses: 512})
	if r.Err != "" || !r.Completed {
		t.Fatalf("%s did not complete: %s", r.Name, r.Err)
	}
	return r
}

// floodBusShare reads the flood's share of completed bus transactions from
// the dos-flood verdict note ("flood bus share 31%"). The note rounds to a
// whole percent, so it returns the interval [lo, hi] the share lies in; a
// bound holds only if it holds over the whole interval.
func floodBusShare(t *testing.T, r campaign.Record) (lo, hi float64) {
	t.Helper()
	_, share, ok := strings.Cut(r.Goal, "flood bus share ")
	pct, err := strconv.Atoi(strings.TrimSuffix(share, "%"))
	if !ok || err != nil {
		t.Fatalf("%s: no flood bus share in %q", r.Name, r.Goal)
	}
	return (float64(pct) - 0.5) / 100, (float64(pct) + 0.5) / 100
}

// TestExternalAttacksSucceedUnprotected keeps the threat model honest: on
// the generic platform every external-memory attack reaches its goal and
// nothing notices.
func TestExternalAttacksSucceedUnprotected(t *testing.T) {
	for _, sc := range []string{"tamper", "replay", "relocation", "spoof"} {
		o := run(t, sc, soc.Unprotected)
		if o.Detected {
			t.Errorf("%s: detected on unprotected platform?!", o.Scenario)
		}
		if o.Contained {
			t.Errorf("%s: attack failed even without protection — scenario broken (%s)", o.Scenario, o.Goal)
		}
	}
}

// TestExternalAttacksDetectedAndContainedDistributed is the paper's core
// security claim for the LCF.
func TestExternalAttacksDetectedAndContainedDistributed(t *testing.T) {
	for _, sc := range []string{"tamper", "replay", "relocation", "spoof"} {
		o := run(t, sc, soc.Distributed)
		if !o.Detected {
			t.Errorf("%s: not detected (%s)", o.Scenario, o.Goal)
		}
		if !o.Contained {
			t.Errorf("%s: not contained (%s)", o.Scenario, o.Goal)
		}
	}
}

func TestReplayClassifiedAsReplay(t *testing.T) {
	o := run(t, "replay", soc.Distributed)
	if o.Violation != core.VReplay.String() {
		t.Errorf("replay classified as %v", o.Violation)
	}
}

func TestTamperClassifiedAsIntegrity(t *testing.T) {
	o := run(t, "tamper", soc.Distributed)
	if o.Violation != core.VIntegrity.String() && o.Violation != core.VReplay.String() {
		t.Errorf("tamper classified as %v", o.Violation)
	}
}

// TestCentralizedMissesExternalAttacks: the SECA-style baseline checks bus
// rules only — it has no external-memory protection, so all four attacks
// succeed silently. This is the architectural gap the LCF fills.
func TestCentralizedMissesExternalAttacks(t *testing.T) {
	for _, sc := range []string{"tamper", "replay", "relocation", "spoof"} {
		o := run(t, sc, soc.Centralized)
		if o.Detected || o.Contained {
			t.Errorf("%s: centralized baseline unexpectedly handled it (%s)", o.Scenario, o.Goal)
		}
	}
}

func TestHijackAttacksContainedDistributed(t *testing.T) {
	for _, sc := range []string{"zone-escape", "dma-hijack", "format-abuse"} {
		o := run(t, sc, soc.Distributed)
		if !o.Detected || !o.Contained {
			t.Errorf("%s: detected=%v contained=%v (%s)", o.Scenario, o.Detected, o.Contained, o.Goal)
		}
	}
}

func TestHijackAttacksSucceedUnprotected(t *testing.T) {
	for _, sc := range []string{"zone-escape", "dma-hijack"} {
		o := run(t, sc, soc.Unprotected)
		if o.Detected {
			t.Errorf("%s: phantom detection on unprotected platform", o.Scenario)
		}
		if o.Contained {
			t.Errorf("%s: hijack failed without protection — scenario broken (%s)", o.Scenario, o.Goal)
		}
	}
}

func TestHijackAttacksDetectedCentralized(t *testing.T) {
	// Bus-rule attacks ARE the centralized baseline's home turf: it must
	// catch them too (at higher cost — see E5 in testdata/paper.golden).
	for _, sc := range []string{"zone-escape", "dma-hijack"} {
		o := run(t, sc, soc.Centralized)
		if !o.Detected || !o.Contained {
			t.Errorf("%s: centralized missed a bus-rule attack: detected=%v contained=%v (%s)",
				o.Scenario, o.Detected, o.Contained, o.Goal)
		}
	}
}

func TestDetectionLatencyIsBounded(t *testing.T) {
	// §III-C: "the system must react as fast as possible". A hijacked-IP
	// violation must be flagged within the SB check window plus a couple
	// of pipeline cycles, not after the transfer completed.
	o := run(t, "zone-escape", soc.Distributed)
	if !o.Detected {
		t.Fatal("not detected")
	}
	if o.DetectLatency > 200 {
		t.Errorf("detection took %d cycles", o.DetectLatency)
	}
}

func TestDoSContainmentDistributed(t *testing.T) {
	d := dos(t, soc.Distributed)
	if !d.Detected {
		t.Error("flood not detected")
	}
	if !d.Contained {
		t.Errorf("bystanders slowed %.2fx by a flood the firewall should absorb (%s)", d.Slowdown, d.Goal)
	}
	if _, hi := floodBusShare(t, d); hi > 0.01 {
		t.Errorf("flood reached the bus: %s", d.Goal)
	}
}

func TestDoSHurtsUnprotected(t *testing.T) {
	d := dos(t, soc.Unprotected)
	if d.Slowdown < 1.5 {
		t.Errorf("flood barely hurt the unprotected bystanders (%.2fx) — scenario broken", d.Slowdown)
	}
	if lo, _ := floodBusShare(t, d); lo < 0.3 {
		t.Errorf("flood bus share only %s", d.Goal)
	}
}

func TestDoSHurtsCentralizedMore(t *testing.T) {
	// The SEM serializes every check, so a flood congests *everyone*.
	cent := dos(t, soc.Centralized)
	dist := dos(t, soc.Distributed)
	if cent.Slowdown <= dist.Slowdown {
		t.Errorf("centralized slowdown %.2fx not worse than distributed %.2fx",
			cent.Slowdown, dist.Slowdown)
	}
}

// TestAllRunsEveryScenario: every injectable scenario runs through the
// campaign on the idle distributed platform, once, and reports a verdict.
func TestAllRunsEveryScenario(t *testing.T) {
	names := attack.Names()
	if len(names) != 10 {
		t.Fatalf("Names lists %d scenarios, want 10", len(names))
	}
	seen := map[string]bool{}
	for _, sc := range names {
		if seen[sc] {
			t.Errorf("duplicate scenario %s", sc)
		}
		seen[sc] = true
		o := run(t, sc, soc.Distributed)
		if o.Scenario != sc || o.Name == "" || o.Goal == "" {
			t.Errorf("%s: empty scenario metadata: %+v", sc, o)
		}
	}
}

// TestCipherOnlyZoneVulnerableByDesign pins the paper's §III-B analysis:
// a ciphered-but-unauthenticated zone resists disclosure but not
// corruption-DoS — on every architecture, including the distributed one.
func TestCipherOnlyZoneVulnerableByDesign(t *testing.T) {
	for _, p := range []soc.Protection{soc.Unprotected, soc.Distributed} {
		o := run(t, "cipher-only-tamper", p)
		if o.Detected {
			t.Errorf("%v: cipher-only tamper detected?! (%s)", p, o.Goal)
		}
		if o.Contained {
			t.Errorf("%v: cipher-only tamper contained?! (%s)", p, o.Goal)
		}
	}
	// Confidentiality still holds on the distributed platform: the
	// stored bytes are ciphertext.
	s := soc.MustNew(soc.Config{Protection: soc.Distributed})
	s.HaltIdleCores()
	if got := s.DDR.Store().ReadWord(soc.CipherBase); got == 0 {
		// Sealed zone: even all-zero plaintext encrypts to nonzero.
		t.Error("cipher zone stored plaintext zeros")
	}
}
