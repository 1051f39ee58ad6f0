package core_test

import (
	"reflect"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

// reactorRig wires one firewalled master with an allow-BRAM policy and a
// reactor with the given budget.
func reactorRig(t *testing.T, threshold int, window uint64) (*sim.Engine, *core.LocalFirewall, *core.Reactor) {
	t.Helper()
	eng := sim.NewEngine(sim.DefaultFrequency)
	b := bus.New(eng, bus.Config{})
	b.AddSlave(mem.NewBRAM("bram", 0x1000_0000, 0x1_0000))
	log := core.NewAlertLog()
	lf := core.NewLocalFirewall(eng, "lf-cpu0", b.NewMaster("cpu0"), core.MustConfig(
		core.Policy{SPI: 1, Zone: core.Zone{Base: 0x1000_0000, Size: 0x1_0000}, RWA: core.ReadWrite, ADF: core.AnyWidth},
	), log)
	lf.Owner = "cpu0"
	r := core.NewReactor(log, threshold, window)
	r.Guard("cpu0", lf.Config())
	return eng, lf, r
}

func probe(t *testing.T, eng *sim.Engine, lf *core.LocalFirewall, addr uint32) bus.Resp {
	t.Helper()
	tx := &bus.Transaction{Op: bus.Write, Addr: addr, Size: 4, Burst: 1, Data: []uint32{1}}
	done := false
	lf.Submit(tx, func(*bus.Transaction) { done = true })
	if _, ok := eng.RunUntil(func() bool { return done }, 100000); !ok {
		t.Fatal("stuck")
	}
	return tx.Resp
}

func TestReactorQuarantinesAfterThreshold(t *testing.T) {
	eng, lf, r := reactorRig(t, 3, 0)
	// Two violations: still under budget, legal traffic flows.
	for i := 0; i < 2; i++ {
		if got := probe(t, eng, lf, 0x7000_0000); got != bus.RespSecurityErr {
			t.Fatalf("violation %d: %v", i, got)
		}
	}
	if r.Quarantined("cpu0") {
		t.Fatal("quarantined below threshold")
	}
	if got := probe(t, eng, lf, 0x1000_0000); got != bus.RespOK {
		t.Fatalf("legal access blocked pre-quarantine: %v", got)
	}
	// Third violation trips the reactor.
	probe(t, eng, lf, 0x7000_0000)
	if !r.Quarantined("cpu0") {
		t.Fatal("not quarantined at threshold")
	}
	if r.Quarantines != 1 {
		t.Fatalf("Quarantines = %d", r.Quarantines)
	}
	// Now even the previously legal zone is cut off — the hijacked IP's
	// exfiltration path through allowed zones is closed.
	if got := probe(t, eng, lf, 0x1000_0000); got != bus.RespSecurityErr {
		t.Fatalf("legal zone still open after quarantine: %v", got)
	}
}

func TestReactorReleaseRestoresPolicy(t *testing.T) {
	eng, lf, r := reactorRig(t, 1, 0)
	probe(t, eng, lf, 0x7000_0000) // single violation quarantines
	if !r.Quarantined("cpu0") {
		t.Fatal("not quarantined")
	}
	if err := r.Release("cpu0"); err != nil {
		t.Fatal(err)
	}
	if r.Quarantined("cpu0") {
		t.Fatal("still quarantined after Release")
	}
	if got := probe(t, eng, lf, 0x1000_0000); got != bus.RespOK {
		t.Fatalf("policy not restored: %v", got)
	}
	if err := r.Release("cpu0"); err == nil {
		t.Fatal("double Release accepted")
	}
}

func TestReactorWindowExpiry(t *testing.T) {
	eng, lf, r := reactorRig(t, 2, 50)
	probe(t, eng, lf, 0x7000_0000)
	// Let the window slide past the first violation.
	eng.Run(100)
	probe(t, eng, lf, 0x7000_0000)
	if r.Quarantined("cpu0") {
		t.Fatal("stale violations counted against the window")
	}
	// Two violations in quick succession do trip it.
	probe(t, eng, lf, 0x7000_0000)
	if !r.Quarantined("cpu0") {
		t.Fatal("burst not quarantined")
	}
}

func TestReactorIgnoresUnguardedMasters(t *testing.T) {
	eng := sim.NewEngine(sim.DefaultFrequency)
	b := bus.New(eng, bus.Config{})
	b.AddSlave(mem.NewBRAM("bram", 0x1000_0000, 0x1000))
	log := core.NewAlertLog()
	lf := core.NewLocalFirewall(eng, "lf-x", b.NewMaster("x"), core.MustConfig(), log)
	r := core.NewReactor(log, 1, 0)
	// No Guard call for "x": alerts must not panic or quarantine.
	tx := &bus.Transaction{Op: bus.Read, Addr: 0x1000_0000, Size: 4, Burst: 1}
	done := false
	lf.Submit(tx, func(*bus.Transaction) { done = true })
	eng.RunUntil(func() bool { return done }, 1000)
	if r.Quarantines != 0 {
		t.Fatal("unguarded master quarantined")
	}
	if r.Quarantined("x") {
		t.Fatal("phantom quarantine")
	}
}

func TestReactorThresholdClamped(t *testing.T) {
	eng, lf, r := reactorRig(t, 0, 0) // clamps to 1
	probe(t, eng, lf, 0x7000_0000)
	if !r.Quarantined("cpu0") {
		t.Fatal("threshold 0 should behave as 1")
	}
}

func TestReactorCountsAlertsFromAnyFirewall(t *testing.T) {
	// Violations detected at a *slave* firewall count against the master
	// and quarantine it at its own (master-side) interface.
	eng := sim.NewEngine(sim.DefaultFrequency)
	b := bus.New(eng, bus.Config{})
	log := core.NewAlertLog()
	ram := mem.NewBRAM("bram", 0x1000_0000, 0x1_0000)
	b.AddSlave(core.NewSlaveFirewall("lf-bram", ram, core.MustConfig(
		core.Policy{SPI: 2, Zone: core.Zone{Base: 0x1000_0000, Size: 0x1_0000}, RWA: core.ReadWrite,
			ADF: core.AnyWidth, Origins: []string{"nobody"}},
	), log))
	lf := core.NewLocalFirewall(eng, "lf-cpu0", b.NewMaster("cpu0"), core.MustConfig(
		core.Policy{SPI: 1, Zone: core.Zone{Base: 0x1000_0000, Size: 0x1_0000}, RWA: core.ReadWrite, ADF: core.AnyWidth},
	), log)
	lf.Owner = "cpu0"
	r := core.NewReactor(log, 1, 0)
	r.Guard("cpu0", lf.Config())
	if got := probe(t, eng, lf, 0x1000_0000); got != bus.RespSecurityErr {
		t.Fatalf("origin-restricted access: %v", got)
	}
	if !r.Quarantined("cpu0") {
		t.Fatal("slave-side alert did not quarantine the master")
	}
}

func TestReactorReleaseNeverQuarantined(t *testing.T) {
	_, _, r := reactorRig(t, 2, 0)
	if err := r.Release("cpu0"); err == nil {
		t.Fatal("releasing a never-quarantined master accepted")
	}
	if err := r.Release("ghost"); err == nil {
		t.Fatal("releasing an unknown master accepted")
	}
}

func TestReactorDoubleRelease(t *testing.T) {
	eng, lf, r := reactorRig(t, 1, 0)
	probe(t, eng, lf, 0x7000_0000)
	if err := r.Release("cpu0"); err != nil {
		t.Fatal(err)
	}
	if err := r.Release("cpu0"); err == nil {
		t.Fatal("double release accepted")
	}
}

func TestReactorReleasePolicyRoundTrip(t *testing.T) {
	eng, lf, r := reactorRig(t, 1, 0)
	before := lf.Config().Policies()
	probe(t, eng, lf, 0x7000_0000)
	if got := lf.Config().RuleCount(); got != 0 {
		t.Fatalf("quarantine left %d rules in the configuration memory", got)
	}
	if err := r.Release("cpu0"); err != nil {
		t.Fatal(err)
	}
	after := lf.Config().Policies()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("policy round trip differs:\nbefore %+v\nafter  %+v", before, after)
	}
}

func TestReactorStampsQuarantineAndRelease(t *testing.T) {
	eng, lf, r := reactorRig(t, 2, 0)
	r.Clock = eng.Now
	fired := []uint64{}
	r.OnEvent(func(e core.ReactorEvent) {
		if e.Kind != core.EventQuarantine && e.Kind != core.EventRequarantine {
			return
		}
		if e.Master != "cpu0" {
			t.Fatalf("quarantine event for %q", e.Master)
		}
		fired = append(fired, e.Cycle)
	})
	probe(t, eng, lf, 0x7000_0000)
	probe(t, eng, lf, 0x7000_0000)
	if len(fired) != 1 {
		t.Fatalf("quarantine events fired %d times", len(fired))
	}
	eng.Run(100)
	if err := r.Release("cpu0"); err != nil {
		t.Fatal(err)
	}
	st := r.RecoverySnapshot()
	if len(st) != 1 {
		t.Fatalf("%d stamps, want 1", len(st))
	}
	s := st[0]
	if s.Master != "cpu0" || s.QuarantinedAt != fired[0] {
		t.Fatalf("stamp %+v, quarantine event at %d", s, fired[0])
	}
	if s.FirstAlert == 0 || s.FirstAlert > s.QuarantinedAt {
		t.Fatalf("first alert %d after quarantine %d", s.FirstAlert, s.QuarantinedAt)
	}
	// probe returns one cycle after the alert fired, so the release lands
	// 100 cycles after that.
	if s.ReleasedAt != s.QuarantinedAt+101 {
		t.Fatalf("released at %d, want %d", s.ReleasedAt, s.QuarantinedAt+101)
	}
	if s.StagedAt != 0 {
		t.Fatalf("one-step release carries a staged stamp: %+v", s)
	}
}

func TestReactorStagedReadmission(t *testing.T) {
	eng, lf, r := reactorRig(t, 1, 0)
	r.Clock = eng.Now
	probe(t, eng, lf, 0x7000_0000)
	if !r.Quarantined("cpu0") {
		t.Fatal("not quarantined")
	}
	// Stage 1: re-admit only the BRAM rule (it is the only saved rule, so
	// admit-by-SPI keeps the test honest about filtering).
	if err := r.ReleaseStaged("cpu0", func(p core.Policy) bool { return p.SPI == 1 }); err != nil {
		t.Fatal(err)
	}
	if !r.Quarantined("cpu0") || !r.Probation("cpu0") {
		t.Fatal("staged release closed the incident")
	}
	if got := probe(t, eng, lf, 0x1000_0000); got != bus.RespOK {
		t.Fatalf("staged rule not restored: %v", got)
	}
	// A violation during probation re-quarantines instantly (threshold 1
	// here, but the point is zero grace even for larger budgets).
	probe(t, eng, lf, 0x7000_0000)
	if !r.Quarantined("cpu0") || r.Probation("cpu0") {
		t.Fatal("probation violation did not re-quarantine")
	}
	if r.Quarantines != 2 {
		t.Fatalf("Quarantines = %d, want 2", r.Quarantines)
	}
	if got := probe(t, eng, lf, 0x1000_0000); got != bus.RespSecurityErr {
		t.Fatalf("re-quarantined master still admitted: %v", got)
	}
	// The whole flap is one continuous incident: one stamp, still open.
	if st := r.RecoverySnapshot(); len(st) != 1 || st[0].ReleasedAt != 0 {
		t.Fatalf("stamps after probation flap: %+v", st)
	}
	// Second staged pass, clean this time, then full release restores the
	// original policy.
	if err := r.ReleaseStaged("cpu0", func(core.Policy) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := r.Release("cpu0"); err != nil {
		t.Fatal(err)
	}
	if got := probe(t, eng, lf, 0x1000_0000); got != bus.RespOK {
		t.Fatalf("policy not restored after staged flap: %v", got)
	}
	st := r.RecoverySnapshot()
	if len(st) != 1 || st[0].StagedAt == 0 || st[0].ReleasedAt == 0 {
		t.Fatalf("final stamp: %+v", st)
	}
}

func TestReactorHistoryCapped(t *testing.T) {
	// The violation history must stay bounded however many alerts arrive:
	// pruned to the window on append, and capped at Threshold even when
	// the window is unbounded (Window == 0 was append-only before the
	// cap) or wider than the burst. Synthetic alerts drive the reactor
	// directly; Threshold is raised after the rig quarantines once so the
	// cap — not the quarantine reset — is what bounds retention.
	for _, window := range []uint64{0, 1 << 40} {
		log := core.NewAlertLog()
		cm := core.MustConfig(core.Policy{SPI: 1, Zone: core.Zone{Base: 0, Size: 0x1000}, RWA: core.ReadWrite, ADF: core.AnyWidth})
		r := core.NewReactor(log, 4, window)
		r.Guard("cpu0", cm)
		for i := 0; i < 3; i++ {
			log.Record(core.Alert{Cycle: uint64(i), Master: "cpu0", Violation: core.VZone})
		}
		// Below threshold: retention equals the alerts seen.
		if got := r.HistoryLen("cpu0"); got != 3 {
			t.Fatalf("window=%d: history %d, want 3", window, got)
		}
		// A runtime threshold drop must not let stale extra entries
		// linger: the cap applies on every append.
		r.Threshold = 2
		log.Record(core.Alert{Cycle: 100, Master: "cpu0", Violation: core.VZone})
		if !r.Quarantined("cpu0") {
			t.Fatalf("window=%d: threshold 2 with 4 alerts did not quarantine", window)
		}
		if got := r.HistoryLen("cpu0"); got != 0 {
			t.Fatalf("window=%d: quarantine left %d history entries", window, got)
		}
	}
	// Sliding window: entries older than the window are pruned on append,
	// so a trickle of violations retains one entry, not the full run.
	log := core.NewAlertLog()
	cm := core.MustConfig(core.Policy{SPI: 1, Zone: core.Zone{Base: 0, Size: 0x1000}, RWA: core.ReadWrite, ADF: core.AnyWidth})
	r := core.NewReactor(log, 100, 10)
	r.Guard("cpu0", cm)
	for i := 0; i < 50; i++ {
		log.Record(core.Alert{Cycle: uint64(i) * 20, Master: "cpu0", Violation: core.VZone})
	}
	if got := r.HistoryLen("cpu0"); got != 1 {
		t.Fatalf("sliding window retained %d entries, want 1", got)
	}
}
