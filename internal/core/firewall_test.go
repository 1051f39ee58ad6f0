package core_test

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

// lfRig wires: master port -> LocalFirewall -> bus -> BRAM at 0x1000_0000.
func lfRig(t *testing.T, rules ...core.Policy) (*sim.Engine, *core.LocalFirewall, *bus.Bus, *core.AlertLog) {
	t.Helper()
	eng := sim.NewEngine(sim.DefaultFrequency)
	b := bus.New(eng, bus.Config{})
	b.AddSlave(mem.NewBRAM("bram", 0x1000_0000, 0x1_0000))
	log := core.NewAlertLog()
	lf := core.NewLocalFirewall(eng, "lf-cpu0", b.NewMaster("cpu0"), core.MustConfig(rules...), log)
	return eng, lf, b, log
}

func run(t *testing.T, eng *sim.Engine, c bus.Conn, tx *bus.Transaction) *bus.Transaction {
	t.Helper()
	done := false
	c.Submit(tx, func(*bus.Transaction) { done = true })
	if _, ok := eng.RunUntil(func() bool { return done }, 100000); !ok {
		t.Fatalf("transaction never completed")
	}
	return tx
}

func TestLFAllowsPermittedAccess(t *testing.T) {
	eng, lf, _, log := lfRig(t,
		core.Policy{SPI: 1, Zone: core.Zone{0x1000_0000, 0x1_0000}, RWA: core.ReadWrite, ADF: core.AnyWidth})
	tx := run(t, eng, lf, &bus.Transaction{Op: bus.Write, Addr: 0x1000_0000, Size: 4, Burst: 1, Data: []uint32{42}})
	if !tx.Resp.OK() {
		t.Fatalf("resp = %v", tx.Resp)
	}
	rd := run(t, eng, lf, &bus.Transaction{Op: bus.Read, Addr: 0x1000_0000, Size: 4, Burst: 1})
	if rd.Data[0] != 42 {
		t.Fatalf("read %d", rd.Data[0])
	}
	if log.Len() != 0 {
		t.Fatalf("alerts raised for legal traffic: %v", log.All())
	}
	st := lf.Stats()
	if st.Checked != 2 || st.Allowed != 2 || st.Blocked != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLFBlocksWriteToReadOnlyZone(t *testing.T) {
	eng, lf, b, log := lfRig(t,
		core.Policy{SPI: 7, Zone: core.Zone{0x1000_0000, 0x1_0000}, RWA: core.ReadOnly, ADF: core.AnyWidth})
	tx := run(t, eng, lf, &bus.Transaction{Op: bus.Write, Addr: 0x1000_0010, Size: 4, Burst: 1, Data: []uint32{1}})
	if tx.Resp != bus.RespSecurityErr {
		t.Fatalf("resp = %v, want SECURITY_ERR", tx.Resp)
	}
	if log.Len() != 1 {
		t.Fatalf("alert count = %d", log.Len())
	}
	a := log.All()[0]
	if a.Violation != core.VAccess || a.FirewallID != "lf-cpu0" || a.SPI != 7 {
		t.Fatalf("alert = %+v", a)
	}
	// The defining property of the distributed scheme: the blocked
	// transfer never reached the bus.
	if s := b.Stats(); s.Completed != 0 {
		t.Fatalf("bus saw %d transactions; master-side block must keep the bus clean", s.Completed)
	}
}

func TestLFBlocksZoneEscape(t *testing.T) {
	eng, lf, _, log := lfRig(t,
		core.Policy{SPI: 1, Zone: core.Zone{0x1000_0000, 0x100}, RWA: core.ReadWrite, ADF: core.AnyWidth})
	tx := run(t, eng, lf, &bus.Transaction{Op: bus.Read, Addr: 0x1000_0200, Size: 4, Burst: 1})
	if tx.Resp != bus.RespSecurityErr {
		t.Fatalf("resp = %v", tx.Resp)
	}
	if a := log.All()[0]; a.Violation != core.VZone {
		t.Fatalf("violation = %v, want zone", a.Violation)
	}
}

func TestLFBlocksFormatViolation(t *testing.T) {
	eng, lf, _, log := lfRig(t,
		core.Policy{SPI: 1, Zone: core.Zone{0x1000_0000, 0x1_0000}, RWA: core.ReadWrite, ADF: core.W32})
	tx := run(t, eng, lf, &bus.Transaction{Op: bus.Write, Addr: 0x1000_0000, Size: 1, Burst: 1, Data: []uint32{0xFF}})
	if tx.Resp != bus.RespSecurityErr {
		t.Fatalf("resp = %v", tx.Resp)
	}
	if a := log.All()[0]; a.Violation != core.VFormat {
		t.Fatalf("violation = %v, want format", a.Violation)
	}
}

func TestLFCheckLatencyIsTwelveCycles(t *testing.T) {
	eng, lf, _, _ := lfRig(t,
		core.Policy{SPI: 1, Zone: core.Zone{0x1000_0000, 0x1_0000}, RWA: core.ReadWrite, ADF: core.AnyWidth})
	issue := eng.Now()
	tx := run(t, eng, lf, &bus.Transaction{Op: bus.Read, Addr: 0x1000_0000, Size: 4, Burst: 1})
	// Table II: SB check = 12 cycles, then bus occupancy (arb 1 + addr 1 +
	// BRAM wait 1 + 1 beat = 4).
	if got := tx.Completed - issue; got != 12+4 {
		t.Fatalf("secured access took %d cycles, want 16", got)
	}
	// A blocked access costs only the check: 12 cycles.
	blocked := run(t, eng, lf, &bus.Transaction{Op: bus.Read, Addr: 0x2000_0000, Size: 4, Burst: 1})
	if got := blocked.Completed - blocked.Issued; got != 12 {
		t.Fatalf("blocked access took %d cycles, want 12", got)
	}
}

func TestLFReadViolationZeroesData(t *testing.T) {
	eng, lf, _, _ := lfRig(t,
		core.Policy{SPI: 1, Zone: core.Zone{0x1000_0000, 0x1_0000}, RWA: core.WriteOnly, ADF: core.AnyWidth})
	tx := &bus.Transaction{Op: bus.Read, Addr: 0x1000_0000, Size: 4, Burst: 1, Data: []uint32{0xDEAD}}
	run(t, eng, lf, tx)
	if tx.Data[0] != 0 {
		t.Fatalf("discarded read leaked data %#x", tx.Data[0])
	}
}

func TestLFRuntimeReconfiguration(t *testing.T) {
	eng, lf, _, _ := lfRig(t,
		core.Policy{SPI: 1, Zone: core.Zone{0x1000_0000, 0x100}, RWA: core.ReadOnly, ADF: core.AnyWidth})
	tx := run(t, eng, lf, &bus.Transaction{Op: bus.Write, Addr: 0x1000_0000, Size: 4, Burst: 1, Data: []uint32{1}})
	if tx.Resp != bus.RespSecurityErr {
		t.Fatal("write should be blocked before reconfiguration")
	}
	// The paper's perspective: reconfiguration of security services.
	lf.Config().Remove(1)
	if err := lf.Config().Add(core.Policy{SPI: 2, Zone: core.Zone{0x1000_0000, 0x100}, RWA: core.ReadWrite, ADF: core.AnyWidth}); err != nil {
		t.Fatal(err)
	}
	tx2 := run(t, eng, lf, &bus.Transaction{Op: bus.Write, Addr: 0x1000_0000, Size: 4, Burst: 1, Data: []uint32{1}})
	if !tx2.Resp.OK() {
		t.Fatalf("write still blocked after reconfiguration: %v", tx2.Resp)
	}
}

// Slave-side firewall tests.

func sfRig(t *testing.T, rules ...core.Policy) (*sim.Engine, *bus.MasterPort, *bus.MasterPort, *core.AlertLog, *mem.BRAM) {
	t.Helper()
	eng := sim.NewEngine(sim.DefaultFrequency)
	b := bus.New(eng, bus.Config{})
	ram := mem.NewBRAM("bram", 0x1000_0000, 0x1_0000)
	log := core.NewAlertLog()
	b.AddSlave(core.NewSlaveFirewall("lf-bram", ram, core.MustConfig(rules...), log))
	return eng, b.NewMaster("cpu0"), b.NewMaster("cpu1"), log, ram
}

func TestSlaveFirewallOriginEnforcement(t *testing.T) {
	eng, cpu0, cpu1, log, ram := sfRig(t,
		core.Policy{SPI: 1, Zone: core.Zone{0x1000_0000, 0x1_0000}, RWA: core.ReadWrite, ADF: core.AnyWidth,
			Origins: []string{"cpu0"}})
	ok := run(t, eng, cpu0, &bus.Transaction{Op: bus.Write, Addr: 0x1000_0000, Size: 4, Burst: 1, Data: []uint32{5}})
	if !ok.Resp.OK() {
		t.Fatalf("cpu0 blocked: %v", ok.Resp)
	}
	bad := run(t, eng, cpu1, &bus.Transaction{Op: bus.Write, Addr: 0x1000_0004, Size: 4, Burst: 1, Data: []uint32{6}})
	if bad.Resp != bus.RespSecurityErr {
		t.Fatalf("cpu1 not blocked: %v", bad.Resp)
	}
	if a := log.All()[0]; a.Violation != core.VOrigin || a.Master != "cpu1" {
		t.Fatalf("alert %+v", a)
	}
	// The protected IP was never touched by the discarded write.
	if got := ram.Store().ReadWord(0x1000_0004); got != 0 {
		t.Fatalf("blocked write modified the IP: %#x", got)
	}
}

func TestSlaveFirewallTransparentGeometry(t *testing.T) {
	_, _, _, _, ram := sfRig(t)
	fw := core.NewSlaveFirewall("x", ram, core.MustConfig(), core.NewAlertLog())
	if fw.Base() != ram.Base() || fw.Size() != ram.Size() || fw.Name() != ram.Name() {
		t.Fatal("firewall does not mirror the protected slave's geometry")
	}
	if fw.FirewallID() != "x" || fw.Inner() != bus.Slave(ram) {
		t.Fatal("identity accessors wrong")
	}
}

func TestSlaveFirewallDiscardZeroesReadData(t *testing.T) {
	eng, cpu0, _, _, ram := sfRig(t,
		core.Policy{SPI: 1, Zone: core.Zone{0x1000_0000, 0x1_0000}, RWA: core.ReadWrite, ADF: core.AnyWidth,
			Origins: []string{"nobody"}})
	ram.Store().WriteWord(0x1000_0000, 0x5EC12E7)
	tx := run(t, eng, cpu0, &bus.Transaction{Op: bus.Read, Addr: 0x1000_0000, Size: 4, Burst: 1})
	if tx.Resp != bus.RespSecurityErr {
		t.Fatalf("resp = %v", tx.Resp)
	}
	if tx.Data[0] != 0 {
		t.Fatalf("secret leaked through discarded read: %#x", tx.Data[0])
	}
}

func TestAlertLogAggregation(t *testing.T) {
	log := core.NewAlertLog()
	log.Record(core.Alert{Cycle: 5, FirewallID: "a", Violation: core.VZone})
	log.Record(core.Alert{Cycle: 9, FirewallID: "a", Violation: core.VAccess})
	log.Record(core.Alert{Cycle: 12, FirewallID: "b", Violation: core.VZone})
	if log.Len() != 3 {
		t.Fatalf("Len = %d", log.Len())
	}
	byV := log.CountByViolation()
	if byV[core.VZone] != 2 || byV[core.VAccess] != 1 {
		t.Fatalf("CountByViolation = %v", byV)
	}
	byF := log.CountByFirewall()
	if byF["a"] != 2 || byF["b"] != 1 {
		t.Fatalf("CountByFirewall = %v", byF)
	}
	if n, first := log.Since(9); n != 2 || first == nil || first.Cycle != 9 {
		t.Fatalf("Since(9) = %d alerts, first %+v", n, first)
	}
	first := log.First(func(a core.Alert) bool { return a.FirewallID == "b" })
	if first == nil || first.Cycle != 12 {
		t.Fatalf("First = %+v", first)
	}
	if log.First(func(a core.Alert) bool { return false }) != nil {
		t.Fatal("First with no match should be nil")
	}
	log.Reset()
	if log.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestAlertString(t *testing.T) {
	a := core.Alert{Cycle: 3, FirewallID: "lf-x", Master: "cpu1", Violation: core.VFormat,
		Op: bus.Write, Addr: 0x1234, Size: 2, Detail: "w16 banned"}
	s := a.String()
	for _, want := range []string{"lf-x", "cpu1", "format", "0x1234", "w16 banned"} {
		if !contains(s, want) {
			t.Errorf("Alert.String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
