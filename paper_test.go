package repro_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/aes"
	"repro/internal/area"
	"repro/internal/bus"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/hashtree"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/spec"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.golden from current output")

// TestPaperGolden renders the paper's evaluation into one text and fails
// on any byte difference from testdata/paper.golden: Table I (area), Table
// II (module latencies) with the per-zone access costs they compose into,
// Figure 1 (the platform), each protection's bill of materials, the
// quantified prose claims E1–E6, four ablations of this reproduction's
// modeling choices, and the `make attack` detection matrix. A change that
// moves a simulated cycle shows the paper numbers it moves as a golden
// diff. If the change is intentional, regenerate with
//
//	go test -run TestPaperGolden . -update
func TestPaperGolden(t *testing.T) {
	var out bytes.Buffer
	for i, render := range []func(*testing.T) string{
		table1, table2, zoneCosts, figure1, billsOfMaterials,
		e1OverheadVsCommRatio, e2AreaVsRuleCount, e3AttackContainment,
		e4ThreatCoverage, e5DistributedVsCentralized, e6ScalingWithCoreCount,
		ablationTreeCache, ablationArbitration, ablationCheckCycles, ablationQuarantine,
		attackMatrix,
	} {
		if i > 0 {
			out.WriteByte('\n')
		}
		out.WriteString(render(t))
	}
	checkGolden(t, "paper.golden", out.Bytes())
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestPaperGolden . -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		at := func(lines []string) string {
			if i < len(lines) {
				return lines[i]
			}
			return "<end of file>"
		}
		t.Fatalf("%s drifted from golden output at line %d:\n got: %q\nwant: %q\n"+
			"If the change is intentional, regenerate with -update and review the diff.",
			path, i+1, at(g), at(w))
	}
}

// probe submits tx on c and runs eng until it completes, failing the test
// if it does not within budget, and returns the transaction's latency.
func probe(t *testing.T, eng *sim.Engine, c bus.Conn, tx *bus.Transaction, budget uint64) uint64 {
	t.Helper()
	done := false
	c.Submit(tx, func(*bus.Transaction) { done = true })
	if _, ok := eng.RunUntil(func() bool { return done }, budget); !ok {
		t.Fatalf("%v %#x did not complete within %d cycles", tx.Op, tx.Addr, budget)
	}
	return tx.Completed - tx.Issued
}

// table1 regenerates Table I: synthesis results of the multiprocessor
// system with and without firewalls, plus the per-module breakdown.
func table1(*testing.T) string { return area.RenderTable1() }

// table2 regenerates Table II: per-module latency and throughput of the
// firewall pipeline. The SB figure is measured by timing a discarded
// transfer through a Local Firewall: a blocked access costs exactly the
// rule-check latency and nothing else. CC and IC come from the hardware
// timing descriptors; zoneCosts shows them composing on a live LCF.
func table2(t *testing.T) string {
	freq := sim.DefaultFrequency
	eng := sim.NewEngine(freq)
	bs := bus.New(eng, bus.Config{})
	bs.AddSlave(mem.NewBRAM("bram", 0x1000_0000, 0x1000))
	lf := core.NewLocalFirewall(eng, "lf", bs.NewMaster("m"),
		core.MustConfig(core.Policy{SPI: 1, Zone: core.Zone{Base: 0x1000_0000, Size: 0x1000},
			RWA: core.ReadOnly, ADF: core.AnyWidth}), core.NewAlertLog())
	sb := probe(t, eng, lf, &bus.Transaction{Op: bus.Write, Addr: 0x1000_0000, Size: 4, Burst: 1, Data: []uint32{1}}, 1000)
	cc := aes.DefaultTiming
	ic := hashtree.DefaultTiming
	tb := trace.NewTable("Table II — latency results of the firewalls (measured)",
		"module", "nb. of clk cycles", "throughput (Mb/s)")
	tb.AddRow("SB (LF/LCF)", fmt.Sprintf("%d", sb), "-")
	tb.AddRow("CC", fmt.Sprintf("%d", cc.Latency), fmt.Sprintf("%.0f", cc.ThroughputMbps(uint64(freq))))
	tb.AddRow("IC", fmt.Sprintf("%d", ic.Latency), fmt.Sprintf("%.0f", ic.ThroughputMbps(uint64(freq))))
	return tb.String()
}

// zoneCosts measures a single word read and write to each DDR zone and to
// the internal BRAM on the protected platform: how Table II's module
// latencies compose end to end, and the number behind the paper's advice
// to favor internal communication.
func zoneCosts(t *testing.T) string {
	tb := trace.NewTable("measured end-to-end access cost (distributed platform, probe master)",
		"target", "read (cycles)", "write (cycles)")
	s := soc.MustNew(soc.Config{Protection: soc.Distributed})
	s.HaltIdleCores()
	m := s.Bus.NewMaster("probe")
	measure := func(op bus.Op, addr uint32) uint64 {
		return probe(t, s.Eng, m, &bus.Transaction{Op: op, Addr: addr, Size: 4, Burst: 1, Data: []uint32{0xDA7A}}, 1_000_000)
	}
	for _, z := range []struct {
		name string
		addr uint32
	}{
		{"bram (internal)", soc.BRAMBase},
		{"ddr plain", soc.PlainBase},
		{"ddr cipher (CM)", soc.CipherBase},
		{"ddr secure (CM+IM)", soc.SecureBase},
	} {
		rd := measure(bus.Read, z.addr)
		wr := measure(bus.Write, z.addr)
		tb.AddRow(z.name, fmt.Sprintf("%d", rd), fmt.Sprintf("%d", wr))
	}
	return tb.String()
}

// figure1 regenerates Figure 1: the distributed architecture with its
// security enhancements, as the executable platform topology.
func figure1(*testing.T) string {
	return soc.MustNew(soc.Config{Protection: soc.Distributed}).Topology()
}

// billsOfMaterials reports the area model's bill of materials of each
// platform as built: the per-instance cost behind Table I's totals.
func billsOfMaterials(*testing.T) string {
	var boms []string
	for _, p := range []soc.Protection{soc.Unprotected, soc.Distributed, soc.Centralized} {
		boms = append(boms, area.RenderReport(area.FromSystem(soc.MustNew(soc.Config{Protection: p}))))
	}
	return strings.Join(boms, "\n")
}

// e1OverheadVsCommRatio is experiment E1: the paper's §V claim that the
// protection overhead depends on the computation/communication ratio and
// on the internal-vs-external traffic split.
func e1OverheadVsCommRatio(t *testing.T) string {
	run := func(p soc.Protection, target uint32, span uint32, iters int) uint64 {
		s := soc.MustNew(soc.Config{Protection: p})
		s.HaltIdleCores(0)
		s.MustLoad(0, workload.Mix(target, span, 4, 100, iters))
		c, ok := s.Run(100_000_000)
		if !ok {
			t.Fatal("E1: workload did not finish")
		}
		return c
	}
	tb := trace.NewTable("E1 — execution-time overhead of the firewalls vs computation:communication ratio",
		"traffic", "compute iters per access", "overhead")
	for _, tgt := range []struct {
		name string
		base uint32
		span uint32
	}{
		{"internal (bram)", soc.BRAMBase, 0x1000},
		{"external (secure ddr)", soc.SecureBase, 0x1000},
	} {
		for _, iters := range []int{0, 4, 16, 64, 256} {
			plain := run(soc.Unprotected, tgt.base, tgt.span, iters)
			prot := run(soc.Distributed, tgt.base, tgt.span, iters)
			tb.AddRow(tgt.name, fmt.Sprintf("%d", iters),
				fmt.Sprintf("%+.1f%%", (float64(prot)-float64(plain))/float64(plain)*100))
		}
	}
	return tb.String()
}

// e2AreaVsRuleCount is experiment E2: firewall area as a function of the
// number of monitored security rules (the paper's stated future work and
// its "more aggressive policy costs more area" remark).
func e2AreaVsRuleCount(*testing.T) string {
	tb := trace.NewTable("E2 — Local Firewall area vs number of security rules",
		"rules", "Slice LUTs", "platform Slice LUTs (5 LFs)")
	for _, rules := range []int{1, 2, 4, 6, 8, 16, 32, 64} {
		lf := area.LocalFirewall(rules)
		platform := area.BaseSystem(3).Total().
			Add(lf.Scale(5)).
			Add(area.InterfaceAdapter().Scale(5)).
			Add(area.LCF(area.CalibSBRules, area.CalibICBits)).
			Add(area.SecurityController())
		tb.AddRow(fmt.Sprintf("%d", rules), trace.Comma(lf.LUTs), trace.Comma(platform.LUTs))
	}
	return tb.String()
}

// e3AttackContainment is experiment E3: a hijacked IP floods the bus, and
// the bystanders' slowdown quantifies §III-C's containment requirement
// ("the attack must not reach the communication architecture"). The rows
// are the dos-flood/stream points of the `make attack` grid: cpu2 floods
// an address outside its policy while cpu0 and cpu1 each stream 512 BRAM
// words, and the same streams on the attack-free twin are the baseline.
func e3AttackContainment(t *testing.T) string {
	tb := trace.NewTable("E3 — DoS flood containment (bystanders: 512-word BRAM streams on cpu0 and cpu1)",
		"protection", "bystander slowdown", "flood bus share", "detected", "contained")
	for _, cfg := range attackGrid(t) {
		if cfg.Scenario != "dos-flood" || cfg.Background != "stream" {
			continue
		}
		r := campaign.RunOne(cfg)
		if r.Err != "" || !r.Completed {
			t.Fatalf("E3: %s did not complete: %s", r.Name, r.Err)
		}
		_, share, ok := strings.Cut(r.Goal, "flood bus share ")
		if !ok {
			t.Fatalf("E3: %s: no flood bus share in %q", r.Name, r.Goal)
		}
		tb.AddRow(r.Protection,
			fmt.Sprintf("%.2fx", r.Slowdown),
			share,
			fmt.Sprintf("%v", r.Detected),
			fmt.Sprintf("%v", r.Contained))
	}
	return tb.String()
}

// e4ThreatCoverage is experiment E4: the full §III threat model run
// against all three architectures, each attack fired on an otherwise idle
// platform.
func e4ThreatCoverage(t *testing.T) string {
	tb := trace.NewTable("E4 — threat-model coverage (detected/contained per scenario)",
		"scenario", "unprotected", "centralized-sem", "distributed-firewalls")
	for _, sc := range []string{"tamper", "replay", "relocation", "spoof", "zone-escape", "dma-hijack", "format-abuse"} {
		row := []string{sc}
		for _, p := range []soc.Protection{soc.Unprotected, soc.Centralized, soc.Distributed} {
			r := campaign.RunOne(campaign.Config{Scenario: sc, Protection: p, Background: "none"})
			if r.Err != "" || !r.Completed {
				t.Fatalf("E4: %s did not complete: %s", r.Name, r.Err)
			}
			row = append(row, fmt.Sprintf("det=%v cont=%v", r.Detected, r.Contained))
		}
		tb.AddRow(row...)
	}
	return tb.String()
}

// e5DistributedVsCentralized is experiment E5: per-access cost and
// serialization of the distributed scheme versus the SECA-style global
// SEM, under one and three active masters.
func e5DistributedVsCentralized(t *testing.T) string {
	measure := func(p soc.Protection) (c1, c3 uint64) {
		one := soc.MustNew(soc.Config{Protection: p})
		one.HaltIdleCores(0)
		one.MustLoad(0, workload.Mix(soc.BRAMBase, 0x1000, 4, 100, 0))
		c1, ok := one.Run(100_000_000)
		if !ok {
			t.Fatal("E5: 1-core run stuck")
		}
		three := soc.MustNew(soc.Config{Protection: p})
		for i := 0; i < 3; i++ {
			three.MustLoad(i, workload.Mix(soc.BRAMBase+uint32(i)*0x1000, 0x1000, 4, 100, 0))
		}
		c3, ok = three.Run(100_000_000)
		if !ok {
			t.Fatal("E5: 3-core run stuck")
		}
		return c1, c3
	}
	tb := trace.NewTable("E5 — distributed vs centralized check cost (100 accesses/core)",
		"protection", "1 core (cycles)", "3 cores (cycles)", "3-core scaling")
	for _, r := range []struct {
		name string
		p    soc.Protection
	}{{"unprotected", soc.Unprotected}, {"distributed-firewalls", soc.Distributed}, {"centralized-sem", soc.Centralized}} {
		c1, c3 := measure(r.p)
		tb.AddRow(r.name, trace.Comma(c1), trace.Comma(c3), fmt.Sprintf("%.2fx", float64(c3)/float64(c1)))
	}
	return tb.String()
}

// e6ScalingWithCoreCount is experiment E6: the processor count sweep. The
// distributed scheme's per-interface checks scale with the platform while
// the centralized SEM becomes the serial bottleneck — the architectural
// argument of the paper quantified beyond its 3-core case study.
func e6ScalingWithCoreCount(t *testing.T) string {
	measure := func(p soc.Protection, n int) uint64 {
		s := soc.MustNew(soc.Config{Protection: p, NumCores: n})
		for i := 0; i < n; i++ {
			s.MustLoad(i, workload.Mix(soc.BRAMBase+uint32(i)*0x800, 0x800, 4, 100, 0))
		}
		cycles, ok := s.Run(100_000_000)
		if !ok {
			t.Fatal("E6: scaling run stuck")
		}
		return cycles
	}
	tb := trace.NewTable("E6 — cycles to finish 100 accesses/core vs core count",
		"cores", "unprotected", "distributed", "centralized", "dist overhead", "cent overhead")
	for _, n := range []int{1, 2, 4, 8} {
		un, di, ce := measure(soc.Unprotected, n), measure(soc.Distributed, n), measure(soc.Centralized, n)
		tb.AddRow(fmt.Sprintf("%d", n),
			trace.Comma(un), trace.Comma(di), trace.Comma(ce),
			fmt.Sprintf("%.2fx", float64(di)/float64(un)),
			fmt.Sprintf("%.2fx", float64(ce)/float64(un)))
	}
	return tb.String()
}

// --- Ablations: one modeling choice of this reproduction at a time. ---

// ablationTreeCache sweeps the LCF's verified-node cache and measures the
// average secure-zone read cost over a 64-read walk: the cache turns deep
// cold verifies into near-constant checks.
func ablationTreeCache(t *testing.T) string {
	tb := trace.NewTable("Ablation — verified-node cache vs secure read cost (64 reads over 16 leaves)",
		"cache entries", "avg read (cycles)")
	for _, size := range []int{-1, 16, 64, 256} {
		s := soc.MustNew(soc.Config{Protection: soc.Distributed, TreeCacheSize: size})
		s.HaltIdleCores()
		m := s.Bus.NewMaster("probe")
		var total uint64
		const reads = 64
		for i := 0; i < reads; i++ {
			total += probe(t, s.Eng, m, &bus.Transaction{Op: bus.Read, Addr: soc.SecureBase + uint32(i%16)*64, Size: 4, Burst: 1}, 1_000_000)
		}
		label := fmt.Sprintf("%d", size)
		if size < 0 {
			label = "disabled"
		}
		tb.AddRow(label, fmt.Sprintf("%.0f", float64(total)/reads))
	}
	return tb.String()
}

// ablationArbitration compares round-robin and fixed-priority arbitration
// under a saturating flood from a higher-priority master: a hog with a
// deep queue of DDR writes vs a victim issuing dependent BRAM reads. A CPU
// cannot keep the queue deep (one outstanding access), so this uses raw
// masters; it isolates the fairness property of the arbiter the protected
// platform relies on.
func ablationArbitration(t *testing.T) string {
	measure := func(name string, arb bus.Arbitration) uint64 {
		eng := sim.NewEngine(sim.DefaultFrequency)
		bs := bus.New(eng, bus.Config{Arbitration: arb})
		bs.AddSlave(mem.NewBRAM("bram", 0x1000_0000, 0x1000))
		bs.AddSlave(mem.NewDDR("ddr", 0x4000_0000, 0x1000))
		hog := bs.NewMaster("hog")       // index 0: favored by fixed priority
		victim := bs.NewMaster("victim") // index 1
		for i := 0; i < 300; i++ {
			hog.Submit(&bus.Transaction{Op: bus.Write, Addr: 0x4000_0000, Size: 4, Burst: 1,
				Data: []uint32{0}}, nil)
		}
		var lastDone uint64
		remaining := 64
		var issue func()
		issue = func() {
			victim.Submit(&bus.Transaction{Op: bus.Read, Addr: 0x1000_0000, Size: 4, Burst: 1},
				func(tx *bus.Transaction) {
					lastDone = tx.Completed
					remaining--
					if remaining > 0 {
						issue()
					}
				})
		}
		issue()
		if _, ok := eng.RunUntil(func() bool { return remaining == 0 }, 5_000_000); !ok {
			t.Fatalf("arbitration ablation: victim unfinished under %s", name)
		}
		return lastDone
	}
	tb := trace.NewTable("Ablation — arbitration under a deep-queue flood (victim: 64 dependent BRAM reads)",
		"arbitration", "victim finish (cycle)")
	for _, a := range []struct {
		name string
		arb  bus.Arbitration
	}{{"round-robin", bus.RoundRobin}, {"fixed-priority (hog favored)", bus.FixedPriority}} {
		tb.AddRow(a.name, trace.Comma(measure(a.name, a.arb)))
	}
	return tb.String()
}

// ablationCheckCycles sweeps the Security Builder latency: how sensitive
// is the workload overhead to the paper's 12-cycle rule check?
func ablationCheckCycles(t *testing.T) string {
	tb := trace.NewTable("Ablation — SB check latency vs workload cost (100 internal accesses)",
		"SB cycles", "workload cycles")
	for _, check := range []uint64{1, 6, 12, 24, 48} {
		s := soc.MustNew(soc.Config{Protection: soc.Distributed, CheckCycles: check})
		s.HaltIdleCores(0)
		s.MustLoad(0, workload.Mix(soc.BRAMBase, 0x1000, 4, 100, 0))
		cycles, ok := s.Run(50_000_000)
		if !ok {
			t.Fatalf("check-cycles ablation: workload unfinished at %d SB cycles", check)
		}
		tb.AddRow(fmt.Sprintf("%d", check), trace.Comma(cycles))
	}
	return tb.String()
}

// ablationQuarantine measures the reaction controller: a hijacked core
// makes a few violations and then floods a zone it is *allowed* to use.
// Without the reactor the legal-looking flood contends with the victim
// forever; with it, the earlier violations cost the attacker its bus
// access entirely.
func ablationQuarantine(t *testing.T) string {
	attackerProgram := fmt.Sprintf(`
		li r1, 0x70000000
		sw r0, 0(r1)          ; violation 1
		sw r0, 4(r1)          ; violation 2
		sw r0, 8(r1)          ; violation 3
		li r1, %#x
	flood:
		sw r0, 0(r1)          ; legal-zone flood (contention attack)
		b flood
	`, soc.PlainBase)
	measure := func(threshold int) uint64 {
		s := soc.MustNew(soc.Config{Protection: soc.Distributed, QuarantineThreshold: threshold})
		s.HaltIdleCores(0, 2)
		s.MustLoad(0, workload.Stream(soc.PlainBase+0x8000, 128, 4, 0))
		s.MustLoad(2, attackerProgram)
		victimDone := func() bool { h, _ := s.Cores[0].Halted(); return h }
		cycles, ok := s.Eng.RunUntil(victimDone, 50_000_000)
		if !ok {
			t.Fatalf("quarantine ablation: victim unfinished at threshold %d", threshold)
		}
		return cycles
	}
	tb := trace.NewTable("Ablation — quarantine reactor vs legal-zone flood after violations",
		"reactor", "victim cycles")
	tb.AddRow("disabled", trace.Comma(measure(0))) // reactor disabled
	tb.AddRow("threshold 3", trace.Comma(measure(3)))
	return tb.String()
}

// attackGrid is the `make attack` campaign grid, read from the spec file
// the Makefile target runs.
func attackGrid(t *testing.T) []campaign.Config {
	data, err := os.ReadFile(filepath.Join("testdata", "attack.json"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spec.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sp.Campaign.Grid()
	if err != nil {
		t.Fatal(err)
	}
	return grid
}

// attackMatrix renders the `make attack` tables: containment, bystander
// cost, and reaction & recovery.
func attackMatrix(t *testing.T) string {
	var out strings.Builder
	if err := campaign.WriteTable(&out, attackGrid(t), sweep.Shard{}, 0); err != nil {
		t.Fatal(err)
	}
	return out.String()
}
