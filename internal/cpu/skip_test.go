package cpu_test

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/cpu"
	"repro/internal/ip"
	"repro/internal/isa"
	"repro/internal/sim"
)

const (
	slowBase = 0x1000_0000
	slowLat  = 1500 // a long stall, of the order of a secured access
	slowBad  = 0x800
	dmaBase  = 0x2000_0000
)

// slowMem is a word memory that holds the bus for slowLat cycles per
// access — the shape of a secured off-chip access — and answers a slave
// error at offsets from slowBad on.
type slowMem struct{ words [0x1000 / 4]uint32 }

func (*slowMem) Name() string { return "slow" }
func (*slowMem) Base() uint32 { return slowBase }
func (*slowMem) Size() uint32 { return 0x1000 }

func (m *slowMem) Access(_ uint64, tx *bus.Transaction) (uint64, bus.Resp) {
	off := tx.Addr - slowBase
	if off >= slowBad {
		return slowLat, bus.RespSlaveErr
	}
	for i := 0; i < tx.Burst; i++ {
		w := &m.words[off/4+uint32(i)]
		if tx.Op == bus.Read {
			tx.Data[i] = *w
		} else {
			*w = tx.Data[i]
		}
	}
	return slowLat, bus.RespOK
}

// platform is one core, a DMA engine and slow memory on a bus. Each test
// builds a skipping platform and a per-cycle reference (a TickFunc turns
// skipping off and makes the engine tick every ticker, due or asleep, on
// every cycle), drives both identically, and requires the same outcome
// cycle for cycle.
type platform struct {
	eng   *sim.Engine
	core  *cpu.Core
	dma   *ip.DMA
	probe *bus.MasterPort
}

func newPlatform(perCycle, trap bool) *platform {
	eng := sim.NewEngine(sim.DefaultFrequency)
	b := bus.New(eng, bus.Config{})
	b.AddSlave(&slowMem{})
	dma := ip.NewDMA(eng, "dma", dmaBase, b.NewMaster("dma"))
	b.AddSlave(dma)
	c := cpu.New(eng, cpu.Config{Name: "cpu0", LocalSize: 64 * 1024, TrapOnBusError: trap},
		b.NewMaster("cpu0"))
	p := &platform{eng: eng, core: c, dma: dma, probe: b.NewMaster("probe")}
	if perCycle {
		eng.AddTicker(sim.TickFunc(func(uint64) {}))
	}
	return p
}

func (p *platform) halted() bool { h, _ := p.core.Halted(); return h }

// bothWays runs drive on a skipping platform and on the per-cycle
// reference and fails unless their cores end in the same state at the
// same cycle. It returns the skipping platform for further checks.
func bothWays(t *testing.T, trap bool, drive func(p *platform)) *platform {
	t.Helper()
	skip, ref := newPlatform(false, trap), newPlatform(true, trap)
	drive(skip)
	drive(ref)
	if skip.eng.Now() != ref.eng.Now() {
		t.Fatalf("Now = %d, reference %d", skip.eng.Now(), ref.eng.Now())
	}
	if s, r := skip.core.Stats(), ref.core.Stats(); s != r {
		t.Fatalf("stats %+v, reference %+v", s, r)
	}
	sh, sc := skip.core.Halted()
	rh, rc := ref.core.Halted()
	shc, _ := skip.core.HaltCycle()
	rhc, _ := ref.core.HaltCycle()
	if sh != rh || sc != rc || shc != rhc {
		t.Fatalf("halt (%v,%v,@%d), reference (%v,%v,@%d)", sh, sc, shc, rh, rc, rhc)
	}
	for r := 1; r < 32; r++ {
		if skip.core.Reg(r) != ref.core.Reg(r) {
			t.Fatalf("r%d = %#x, reference %#x", r, skip.core.Reg(r), ref.core.Reg(r))
		}
	}
	if skip.dma.Copies != ref.dma.Copies || skip.dma.Errors != ref.dma.Errors {
		t.Fatalf("dma copies/errors %d/%d, reference %d/%d",
			skip.dma.Copies, skip.dma.Errors, ref.dma.Copies, ref.dma.Errors)
	}
	if skip.eng.Elided() == 0 {
		t.Fatal("skipping platform stepped every cycle: the test is vacuous")
	}
	return skip
}

func runToHalt(t *testing.T, p *platform, src string) {
	t.Helper()
	p.core.Load(isa.MustAssemble(src, 0))
	if _, ok := p.eng.RunUntil(p.halted, 1_000_000); !ok {
		t.Fatalf("program did not halt (pc=%#x)", p.core.PC())
	}
}

func TestSkippedStallsCountAsCycles(t *testing.T) {
	p := bothWays(t, false, func(p *platform) {
		runToHalt(t, p, `
			li   r1, 0x10000000
			li   r2, 7
			sw   r2, 0(r1)
			lw   r3, 0(r1)
			addi r3, r3, 1
			sw   r3, 4(r1)
			lw   r4, 4(r1)
			halt
		`)
	})
	st := p.core.Stats()
	if p.core.Reg(4) != 8 || st.BusOps != 4 || st.StallCycles < 4*slowLat {
		t.Fatalf("r4=%d stats %+v: want r4=8 and four full-latency bus stalls", p.core.Reg(4), st)
	}
}

// TestHaltInsideBusDone: with TrapOnBusError the core halts inside its
// bus completion; the skipped stall before it still counts.
func TestHaltInsideBusDone(t *testing.T) {
	p := bothWays(t, true, func(p *platform) {
		runToHalt(t, p, `
			li  r1, 0x10000800
			lw  r2, 0(r1)
			addi r3, r0, 1
			halt
		`)
	})
	if _, cause := p.core.Halted(); cause != cpu.HaltBusFault || p.core.Reg(3) != 0 {
		t.Fatalf("cause %v r3=%d, want a bus fault before addi", cause, p.core.Reg(3))
	}
	if st := p.core.Stats(); st.StallCycles < slowLat {
		t.Fatalf("stats %+v: the stall before the fault is missing", st)
	}
}

// TestIRQTakenRightAfterStall: an interrupt raised during a skipped stall
// is taken on the first cycle after the bus completes.
func TestIRQTakenRightAfterStall(t *testing.T) {
	const src = `
		la   r1, handler
		csrw 8, r1
		li   r5, 0x10000000
		lw   r6, 0(r5)
		lw   r6, 4(r5)
		addi r7, r0, 1
		halt
	handler:
		addi r9, r9, 1
		csrr r10, 1
		iret
	`
	p := bothWays(t, false, func(p *platform) {
		p.core.Load(isa.MustAssemble(src, 0))
		p.eng.Run(100) // first load in flight
		p.eng.ScheduleAt(p.eng.Now()+700, func(uint64) { p.core.RaiseIRQ() })
		p.eng.Run(2000) // second load in flight
		p.core.RaiseIRQ()
		if _, ok := p.eng.RunUntil(p.halted, 1_000_000); !ok {
			t.Fatal("program did not halt")
		}
	})
	if p.core.Reg(9) != 2 || p.core.Reg(7) != 1 {
		t.Fatalf("handler ran %d times, r7=%d; want 2 and 1", p.core.Reg(9), p.core.Reg(7))
	}
}

// TestSkipAcrossDMAChunks: the core waits on the DMA engine while it moves
// several chunks through slow memory; the DMA's chunk completions and the
// core's status polls interleave exactly as when stepping every cycle.
func TestSkipAcrossDMAChunks(t *testing.T) {
	p := bothWays(t, false, func(p *platform) {
		runToHalt(t, p, `
			li   r1, 0x20000000
			li   r2, 0x10000000
			sw   r2, 0(r1)      ; src
			li   r2, 0x10000400
			sw   r2, 4(r1)      ; dst
			li   r2, 128
			sw   r2, 8(r1)      ; len: four chunks
			li   r2, 1
			sw   r2, 12(r1)     ; start
		poll:
			lw   r3, 16(r1)
			andi r3, r3, 2
			beq  r3, r0, poll
			halt
		`)
	})
	if p.dma.Copies != 1 || p.dma.Errors != 0 {
		t.Fatalf("dma copies %d errors %d, want one clean copy", p.dma.Copies, p.dma.Errors)
	}
}

// TestLoadAndSubmitBetweenRuns: a program loaded into a halted core, and
// a transaction submitted on an idle bus, between two runs both start on
// the first cycle of the next run.
func TestLoadAndSubmitBetweenRuns(t *testing.T) {
	bothWays(t, false, func(p *platform) {
		runToHalt(t, p, "halt")
		p.eng.Run(5000)
		p.core.Load(isa.MustAssemble("li r1, 0x10000000\nlw r2, 0(r1)\nhalt", 0))
		p.eng.Run(1)
		if got := p.core.Stats().Instructions; got != 2 {
			t.Fatalf("instructions after one cycle = %d, want 2 (halt + li)", got)
		}
		p.eng.RunUntil(p.halted, 1_000_000)
		p.eng.Run(3000)
		tx := &bus.Transaction{Op: bus.Read, Addr: slowBase, Size: 4, Burst: 1}
		p.probe.Submit(tx, func(*bus.Transaction) {})
		at := p.eng.Now()
		p.eng.Run(4000)
		if tx.Started != at || tx.Completed == 0 {
			t.Fatalf("probe granted at %d (completed %d), want %d", tx.Started, tx.Completed, at)
		}
	})
}
