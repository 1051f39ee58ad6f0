package ip_test

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/ip"
	"repro/internal/mem"
	"repro/internal/sim"
)

// poker is a register-poking ticker, due only at cycle at: from its own
// tick it writes 1 to the DMA's control register, then sleeps. Registered
// after the DMA, it starts the copy after the DMA's turn in that cycle.
type poker struct {
	eng *sim.Engine
	id  int
	dma *ip.DMA
	at  uint64
}

func addPoker(eng *sim.Engine, dma *ip.DMA, at uint64) {
	p := &poker{eng: eng, dma: dma, at: at}
	p.id = eng.AddTicker(p)
	eng.WakeAt(p.id, at)
}

func (p *poker) Tick(now uint64) {
	if now == p.at {
		p.dma.Access(now, &bus.Transaction{Op: bus.Write, Addr: dmaBase + ip.DMARegCtrl,
			Size: 4, Burst: 1, Data: []uint32{1}})
		p.eng.Sleep(p.id)
	}
}

// TestDMAStartWakesSkippingEngine: a DMA started after its own tick ends
// the cycle needing a tick while nothing else is awake and no event is
// due. The skipping engine must give it that tick on the next cycle, and
// the copy must finish on the per-cycle reference's cycle.
func TestDMAStartWakesSkippingEngine(t *testing.T) {
	const ddrBase = 0x4000_0000
	run := func(perCycle bool) (*sim.Engine, *ip.DMA, *mem.DDR) {
		eng := sim.NewEngine(sim.DefaultFrequency)
		b := bus.New(eng, bus.Config{})
		ddr := mem.NewDDR("ddr", ddrBase, 0x1_0000)
		b.AddSlave(ddr)
		dma := ip.NewDMA(eng, "dma", dmaBase, b.NewMaster("dma"))
		addPoker(eng, dma, 500)
		if perCycle {
			eng.AddTicker(sim.TickFunc(func(uint64) {}))
		}
		for i := uint32(0); i < 96; i += 4 {
			ddr.Store().WriteWord(ddrBase+i, 0xC0DE0000|i)
		}
		for _, r := range [][2]uint32{{ip.DMARegSrc, ddrBase}, {ip.DMARegDst, ddrBase + 0x800}, {ip.DMARegLen, 96}} {
			dma.Access(0, &bus.Transaction{Op: bus.Write, Addr: dmaBase + r[0], Size: 4, Burst: 1,
				Data: []uint32{r[1]}})
		}
		eng.Run(600)
		if _, ok := eng.RunUntil(func() bool { return !dma.Busy() }, 100_000); !ok {
			t.Fatal("DMA never finished")
		}
		return eng, dma, ddr
	}
	skipEng, skipDMA, ddr := run(false)
	refEng, refDMA, _ := run(true)
	if skipEng.Now() != refEng.Now() || skipDMA.Copies != 1 || refDMA.Copies != 1 {
		t.Fatalf("copy done at %d (copies %d), reference %d (copies %d)",
			skipEng.Now(), skipDMA.Copies, refEng.Now(), refDMA.Copies)
	}
	if skipEng.Elided() == 0 {
		t.Fatal("skipping engine stepped every cycle: the test is vacuous")
	}
	for i := uint32(0); i < 96; i += 4 {
		if got := ddr.Store().ReadWord(ddrBase + 0x800 + i); got != 0xC0DE0000|i {
			t.Fatalf("dst+%#x = %#x", i, got)
		}
	}
}
