package repro_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/hashtree"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/soc"
	"repro/internal/workload"
)

// These are the repository-level benchmarks of the suite (BENCH_TOP in the
// Makefile): host speed of the engine, the secured memory path and the
// per-record platform build. The simulated numbers of the paper's
// evaluation are pinned by TestPaperGolden (paper_test.go).

// BenchmarkSecureMemoryThroughput is the tracked headline number for the
// secured off-chip path: host-side bytes/s through the full CC+IC pipeline
// (SB check, covering DDR fetch, leaf verify, XEX decrypt/encrypt, tree
// update) driving the CipherFirewall directly. Each iteration reads one
// 32-byte leaf and writes it back, walking the whole 32 KiB protected
// zone. The simulated cycle cost per iteration is reported alongside: the
// host-speed rewrite must leave it untouched.
func BenchmarkSecureMemoryThroughput(b *testing.B) {
	const (
		base = 0x4000_0000
		size = 0x8000 // 32 KiB CM+IM zone, 1024 leaves — the platform's secure zone
		node = 0x4006_0000
	)
	key := [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	ddr := mem.NewDDR("ddr", base, 0x8_0000)
	cm := core.MustConfig(core.Policy{SPI: 1, Zone: core.Zone{Base: base, Size: size},
		RWA: core.ReadWrite, ADF: core.AnyWidth, CM: true, IM: true, Key: key})
	lcf, err := core.NewCipherFirewall(core.LCFConfig{
		IntegrityZone: core.Zone{Base: base, Size: size}, NodeBase: node,
	}, ddr, ddr.Store(), cm, core.NewAlertLog())
	if err != nil {
		b.Fatal(err)
	}
	lcf.Seal()
	const leafWords = hashtree.LeafSize / 4
	rd := &bus.Transaction{Master: "cpu0", Op: bus.Read, Addr: base, Size: 4,
		Burst: leafWords, Data: make([]uint32, leafWords)}
	wr := &bus.Transaction{Master: "cpu0", Op: bus.Write, Addr: base, Size: 4,
		Burst: leafWords, Data: make([]uint32, leafWords)}
	var simCycles uint64
	b.SetBytes(2 * hashtree.LeafSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint32(base) + uint32(i%(size/hashtree.LeafSize))*hashtree.LeafSize
		rd.Addr, wr.Addr = addr, addr
		c1, resp := lcf.Access(0, rd)
		if resp != bus.RespOK {
			b.Fatalf("read: %v", resp)
		}
		copy(wr.Data, rd.Data)
		wr.Data[0] = uint32(i)
		c2, resp := lcf.Access(0, wr)
		if resp != bus.RespOK {
			b.Fatalf("write: %v", resp)
		}
		simCycles += c1 + c2
	}
	b.ReportMetric(float64(simCycles)/float64(b.N), "sim-cycles/op")
}

// BenchmarkEngineThroughput measures raw simulator speed (host-side):
// cycles per second for the full 3-core protected platform.
func BenchmarkEngineThroughput(b *testing.B) {
	s := soc.MustNew(soc.Config{Protection: soc.Distributed})
	for i := 0; i < 3; i++ {
		s.MustLoad(i, workload.Mix(soc.BRAMBase+uint32(i)*0x1000, 0x1000, 4, 1_000_000, 4))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Eng.Run(1000)
	}
	b.ReportMetric(float64(b.N*1000)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkEngineSecureThroughput is the stall-heavy counterpart: three
// cores scrub their own slices of the CM+IM zone, so almost every cycle
// is a core waiting on the LCF's SB/DDR/IC/CC pipeline — the quiescent
// cycles the engine jumps over instead of stepping. It reports host speed
// and the share of cycles elided; a change that breaks quiescence shows
// up here as a much slower ns/op.
func BenchmarkEngineSecureThroughput(b *testing.B) {
	const slice = soc.SecureSize / 4
	s := soc.MustNew(soc.Config{Protection: soc.Distributed})
	progs := make([]*isa.Program, 3)
	for i := range progs {
		progs[i] = isa.MustAssemble(workload.Scrub(soc.SecureBase+uint32(i)*slice, slice/4, 4), soc.LocalBase)
		s.LoadProgram(i, progs[i])
	}
	start, elided := s.Eng.Now(), s.Eng.Elided()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Eng.Run(1000)
		for c, p := range progs {
			if h, _ := s.Cores[c].Halted(); h {
				s.LoadProgram(c, p) // scrub the slice again
			}
		}
	}
	cycles := s.Eng.Now() - start
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
	b.ReportMetric(float64(s.Eng.Elided()-elided)/float64(cycles), "elided-share")
}

// BenchmarkEngineMixedThroughput is the shape external-memory campaigns
// have: one core computes on BRAM while the two others scrub their slices
// of the CM+IM zone. Each secured access holds the bus for the LCF
// pipeline's ~1,000 cycles, so the computing core queues behind the
// scrubbers too and most cycles are skipped; on most of the cycles that are
// stepped, the computing core is the only ticker due.
func BenchmarkEngineMixedThroughput(b *testing.B) {
	const slice = soc.SecureSize / 4
	s := soc.MustNew(soc.Config{Protection: soc.Distributed})
	s.MustLoad(0, workload.Mix(soc.BRAMBase, 0x1000, 4, 1_000_000, 4))
	progs := make([]*isa.Program, 3)
	for i := 1; i < 3; i++ {
		progs[i] = isa.MustAssemble(workload.Scrub(soc.SecureBase+uint32(i)*slice, slice/4, 4), soc.LocalBase)
		s.LoadProgram(i, progs[i])
	}
	start, elided := s.Eng.Now(), s.Eng.Elided()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Eng.Run(1000)
		for c := 1; c < 3; c++ {
			if h, _ := s.Cores[c].Halted(); h {
				s.LoadProgram(c, progs[c]) // scrub the slice again
			}
		}
	}
	cycles := s.Eng.Now() - start
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
	b.ReportMetric(float64(s.Eng.Elided()-elided)/float64(cycles), "elided-share")
}

// BenchmarkPlatformBuild measures the fixed cost every campaign record
// pays before simulating anything: soc.NewPair, the attacked platform and
// its twin, for each protection. On the distributed pair it includes the
// LCF's boot-time seal of external memory; within one process the seal of
// an identical image is a memo hit, which is the steady state of a sweep
// or daemon worker.
//
// The memories allocate their pages on first write, so a pair allocates
// only the pages its boot writes: 96 KiB per distributed platform (the
// two sealed 32 KiB zones and the tree's node array), about 370 KB per
// distributed pair in all and about 70 KB per unprotected or centralized
// one. When every platform still zeroed its 1.5 MiB of memories, about
// 1.7 MB per pair, the timed cost with the collector running freely was
// mostly its pacing and the page faults on heap the runtime had returned
// to the OS, and min-of-3 swung by 2x between runs on a shared 2-vCPU
// host. So the collector is paused within a batch of builds and run
// between batches with the timer stopped: the benchmark times the
// construction itself, zeroing of reused heap included, and B/op reports
// the allocation the collector pays for.
func BenchmarkPlatformBuild(b *testing.B) {
	const batch = 16
	for _, prot := range []soc.Protection{soc.Unprotected, soc.Distributed, soc.Centralized} {
		b.Run(prot.String(), func(b *testing.B) {
			b.ReportAllocs()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			for i := 0; i < b.N; i++ {
				if i%batch == 0 {
					b.StopTimer()
					runtime.GC()
					b.StartTimer()
				}
				if _, err := soc.NewPair(soc.Config{Protection: prot}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
