package core_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

// BenchmarkPolicyCheck measures the host-side cost of one Security Builder
// evaluation (the simulated cost is the 12-cycle constant).
func BenchmarkPolicyCheck(b *testing.B) {
	cm := core.MustConfig(
		core.Policy{SPI: 1, Zone: core.Zone{Base: 0x1000_0000, Size: 0x1000}, RWA: core.ReadWrite, ADF: core.AnyWidth},
		core.Policy{SPI: 2, Zone: core.Zone{Base: 0x2000_0000, Size: 0x1000}, RWA: core.ReadOnly, ADF: core.W32},
		core.Policy{SPI: 3, Zone: core.Zone{Base: 0x3000_0000, Size: 0x1000}, RWA: core.WriteOnly, ADF: core.W8 | core.W16},
	)
	a := core.Access{Master: "cpu0", Write: true, Addr: 0x1000_0040, Size: 4, Burst: 1}
	for i := 0; i < b.N; i++ {
		cm.CheckAccess(a)
	}
}

// BenchmarkPolicyCheckWide measures evaluation against a 64-rule table
// (the E2 aggressive-policy regime).
func BenchmarkPolicyCheckWide(b *testing.B) {
	rules := make([]core.Policy, 64)
	for i := range rules {
		rules[i] = core.Policy{SPI: uint32(i), Zone: core.Zone{Base: uint32(i) * 0x1000, Size: 0x1000},
			RWA: core.ReadWrite, ADF: core.AnyWidth}
	}
	cm := core.MustConfig(rules...)
	a := core.Access{Master: "cpu0", Write: false, Addr: 63 * 0x1000, Size: 4, Burst: 1}
	for i := 0; i < b.N; i++ {
		cm.CheckAccess(a)
	}
}

// BenchmarkLCFSecureWrite measures host-side simulation cost of one
// secured external write (AES ×2 passes, tree update).
func BenchmarkLCFSecureWrite(b *testing.B) {
	eng := sim.NewEngine(sim.DefaultFrequency)
	bs := bus.New(eng, bus.Config{})
	ddr := mem.NewDDR("ddr", ddrBase, ddrSize)
	log := core.NewAlertLog()
	cm := core.MustConfig(core.Policy{SPI: 1, Zone: core.Zone{Base: secBase, Size: secSize},
		RWA: core.ReadWrite, ADF: core.AnyWidth, CM: true, IM: true, Key: testKey})
	lcf, err := core.NewCipherFirewall(core.LCFConfig{
		IntegrityZone: core.Zone{Base: secBase, Size: secSize}, NodeBase: nodeBase,
	}, ddr, ddr.Store(), cm, log)
	if err != nil {
		b.Fatal(err)
	}
	lcf.Seal()
	bs.AddSlave(lcf)
	m := bs.NewMaster("cpu0")
	// The submission state lives outside the loop so the harness itself is
	// allocation-free and the allocs/op column measures only the secured
	// path (pinned at zero by TestSecureWriteLoopAllocFree).
	var (
		tx   bus.Transaction
		data [1]uint32
		done bool
	)
	finish := func(*bus.Transaction) { done = true }
	idle := func() bool { return done }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done = false
		data[0] = uint32(i)
		tx = bus.Transaction{Op: bus.Write, Addr: secBase + uint32(i%64)*4&^3, Size: 4, Burst: 1,
			Data: data[:1]}
		m.Submit(&tx, finish)
		eng.RunUntil(idle, 1_000_000)
	}
	b.ReportMetric(float64(lcf.Crypto().BlocksEnciphered)/float64(b.N), "blocks/op")
}

// BenchmarkSealCold measures the LCF's boot-time Seal over the Figure 1
// platform's external-memory layout (two 32 KiB CM zones, one of them
// under the hash tree, and a 64 KiB pass-through zone) when every
// iteration seals an image not sealed before — the boot of a process's
// first platform. Under the seal and build memos that is the miss path:
// the computation, the byte-for-byte comparison with every remembered
// entry (the images differ only in their last word, so each comparison
// runs to the end) and the copies the memos keep.
func BenchmarkSealCold(b *testing.B) {
	const (
		secure = ddrBase           // CM+IM
		cipher = ddrBase + 0x10000 // CM only
		plain  = ddrBase + 0x20000 // pass-through
		nodes  = ddrBase + 0x40000 // tree nodes
		zone   = 0x8000
	)
	ddr := mem.NewDDR("ddr", ddrBase, 0x8_0000)
	cm := core.MustConfig(
		core.Policy{SPI: 1, Zone: core.Zone{Base: secure, Size: zone}, RWA: core.ReadWrite, ADF: core.AnyWidth,
			CM: true, IM: true, Key: testKey},
		core.Policy{SPI: 2, Zone: core.Zone{Base: cipher, Size: zone}, RWA: core.ReadWrite, ADF: core.AnyWidth,
			CM: true, Key: [16]byte{0xC1, 0xF0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
		core.Policy{SPI: 3, Zone: core.Zone{Base: plain, Size: 0x1_0000}, RWA: core.ReadWrite, ADF: core.AnyWidth},
	)
	lcf, err := core.NewCipherFirewall(core.LCFConfig{
		IntegrityZone: core.Zone{Base: secure, Size: zone}, NodeBase: nodes,
	}, ddr, ddr.Store(), cm, core.NewAlertLog())
	if err != nil {
		b.Fatal(err)
	}
	image := make([]byte, zone) // a fresh zone's plaintext, but for its last word
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// b.N+i is new in every iteration, also across the runs of one
		// process (b.N grows between them).
		binary.LittleEndian.PutUint32(image[zone-4:], uint32(b.N+i))
		ddr.Store().Poke(secure, image)
		ddr.Store().Poke(cipher, image)
		lcf.Seal()
	}
}
