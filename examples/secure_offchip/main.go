// Secure off-chip storage: what the Local Ciphering Firewall does for
// data that must live in untrusted external memory.
//
// The demo stores a "credit balance" in the secure (CM+IM) zone, shows
// that external memory holds only ciphertext, then plays the attacker:
// tampering with the ciphertext and replaying a stale memory image. Both
// are detected by the Integrity Core and the read is discarded.
//
//	go run ./examples/secure_offchip
package main

import (
	"fmt"
	"log"

	"repro/internal/bus"
	"repro/internal/soc"
)

func main() {
	system, err := soc.New(soc.Config{Protection: soc.Distributed})
	if err != nil {
		log.Fatal(err)
	}
	system.HaltIdleCores()
	host := system.Bus.NewMaster("host")

	const balanceAddr = soc.SecureBase + 0x100

	// Store the balance through the LCF: it is encrypted (AES-128, bound
	// to its address) and covered by the hash tree + version tags.
	write(system, host, balanceAddr, 1000)
	fmt.Printf("stored balance 1000 at %#x (secure zone: CM+IM)\n", balanceAddr)

	raw := system.DDR.Store().ReadWord(balanceAddr)
	fmt.Printf("external memory actually holds: %#x (ciphertext)\n", raw)

	if v, resp := read(system, host, balanceAddr); resp.OK() {
		fmt.Printf("legitimate read-back: %d\n\n", v)
	}

	// --- Attack 1: tamper with the ciphertext in external memory. ---
	b := system.DDR.Store().Peek(balanceAddr, 1)
	system.DDR.Store().Poke(balanceAddr, []byte{b[0] ^ 0x01})
	v, resp := read(system, host, balanceAddr)
	fmt.Printf("after 1-bit external tamper: resp=%v data=%d\n", resp, v)
	report(system, "tamper")

	// Repair: a corrupted block refuses partial writes (they would
	// read-modify-write poisoned data), so recovery rewrites the whole
	// 32-byte integrity block through the LCF, which rebuilds ciphertext
	// and tree path from scratch.
	repair := &bus.Transaction{Op: bus.Write, Addr: balanceAddr, Size: 4, Burst: 8,
		Data: []uint32{900, 0, 0, 0, 0, 0, 0, 0}}
	done := false
	host.Submit(repair, func(*bus.Transaction) { done = true })
	system.Eng.RunUntil(func() bool { return done }, 1_000_000)
	if !repair.Resp.OK() {
		log.Fatalf("full-block repair failed: %v", repair.Resp)
	}
	fmt.Printf("repaired by full-block rewrite: balance = 900\n\n")

	// --- Attack 2: replay a stale memory image. ---
	snapshot := system.DDR.Store().Snapshot() // balance = 900
	write(system, host, balanceAddr, 100)     // spend 800
	system.DDR.Store().Restore(snapshot)      // attacker restores 900
	v, resp = read(system, host, balanceAddr)
	fmt.Printf("after full-image replay:     resp=%v data=%d\n", resp, v)
	report(system, "replay")

	cs := system.LCF.Crypto()
	fmt.Printf("LCF totals: %d blocks enciphered, %d deciphered, %d integrity failures\n",
		cs.BlocksEnciphered, cs.BlocksDeciphered, cs.IntegrityFailures)
}

func write(s *soc.System, m *bus.MasterPort, addr, v uint32) {
	tx := &bus.Transaction{Op: bus.Write, Addr: addr, Size: 4, Burst: 1, Data: []uint32{v}}
	done := false
	m.Submit(tx, func(*bus.Transaction) { done = true })
	s.Eng.RunUntil(func() bool { return done }, 1_000_000)
	if !tx.Resp.OK() {
		log.Fatalf("write to %#x failed: %v", addr, tx.Resp)
	}
}

func read(s *soc.System, m *bus.MasterPort, addr uint32) (uint32, bus.Resp) {
	tx := &bus.Transaction{Op: bus.Read, Addr: addr, Size: 4, Burst: 1}
	done := false
	m.Submit(tx, func(*bus.Transaction) { done = true })
	s.Eng.RunUntil(func() bool { return done }, 1_000_000)
	return tx.Data[0], tx.Resp
}

func report(s *soc.System, label string) {
	if a := s.Alerts.First(nil); a != nil {
		fmt.Printf("  -> alert: %s\n\n", a)
		s.Alerts.Reset()
	} else {
		fmt.Printf("  -> NO ALERT for %s (unexpected)\n\n", label)
	}
}
