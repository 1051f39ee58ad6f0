// Package attack implements the paper's threat model (§III) as injectable
// scenarios: logical attacks on the external bus/memory (replay,
// relocation, spoofing, tampering) and hijacked-IP attacks from inside the
// FPGA (zone escapes, format abuse, DMA hijacking, DoS floods).
//
// Every scenario separates its build / inject / verdict phases (the
// Scenario interface in scenario.go), so internal/campaign's runner owns
// the platform and fires the attack at a chosen cycle: under concurrent
// benign load, or on an otherwise idle platform when the grid point's
// background is "none". Its record says whether the platform detected the
// attack (an alert was raised, and by which firewall), whether the effect
// was contained (the attacker's goal failed), and how quickly. Running the
// same scenario against soc.Unprotected shows the attack actually works
// when nothing defends — keeping the detection results honest.
package attack

import (
	"repro/internal/bus"
	"repro/internal/soc"
)

// probeBudget bounds the cycles one probe transaction may take. A secured
// access costs about a thousand cycles; no default grid comes near this.
const probeBudget = 1_000_000

// probe issues one bus transaction from a dedicated unguarded master and
// runs until completion, and reports whether the transaction completed
// within probeBudget cycles: if it did not, tx.Resp and tx.Data still
// hold their zero values, not the slave's answer. External-memory
// scenarios use it as the victim access; it reaches the LCF like any
// internal master would.
func probe(s *soc.System, m *bus.MasterPort, op bus.Op, addr uint32, data uint32) (tx *bus.Transaction, ok bool) {
	tx = &bus.Transaction{Op: op, Addr: addr, Size: 4, Burst: 1}
	if op == bus.Write {
		tx.Data = []uint32{data}
	}
	done := false
	m.Submit(tx, func(*bus.Transaction) { done = true })
	_, ok = s.Eng.RunUntil(func() bool { return done }, probeBudget)
	return tx, ok
}
