package mem

import (
	"repro/internal/bus"
)

// BRAM models the on-chip shared block-RAM slave of the case study:
// single-cycle wait state plus one cycle per beat. On-chip memory is inside
// the trust boundary, so it is reached through a plain Local Firewall, not
// the ciphering one.
type BRAM struct {
	name  string
	store *Store
	// WaitCycles is the fixed access setup cost (default 1).
	WaitCycles uint64
	// Reads/Writes count completed beats for the stats harness.
	Reads, Writes uint64
}

// NewBRAM creates a BRAM slave of size bytes at base.
func NewBRAM(name string, base, size uint32) *BRAM {
	return &BRAM{name: name, store: NewStore(base, size), WaitCycles: 1}
}

// Name implements bus.Slave.
func (m *BRAM) Name() string { return m.name }

// Base implements bus.Slave.
func (m *BRAM) Base() uint32 { return m.store.Base() }

// Size implements bus.Slave.
func (m *BRAM) Size() uint32 { return m.store.Size() }

// Store exposes the backing store (trusted on-chip memory; tests and
// loaders use it).
func (m *BRAM) Store() *Store { return m.store }

// Access implements bus.Slave.
func (m *BRAM) Access(now uint64, tx *bus.Transaction) (uint64, bus.Resp) {
	transfer(m.store, tx, &m.Reads, &m.Writes)
	return m.WaitCycles + uint64(tx.Burst), bus.RespOK
}

// DDR models the external DDR memory: a fixed first-access latency (row
// activation plus controller traversal) and a smaller per-beat cost. The
// backing store is attacker-accessible via Store().Peek/Poke, reflecting
// the paper's threat model where the external bus and memory are hostile
// territory.
type DDR struct {
	name  string
	store *Store
	// FirstAccess is the latency of the first beat (default 18 cycles).
	FirstAccess uint64
	// PerBeat is the cost of each additional beat (default 2 cycles).
	PerBeat uint64
	// Reads/Writes count completed beats.
	Reads, Writes uint64
}

// NewDDR creates a DDR slave of size bytes at base with the default
// timing: 18 cycles to the first beat of an access, 2 per further beat.
func NewDDR(name string, base, size uint32) *DDR {
	return &DDR{name: name, store: NewStore(base, size), FirstAccess: 18, PerBeat: 2}
}

// Name implements bus.Slave.
func (m *DDR) Name() string { return m.name }

// Base implements bus.Slave.
func (m *DDR) Base() uint32 { return m.store.Base() }

// Size implements bus.Slave.
func (m *DDR) Size() uint32 { return m.store.Size() }

// Store exposes the raw backing store — the attacker's handle on external
// memory.
func (m *DDR) Store() *Store { return m.store }

// Access implements bus.Slave.
func (m *DDR) Access(now uint64, tx *bus.Transaction) (uint64, bus.Resp) {
	transfer(m.store, tx, &m.Reads, &m.Writes)
	return m.FirstAccess + m.PerBeat*uint64(tx.Burst-1), bus.RespOK
}

// transfer performs the functional data movement for every beat of tx
// against store.
func transfer(store *Store, tx *bus.Transaction, reads, writes *uint64) {
	addr := tx.Addr
	for i := 0; i < tx.Burst; i++ {
		if tx.Op == bus.Read {
			tx.Data[i] = store.Read(addr, tx.Size)
			*reads++
		} else {
			store.Write(addr, tx.Size, tx.Data[i])
			*writes++
		}
		addr += uint32(tx.Size)
	}
}
