package bus

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Arbitration selects how the bus picks among masters with pending
// requests.
type Arbitration uint8

const (
	// RoundRobin rotates priority starting after the last granted
	// master (the default; fair under contention).
	RoundRobin Arbitration = iota
	// FixedPriority always favors the lowest-numbered master.
	FixedPriority
)

// Config parameterizes a Bus.
type Config struct {
	// Name appears in diagnostics.
	Name string
	// Arbitration policy; RoundRobin by default.
	Arbitration Arbitration
	// ArbCycles and AddrCycles are the per-transaction protocol overhead
	// (one cycle each by default: a PLB-style shared bus spends one cycle
	// on arbitration and one on the address phase).
	ArbCycles  uint64
	AddrCycles uint64
	// DecodeErrCycles is the occupancy of an address-decode miss.
	DecodeErrCycles uint64
}

// Stats aggregates bus activity for the benchmark harness. The JSON form
// feeds the sweep pipeline's per-run bus breakdown.
type Stats struct {
	// Transactions completed, split by response class.
	Completed   uint64 `json:"completed"`
	DecodeErrs  uint64 `json:"decode_errs,omitempty"`
	SlaveErrs   uint64 `json:"slave_errs,omitempty"`
	SecurityErr uint64 `json:"security_errs,omitempty"`
	// BusyCycles is the number of cycles the bus was occupied.
	BusyCycles uint64 `json:"busy_cycles"`
	// WaitCycles sums, over all transactions, cycles spent queued before
	// grant (the contention signal used by experiment E3).
	WaitCycles uint64 `json:"wait_cycles"`
	// BitsMoved counts payload bits of successful transfers.
	BitsMoved uint64 `json:"bits_moved"`
	// PerMaster counts completed transactions per master index (creation
	// order: see Bus.NewMaster).
	PerMaster []uint64 `json:"per_master"`
}

// Utilization returns busy cycles divided by total cycles.
func (s *Stats) Utilization(totalCycles uint64) float64 {
	if totalCycles == 0 {
		return 0
	}
	return float64(s.BusyCycles) / float64(totalCycles)
}

// Bus is the shared system interconnect. It is a sim.Ticker: each cycle it
// arbitrates at most one pending transaction if idle. Create with New, add
// slaves with AddSlave, create master ports with NewMaster, then register
// on the engine (New does this automatically).
type Bus struct {
	eng  *sim.Engine
	cfg  Config
	name string

	slaves  []Slave // sorted by base address
	masters []*MasterPort

	busyUntil uint64
	lastGrant int // round-robin pointer
	nextID    uint64
	waiting   int // queued transactions across all masters

	stats Stats
}

// New creates a bus, registers it as a ticker on eng, and returns it.
func New(eng *sim.Engine, cfg Config) *Bus {
	if cfg.Name == "" {
		cfg.Name = "sysbus"
	}
	if cfg.ArbCycles == 0 {
		cfg.ArbCycles = 1
	}
	if cfg.AddrCycles == 0 {
		cfg.AddrCycles = 1
	}
	if cfg.DecodeErrCycles == 0 {
		cfg.DecodeErrCycles = 2
	}
	b := &Bus{eng: eng, cfg: cfg, name: cfg.Name, lastGrant: -1}
	eng.AddTicker(b)
	return b
}

// Name returns the bus name.
func (b *Bus) Name() string { return b.name }

// Engine returns the simulation engine the bus runs on.
func (b *Bus) Engine() *sim.Engine { return b.eng }

// Stats returns a snapshot of accumulated bus statistics.
func (b *Bus) Stats() Stats {
	s := b.stats
	s.PerMaster = append([]uint64(nil), b.stats.PerMaster...)
	return s
}

// AddSlave attaches a memory-mapped slave. Overlapping address ranges are
// a wiring bug and panic immediately.
func (b *Bus) AddSlave(s Slave) {
	if s.Size() == 0 {
		panic(fmt.Sprintf("bus: slave %q has zero-size range", s.Name()))
	}
	for _, old := range b.slaves {
		lo, hi := uint64(s.Base()), uint64(s.Base())+uint64(s.Size())
		olo, ohi := uint64(old.Base()), uint64(old.Base())+uint64(old.Size())
		if lo < ohi && olo < hi {
			panic(fmt.Sprintf("bus: slave %q [%#x,%#x) overlaps %q [%#x,%#x)",
				s.Name(), lo, hi, old.Name(), olo, ohi))
		}
	}
	b.slaves = append(b.slaves, s)
	sort.Slice(b.slaves, func(i, j int) bool { return b.slaves[i].Base() < b.slaves[j].Base() })
}

// Slaves returns the attached slaves in address order.
func (b *Bus) Slaves() []Slave { return append([]Slave(nil), b.slaves...) }

// Decode returns the slave mapped at addr, or nil.
func (b *Bus) Decode(addr uint32) Slave {
	i := sort.Search(len(b.slaves), func(i int) bool {
		return uint64(b.slaves[i].Base())+uint64(b.slaves[i].Size()) > uint64(addr)
	})
	if i < len(b.slaves) && addr >= b.slaves[i].Base() {
		return b.slaves[i]
	}
	return nil
}

// MasterPort is a master's attachment point to the bus. It implements
// Conn; a Local Firewall wraps it to form a secured attachment.
type MasterPort struct {
	bus   *Bus
	index int
	name  string
	queue []*Transaction
}

// NewMaster creates a named master port. Ports arbitrate in creation order
// under FixedPriority.
func (b *Bus) NewMaster(name string) *MasterPort {
	p := &MasterPort{bus: b, index: len(b.masters), name: name}
	b.masters = append(b.masters, p)
	b.stats.PerMaster = append(b.stats.PerMaster, 0)
	return p
}

// Name returns the port name.
func (p *MasterPort) Name() string { return p.name }

// Index returns the arbitration index of the port.
func (p *MasterPort) Index() int { return p.index }

// Pending returns the number of queued, not-yet-granted transactions.
func (p *MasterPort) Pending() int { return len(p.queue) }

// Submit queues a transaction for arbitration. Malformed transactions
// complete immediately (same cycle) with RespSlaveErr rather than
// panicking: on real hardware a malformed request gets an error response,
// and attack models rely on that behaviour.
func (p *MasterPort) Submit(tx *Transaction, done func(*Transaction)) {
	tx.done = done
	tx.queued = p.bus.eng.Now()
	// No-op when an upstream interface (master-side firewall, SEI)
	// already owns the end-to-end origin.
	tx.StampIssued(tx.queued)
	if tx.Master == "" {
		tx.Master = p.name
	}
	tx.ID = p.bus.nextID
	p.bus.nextID++
	if err := tx.Validate(); err != nil {
		tx.Resp = RespSlaveErr
		p.bus.complete(tx, 0)
		return
	}
	if tx.Op == Read && len(tx.Data) < tx.Burst {
		if cap(tx.Data) >= tx.Burst {
			tx.Data = tx.Data[:tx.Burst]
		} else {
			tx.Data = make([]uint32, tx.Burst)
		}
	}
	p.queue = append(p.queue, tx)
	p.bus.waiting++
}

// Tick implements sim.Ticker: grant at most one transaction per cycle when
// idle.
func (b *Bus) Tick(now uint64) {
	if now < b.busyUntil {
		return
	}
	m := b.pick()
	if m == nil {
		return
	}
	tx := m.queue[0]
	copy(m.queue, m.queue[1:])
	m.queue[len(m.queue)-1] = nil
	m.queue = m.queue[:len(m.queue)-1]
	b.waiting--
	b.lastGrant = m.index

	tx.Started = now
	b.stats.WaitCycles += now - tx.queued

	var cycles uint64
	var resp Resp
	if s := b.Decode(tx.Addr); s == nil || !Contains(s, tx.Addr, uint32(tx.Size)*uint32(tx.Burst)) {
		cycles, resp = b.cfg.DecodeErrCycles, RespDecodeErr
	} else {
		cycles, resp = s.Access(now, tx)
	}
	tx.Resp = resp

	total := b.cfg.ArbCycles + b.cfg.AddrCycles + cycles
	if total < 1 {
		total = 1
	}
	b.busyUntil = now + total
	b.stats.BusyCycles += total
	b.stats.PerMaster[m.index]++
	b.complete(tx, total)
}

// NextTick implements sim.Sleeper: with requests queued the bus next
// grants when its current transfer ends; with none, only a Submit (from an
// event or another ticker) gives it work.
func (b *Bus) NextTick(now uint64) uint64 {
	if b.waiting == 0 {
		return sim.Never
	}
	if now < b.busyUntil {
		return b.busyUntil
	}
	return now
}

// Skip implements sim.Sleeper: an idle or occupied bus counts nothing per
// cycle.
func (b *Bus) Skip(uint64) {}

// pick selects the next master with pending work according to the
// arbitration policy.
func (b *Bus) pick() *MasterPort {
	n := len(b.masters)
	if b.waiting == 0 || n == 0 {
		return nil
	}
	start := 0
	if b.cfg.Arbitration == RoundRobin {
		start = (b.lastGrant + 1) % n
	}
	for i := 0; i < n; i++ {
		m := b.masters[(start+i)%n]
		if len(m.queue) > 0 {
			return m
		}
	}
	return nil
}

// complete schedules the completion event delay cycles from now. The event
// callback is the package-level finishTx bound to the transaction itself
// (via its owner back-pointer), so completion costs no closure allocation.
func (b *Bus) complete(tx *Transaction, delay uint64) {
	tx.owner = b
	b.eng.ScheduleArg(delay, finishTx, tx)
}

// finishTx folds a completed transaction into statistics and delivers the
// done callback.
func finishTx(now uint64, arg any) {
	tx := arg.(*Transaction)
	b := tx.owner
	tx.owner = nil
	tx.Completed = now
	b.stats.Completed++
	switch tx.Resp {
	case RespOK:
		b.stats.BitsMoved += tx.Bits()
	case RespDecodeErr:
		b.stats.DecodeErrs++
	case RespSlaveErr:
		b.stats.SlaveErrs++
	case RespSecurityErr:
		b.stats.SecurityErr++
	}
	if tx.done != nil {
		tx.done(tx)
	}
}
