// Package cpu implements the MB32 soft processor core of the platform — the
// stand-in for the paper's MicroBlaze processors.
//
// Each core owns a private local memory (the MicroBlaze LMB analogue)
// holding its code, data and stack, accessed in one cycle without touching
// the system bus. Data accesses outside the local window become bus
// transactions through the core's bus.Conn — which is where the paper
// interposes a Local Firewall.
//
// The core is deliberately multi-cycle rather than pipelined: one
// instruction per Tick, plus an extra cycle for local memory operands and a
// full stall for bus operands. The paper's results depend on relative
// communication costs, not superscalar micro-architecture.
package cpu

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// HaltCause explains why a core stopped.
type HaltCause uint8

// Halt causes.
const (
	// HaltNone: the core is running.
	HaltNone HaltCause = iota
	// HaltInstr: the program executed HALT.
	HaltInstr
	// HaltIllegal: undefined opcode.
	HaltIllegal
	// HaltFetchFault: pc left the local code window.
	HaltFetchFault
	// HaltBusFault: a bus error occurred while TrapOnBusError is set.
	HaltBusFault
)

// String implements fmt.Stringer.
func (h HaltCause) String() string {
	switch h {
	case HaltNone:
		return "running"
	case HaltInstr:
		return "halt"
	case HaltIllegal:
		return "illegal-instruction"
	case HaltFetchFault:
		return "fetch-fault"
	case HaltBusFault:
		return "bus-fault"
	default:
		return fmt.Sprintf("cause(%d)", uint8(h))
	}
}

// Config parameterizes a core.
type Config struct {
	// Name identifies the core in traces and firewall alerts.
	Name string
	// ID is returned by CSRR CsrCoreID.
	ID uint32
	// LocalBase/LocalSize define the private local memory window.
	LocalBase, LocalSize uint32
	// TrapOnBusError halts the core on any bus error response instead of
	// recording it in CsrBusErr and continuing. The paper's firewalls
	// discard offending transfers; the default (false) models software
	// that keeps running after a discarded access.
	TrapOnBusError bool
}

// Stats exposes the core's performance counters. The JSON form feeds the
// sweep pipeline's per-core breakdowns.
type Stats struct {
	Cycles       uint64 `json:"cycles"`       // cycles while running (not halted), stalls included, whether stepped or skipped by the engine
	Instructions uint64 `json:"instructions"` // retired instructions
	StallCycles  uint64 `json:"stall_cycles"` // cycles spent waiting on the bus
	LocalOps     uint64 `json:"local_ops"`    // loads/stores satisfied by local memory
	BusOps       uint64 `json:"bus_ops"`      // loads/stores sent to the bus
	BusErrors    uint64 `json:"bus_errors"`   // error responses received (incl. security discards)
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// Core is one MB32 processor.
type Core struct {
	cfg   Config
	eng   *sim.Engine
	conn  bus.Conn
	local *mem.Store

	regs [32]uint32
	pc   uint32

	halted    bool
	cause     HaltCause
	haltCycle uint64 // cycle the current halt happened (valid while halted)
	waitBus   bool
	pause     uint64 // extra cycles to burn (local mem op)
	awake     bool   // !halted && !waitBus, as last reported to the engine

	scratch uint32
	thread  uint32

	// Interrupt state: a single external line (the AlertPort), a vector
	// CSR enabling delivery, and an EPC for the return path.
	irqPending bool
	inISR      bool
	epc        uint32
	ivec       uint32

	// Bus-operation state. The core has at most one outstanding bus
	// transaction (it stalls until completion), so a single Transaction,
	// its one-word data buffer and a callback bound once at construction
	// are reused for every bus op — the hot path allocates nothing.
	btx     bus.Transaction
	busData [1]uint32
	busDone func(*bus.Transaction)
	busRd   uint8
	busOp   isa.Opcode
	busNext uint32

	// icache caches decoded instructions per local word (entries with
	// Decoded == false are misses). It covers only the words up to the
	// highest one fetched so far, growing on fetch (at most LocalSize/4
	// entries): kernels are tens of instructions in a 64 KiB memory, so a
	// full-size cache would be mostly never-touched bytes to allocate and
	// to clear on every program load. The core invalidates precisely on
	// its own local stores; any other mutation of local memory (program
	// loads, test pokes, attack injection) is caught by comparing the
	// store's generation at fetch, so self-modifying and externally
	// modified code stay architecturally correct.
	icache    []isa.Instr
	icacheGen uint64

	stats Stats
}

// New creates a core with its private local memory. conn is the core's
// path to the system bus; pass the raw bus.MasterPort for an unprotected
// core or a firewall wrapping it for a protected one.
func New(eng *sim.Engine, cfg Config, conn bus.Conn) *Core {
	if cfg.LocalSize == 0 {
		cfg.LocalSize = 64 * 1024
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("cpu%d", cfg.ID)
	}
	c := &Core{
		cfg:   cfg,
		eng:   eng,
		conn:  conn,
		local: mem.NewStore(cfg.LocalBase, cfg.LocalSize),
		pc:    cfg.LocalBase,
	}
	c.regs[isa.RegSP] = cfg.LocalBase + cfg.LocalSize - 16 // default stack top
	c.busDone = c.onBusDone
	eng.AddTicker(c)
	c.syncAwake()
	return c
}

// Name returns the core name.
func (c *Core) Name() string { return c.cfg.Name }

// Local exposes the private local memory (program loading, test probes).
func (c *Core) Local() *mem.Store { return c.local }

// PC returns the current program counter.
func (c *Core) PC() uint32 { return c.pc }

// Reg returns register n (r0 reads as zero).
func (c *Core) Reg(n int) uint32 {
	if n == 0 {
		return 0
	}
	return c.regs[n&31]
}

// SetReg writes register n (writes to r0 are ignored).
func (c *Core) SetReg(n int, v uint32) {
	if n != 0 {
		c.regs[n&31] = v
	}
}

// Halted reports whether the core has stopped and why.
func (c *Core) Halted() (bool, HaltCause) { return c.halted, c.cause }

// Stats returns the performance counters.
func (c *Core) Stats() Stats { return c.stats }

// Load copies an assembled program into local memory and points the pc at
// its base (or the `_start` symbol when defined).
func (c *Core) Load(p *isa.Program) {
	addr := p.Base
	for _, w := range p.Words {
		c.local.WriteWord(addr, w)
		addr += 4
	}
	c.pc = p.Entry("_start")
	c.halted = false
	c.cause = HaltNone
	c.haltCycle = 0
	c.syncAwake()
}

// Reset rewinds architectural state (registers, pc, counters) without
// clearing local memory.
func (c *Core) Reset() {
	c.regs = [32]uint32{}
	c.regs[isa.RegSP] = c.cfg.LocalBase + c.cfg.LocalSize - 16
	c.pc = c.cfg.LocalBase
	c.halted = false
	c.cause = HaltNone
	c.haltCycle = 0
	c.waitBus = false
	c.pause = 0
	c.irqPending = false
	c.inISR = false
	c.epc = 0
	c.ivec = 0
	c.stats = Stats{}
	c.syncAwake()
}

func (c *Core) halt(cause HaltCause) {
	c.halted = true
	c.cause = cause
	c.haltCycle = c.eng.Now()
	c.syncAwake()
}

// syncAwake reports a change of sleep state to the engine (sim.Engine.Wake
// and Doze). A core sleeps while it is halted or stalled on the bus: only
// Load, Reset or its bus completion event can change its state then.
func (c *Core) syncAwake() {
	awake := !c.halted && !c.waitBus
	if awake == c.awake {
		return
	}
	c.awake = awake
	if awake {
		c.eng.Wake()
	} else {
		c.eng.Doze()
	}
}

// NextTick implements sim.Sleeper: a running core needs every cycle; a
// halted or stalled one waits for an event.
func (c *Core) NextTick(now uint64) uint64 {
	if c.halted || c.waitBus {
		return sim.Never
	}
	return now
}

// Skip implements sim.Sleeper: a core stalled on the bus counts every
// elided cycle as a running stall cycle, exactly as Tick would have.
func (c *Core) Skip(n uint64) {
	if !c.halted && c.waitBus {
		c.stats.Cycles += n
		c.stats.StallCycles += n
	}
}

// HaltCycle reports the cycle the core halted at, and whether it is
// halted. The stamp is only meaningful while halted: Load and Reset revive
// the core and invalidate it.
func (c *Core) HaltCycle() (uint64, bool) { return c.haltCycle, c.halted }

func (c *Core) isLocal(addr uint32, n uint32) bool {
	return c.local.InRange(addr, n)
}

// Tick implements sim.Ticker: execute at most one instruction per cycle.
func (c *Core) Tick(now uint64) {
	if c.halted {
		return
	}
	c.stats.Cycles++
	if c.waitBus {
		c.stats.StallCycles++
		return
	}
	if c.pause > 0 {
		c.pause--
		return
	}
	if c.irqPending && !c.inISR && c.ivec != 0 {
		// Interrupt entry costs one cycle: save pc, vector.
		c.irqPending = false
		c.inISR = true
		c.epc = c.pc
		c.pc = c.ivec
		return
	}
	if !c.isLocal(c.pc, 4) || c.pc%4 != 0 {
		c.halt(HaltFetchFault)
		return
	}
	if g := c.local.Gen(); g != c.icacheGen {
		clear(c.icache)
		c.icacheGen = g
	}
	idx := int(c.pc-c.cfg.LocalBase) >> 2
	if idx >= len(c.icache) {
		// The pc is inside local memory, so idx < LocalSize/4.
		c.icache = append(c.icache, make([]isa.Instr, idx+1-len(c.icache))...)
	}
	in := c.icache[idx]
	if !in.Decoded {
		in = isa.Decode(c.local.ReadWord(c.pc))
		c.icache[idx] = in
	}
	if !in.Op.Valid() {
		c.halt(HaltIllegal)
		return
	}
	c.execute(in, now)
}

// execute runs one decoded instruction. It updates pc itself (branches and
// jumps override the default pc+4).
func (c *Core) execute(in isa.Instr, now uint64) {
	next := c.pc + 4
	ra := c.Reg(int(in.Ra))
	rb := c.Reg(int(in.Rb))
	simm := isa.SignExt16(in.Imm)

	retire := func() {
		c.stats.Instructions++
		c.pc = next
	}

	switch in.Op {
	case isa.ADD:
		c.SetReg(int(in.Rd), ra+rb)
	case isa.SUB:
		c.SetReg(int(in.Rd), ra-rb)
	case isa.AND:
		c.SetReg(int(in.Rd), ra&rb)
	case isa.OR:
		c.SetReg(int(in.Rd), ra|rb)
	case isa.XOR:
		c.SetReg(int(in.Rd), ra^rb)
	case isa.SLL:
		c.SetReg(int(in.Rd), ra<<(rb&31))
	case isa.SRL:
		c.SetReg(int(in.Rd), ra>>(rb&31))
	case isa.SRA:
		c.SetReg(int(in.Rd), uint32(int32(ra)>>(rb&31)))
	case isa.MUL:
		c.SetReg(int(in.Rd), ra*rb)
	case isa.SLT:
		c.SetReg(int(in.Rd), boolTo32(int32(ra) < int32(rb)))
	case isa.SLTU:
		c.SetReg(int(in.Rd), boolTo32(ra < rb))
	case isa.ADDI:
		c.SetReg(int(in.Rd), ra+simm)
	case isa.ANDI:
		c.SetReg(int(in.Rd), ra&uint32(in.Imm))
	case isa.ORI:
		c.SetReg(int(in.Rd), ra|uint32(in.Imm))
	case isa.XORI:
		c.SetReg(int(in.Rd), ra^uint32(in.Imm))
	case isa.SLTI:
		c.SetReg(int(in.Rd), boolTo32(int32(ra) < int32(simm)))
	case isa.SLLI:
		c.SetReg(int(in.Rd), ra<<(in.Imm&31))
	case isa.SRLI:
		c.SetReg(int(in.Rd), ra>>(in.Imm&31))
	case isa.SRAI:
		c.SetReg(int(in.Rd), uint32(int32(ra)>>(in.Imm&31)))
	case isa.LUI:
		c.SetReg(int(in.Rd), uint32(in.Imm)<<16)

	case isa.LW, isa.LH, isa.LHU, isa.LB, isa.LBU:
		c.memOp(in, ra+simm, 0, next)
		return // memOp retires
	case isa.SW, isa.SH, isa.SB:
		c.memOp(in, ra+simm, c.Reg(int(in.Rd)), next)
		return

	case isa.BEQ:
		if ra == rb {
			next = c.pc + uint32(in.SignedImm())*4
		}
	case isa.BNE:
		if ra != rb {
			next = c.pc + uint32(in.SignedImm())*4
		}
	case isa.BLT:
		if int32(ra) < int32(rb) {
			next = c.pc + uint32(in.SignedImm())*4
		}
	case isa.BGE:
		if int32(ra) >= int32(rb) {
			next = c.pc + uint32(in.SignedImm())*4
		}
	case isa.BLTU:
		if ra < rb {
			next = c.pc + uint32(in.SignedImm())*4
		}
	case isa.BGEU:
		if ra >= rb {
			next = c.pc + uint32(in.SignedImm())*4
		}
	case isa.JAL:
		c.SetReg(int(in.Rd), next)
		next = ra + simm
	case isa.BAL:
		c.SetReg(int(in.Rd), next)
		next = c.pc + uint32(in.SignedImm())*4

	case isa.CSRR:
		c.SetReg(int(in.Rd), c.readCSR(in.Imm, now))
	case isa.CSRW:
		c.writeCSR(in.Imm, ra)

	case isa.HALT:
		c.stats.Instructions++
		c.halt(HaltInstr)
		return
	case isa.IRET:
		c.inISR = false
		next = c.epc
	}
	retire()
}

func (c *Core) readCSR(n uint16, now uint64) uint32 {
	switch n {
	case isa.CsrCoreID:
		return c.cfg.ID
	case isa.CsrCycle:
		return uint32(now)
	case isa.CsrCycleHi:
		return uint32(now >> 32)
	case isa.CsrInstret:
		return uint32(c.stats.Instructions)
	case isa.CsrBusErr:
		return uint32(c.stats.BusErrors)
	case isa.CsrScratch:
		return c.scratch
	case isa.CsrThread:
		return c.thread
	case isa.CsrEpc:
		return c.epc
	case isa.CsrIvec:
		return c.ivec
	default:
		return 0
	}
}

func (c *Core) writeCSR(n uint16, v uint32) {
	switch n {
	case isa.CsrScratch:
		c.scratch = v
	case isa.CsrThread:
		c.thread = v
	case isa.CsrEpc:
		c.epc = v
	case isa.CsrIvec:
		c.ivec = v
	}
	// Counters and the ID are read-only: writes are silently ignored, as
	// on hardware.
}

// Thread returns the current software context tag.
func (c *Core) Thread() uint32 { return c.thread }

// RaiseIRQ asserts the core's external interrupt line. Delivery happens at
// the next instruction boundary if a handler is installed (CsrIvec != 0)
// and no handler is already running; otherwise the request stays pending.
func (c *Core) RaiseIRQ() { c.irqPending = true }

// InISR reports whether an interrupt handler is currently executing.
func (c *Core) InISR() bool { return c.inISR }

// memOp performs a load or store at addr, either against local memory
// (one extra cycle) or over the bus (stall until completion).
func (c *Core) memOp(in isa.Instr, addr uint32, storeVal uint32, next uint32) {
	size := in.Op.MemSize()
	if c.isLocal(addr, uint32(size)) {
		if addr%uint32(size) != 0 {
			// Misaligned local access: treated like a bus fault.
			c.busError(next)
			return
		}
		c.stats.LocalOps++
		if in.Op.IsStore() {
			c.local.Write(addr, size, storeVal)
			// The store cannot straddle words (aligned, size <= 4):
			// invalidate exactly the covered icache word (if the cache
			// reaches it), then adopt the new generation so the fetch
			// path does not flush everything.
			if i := int(addr-c.cfg.LocalBase) >> 2; i < len(c.icache) {
				c.icache[i] = isa.Instr{}
			}
			c.icacheGen = c.local.Gen()
		} else {
			c.SetReg(int(in.Rd), extendLoad(in.Op, c.local.Read(addr, size)))
		}
		c.pause = 1 // local memory costs one extra cycle
		c.stats.Instructions++
		c.pc = next
		return
	}

	// Bus access: issue and stall. The reused transaction is fully
	// re-initialized — in particular the timestamps must return to zero
	// so the first firewall or port stamps a fresh Issued origin.
	c.stats.BusOps++
	tx := &c.btx
	*tx = bus.Transaction{
		Master: c.cfg.Name,
		Thread: c.thread,
		Op:     bus.Read,
		Addr:   addr,
		Size:   size,
		Burst:  1,
		Data:   c.busData[:1],
	}
	c.busData[0] = 0
	if in.Op.IsStore() {
		tx.Op = bus.Write
		c.busData[0] = storeVal
	}
	c.waitBus = true
	c.busRd = in.Rd
	c.busOp = in.Op
	c.busNext = next
	c.syncAwake()
	c.conn.Submit(tx, c.busDone)
}

// onBusDone completes the stalled memory instruction when its bus
// transaction finishes.
func (c *Core) onBusDone(done *bus.Transaction) {
	c.waitBus = false
	if !done.Resp.OK() {
		c.stats.BusErrors++
		if c.busOp.IsLoad() {
			// Discarded transfers deliver nothing; software sees 0.
			c.SetReg(int(c.busRd), 0)
		}
		if c.cfg.TrapOnBusError {
			c.stats.Instructions++
			c.halt(HaltBusFault)
			return
		}
	} else if c.busOp.IsLoad() {
		c.SetReg(int(c.busRd), extendLoad(c.busOp, done.Data[0]))
	}
	c.stats.Instructions++
	c.pc = c.busNext
	c.syncAwake()
}

// busError emulates the response to a locally detected bad access.
func (c *Core) busError(next uint32) {
	c.stats.BusErrors++
	if c.cfg.TrapOnBusError {
		c.halt(HaltBusFault)
		return
	}
	c.stats.Instructions++
	c.pc = next
}

func extendLoad(op isa.Opcode, v uint32) uint32 {
	switch op {
	case isa.LB:
		return uint32(int32(int8(v)))
	case isa.LH:
		return uint32(int32(int16(v)))
	default:
		return v
	}
}

func boolTo32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
