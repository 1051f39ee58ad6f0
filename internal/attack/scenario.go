package attack

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/mem"
	"repro/internal/soc"
	"repro/internal/workload"
)

// Scenario is an attack in injectable form: the build / inject / verdict
// phases are separated so a harness — the campaign runner in
// internal/campaign — owns the platform, decides when the attack fires,
// and can keep benign background traffic flowing on the cores the
// scenario does not claim.
//
// The contract mirrors how a real compromise unfolds: Setup prepares the
// pre-attack state on a freshly built platform (victim data written,
// nothing hostile yet — the attack-free twin run executes exactly this
// phase too, so both platforms stay cycle-identical up to injection);
// Inject fires the attack at the harness-chosen cycle; Verify runs after
// the measured window and judges whether the attacker's goal was reached.
// Detection (alerts attributable to the attack) is classified uniformly by
// the harness, not by the scenario.
type Scenario interface {
	// Name is the scenario's stable identifier (the campaign grid axis
	// value).
	Name() string
	// MinCores is the smallest platform the scenario fits on.
	MinCores() int
	// Reserved lists the cores the scenario hijacks on an n-core platform;
	// a harness keeps background load off these. External-memory attacks
	// reserve none — the attacker manipulates the DDR image from outside.
	Reserved(n int) []int
	// Setup prepares pre-attack state; it may run the engine (the harness
	// calls it before background load starts, on a quiet platform).
	Setup(s *soc.System) error
	// Inject fires the attack at the current cycle: poke external memory,
	// or load a rogue program onto a reserved core (soc's Load revives a
	// halted core, which is exactly a hijacked IP going rogue mid-run).
	Inject(s *soc.System) error
	// Verify judges the attacker's goal after the measured window. It may
	// run the engine (drain the attacker program, issue victim reads).
	// slowdown is the background traffic's attacked-vs-twin cycle ratio
	// (0 when the harness ran no twin); only scenarios whose goal is
	// denial of service consult it.
	Verify(s *soc.System, slowdown float64) Verdict
}

// Verdict is a scenario's judgment of the attacker's goal.
type Verdict struct {
	// GoalMet reports whether the attacker achieved the effect the
	// scenario models (containment is its negation).
	GoalMet bool
	// Notes carries the scenario-specific measurement behind the verdict.
	Notes string
	// Err, when non-nil, means the scenario could not judge: the
	// measurement the verdict rests on did not happen (a victim read that
	// never completed), so GoalMet says nothing.
	Err error
}

// Names lists every injectable scenario in canonical order.
func Names() []string {
	return []string{
		"tamper", "replay", "relocation", "spoof", "cipher-only-tamper",
		"zone-escape", "dma-hijack", "format-abuse", "dos-flood", "burst-flood",
	}
}

// DefaultNames is the campaign's default scenario axis: every detection
// scenario plus the two flood forms. cipher-only-tamper is excluded — its
// non-detection is the documented cost of a CM-only zone (§III-B), not a
// containment result — but remains available by name.
func DefaultNames() []string {
	return []string{
		"tamper", "replay", "relocation", "spoof",
		"zone-escape", "dma-hijack", "format-abuse", "dos-flood", "burst-flood",
	}
}

// New returns a fresh instance of the named scenario. Instances carry
// per-run state (probe masters, memory snapshots), so every run — and each
// half of a twin pair — needs its own.
func New(name string) (Scenario, error) {
	switch name {
	case "tamper":
		return &tamperScenario{}, nil
	case "replay":
		return &replayScenario{}, nil
	case "relocation":
		return &relocationScenario{}, nil
	case "spoof":
		return &spoofScenario{}, nil
	case "cipher-only-tamper":
		return &cipherOnlyScenario{}, nil
	case "zone-escape":
		return &zoneEscapeScenario{}, nil
	case "dma-hijack":
		return &dmaHijackScenario{}, nil
	case "format-abuse":
		return &formatAbuseScenario{}, nil
	case "dos-flood":
		return &dosScenario{}, nil
	case "burst-flood":
		return &burstScenario{}, nil
	default:
		return nil, fmt.Errorf("attack: unknown scenario %q", name)
	}
}

// runBudget bounds the drains scenarios perform in Verify.
const runBudget = 2_000_000

// Scratch addresses the external-memory scenarios probe. All fall in the
// secure (CM+IM) zone except the cipher-only target; campaign background
// kernels stay on internal BRAM, well away from these.
const (
	tamperAddr = soc.SecureBase + 0x40
	replayAddr = soc.SecureBase + 0x80
	relocSrc   = soc.SecureBase + 0x100
	relocDst   = soc.SecureBase + 0x300
	spoofAddr  = soc.SecureBase + 0x400
	cipherAddr = soc.CipherBase + 0x40
)

// externalProbe is the shared plumbing of the external-memory scenarios: a
// dedicated unguarded bus master standing in for the victim software whose
// data the attacker manipulates.
type externalProbe struct {
	m *bus.MasterPort
}

func (*externalProbe) MinCores() int      { return 1 }
func (*externalProbe) Reserved(int) []int { return nil }

// attach creates the probe master. Both halves of a twin pair run this, so
// the bus master count (and thus arbitration) stays identical across them.
func (e *externalProbe) attach(s *soc.System) {
	e.m = s.Bus.NewMaster("victim")
}

// write issues a victim write of Setup, an error if it does not complete.
func (e *externalProbe) write(s *soc.System, addr, v uint32) error {
	if _, ok := probe(s, e.m, bus.Write, addr, v); !ok {
		return fmt.Errorf("attack: victim write to %#x did not complete within %d cycles", addr, probeBudget)
	}
	return nil
}

// verify issues the victim read and judges it: the attacker's goal is met
// when the read is delivered and goal holds of the data it returns. A read
// that does not complete is no verdict but an error.
func (e *externalProbe) verify(s *soc.System, addr uint32, goal func(data uint32) bool) Verdict {
	rd, ok := probe(s, e.m, bus.Read, addr, 0)
	if !ok {
		return Verdict{Err: fmt.Errorf("attack: victim read of %#x did not complete within %d cycles", addr, probeBudget)}
	}
	return Verdict{GoalMet: rd.Resp.OK() && goal(rd.Data[0]),
		Notes: fmt.Sprintf("read resp=%v data=%#x", rd.Resp, rd.Data[0])}
}

// tamperScenario flips one ciphertext/data bit in external memory, then
// the victim reads it back (threat: arbitrary modification of external
// code/data).
type tamperScenario struct{ externalProbe }

func (*tamperScenario) Name() string { return "tamper" }

func (t *tamperScenario) Setup(s *soc.System) error {
	t.attach(s)
	return t.write(s, tamperAddr, 0x0DDC0FFE)
}

func (t *tamperScenario) Inject(s *soc.System) error {
	raw := s.DDR.Store().Peek(tamperAddr, 1)
	s.DDR.Store().Poke(tamperAddr, []byte{raw[0] ^ 0x20})
	return nil
}

func (t *tamperScenario) Verify(s *soc.System, _ float64) Verdict {
	return t.verify(s, tamperAddr, func(v uint32) bool { return v != 0x0DDC0FFE })
}

// replayScenario snapshots external memory (data and tree nodes), lets the
// victim overwrite a value, restores the stale image, and reads back
// (threat: reverting a security-critical update, e.g. a decremented
// credit).
type replayScenario struct {
	externalProbe
	snap *mem.Image
}

func (*replayScenario) Name() string { return "replay" }

func (r *replayScenario) Setup(s *soc.System) error {
	r.attach(s)
	if err := r.write(s, replayAddr, 0x0001_0000); err != nil { // old balance
		return err
	}
	r.snap = s.DDR.Store().Snapshot()
	return r.write(s, replayAddr, 0x0000_0001) // spent: new balance
}

func (r *replayScenario) Inject(s *soc.System) error {
	s.DDR.Store().Restore(r.snap)
	return nil
}

func (r *replayScenario) Verify(s *soc.System, _ float64) Verdict {
	return r.verify(s, replayAddr, func(v uint32) bool { return v == 0x0001_0000 })
}

// relocationScenario copies a valid ciphertext block (and its stored leaf
// digest) to a different address (threat: splicing privileged code/data to
// another location).
type relocationScenario struct{ externalProbe }

func (*relocationScenario) Name() string { return "relocation" }

func (r *relocationScenario) Setup(s *soc.System) error {
	r.attach(s)
	if err := r.write(s, relocSrc, 0xA11C0DE5); err != nil {
		return err
	}
	return r.write(s, relocDst, 0x00000000)
}

func (r *relocationScenario) Inject(s *soc.System) error {
	blk := s.DDR.Store().Peek(relocSrc&^31, 32)
	s.DDR.Store().Poke(relocDst&^31, blk)
	if s.LCF != nil {
		// A thorough attacker also relocates the stored leaf digest.
		const leaves = uint32(soc.SecureSize / soc.LeafSizeBytes)
		const srcLeaf = uint32((relocSrc - soc.SecureBase) / soc.LeafSizeBytes)
		const dstLeaf = uint32((relocDst - soc.SecureBase) / soc.LeafSizeBytes)
		d := s.DDR.Store().Peek(soc.NodeBase+(leaves+srcLeaf-1)*16, 16)
		s.DDR.Store().Poke(soc.NodeBase+(leaves+dstLeaf-1)*16, d)
	}
	return nil
}

func (r *relocationScenario) Verify(s *soc.System, _ float64) Verdict {
	return r.verify(s, relocDst, func(v uint32) bool { return v == 0xA11C0DE5 })
}

// spoofScenario fabricates ciphertext at a fresh address (threat:
// injecting attacker-chosen data/code into the protected region).
type spoofScenario struct{ externalProbe }

func (*spoofScenario) Name() string { return "spoof" }

func (sp *spoofScenario) Setup(s *soc.System) error {
	sp.attach(s)
	return sp.write(s, spoofAddr, 0x600D_DA7A)
}

func (sp *spoofScenario) Inject(s *soc.System) error {
	fake := make([]byte, 32)
	for i := range fake {
		fake[i] = byte(0xE0 ^ i*7)
	}
	s.DDR.Store().Poke(spoofAddr&^31, fake)
	return nil
}

func (sp *spoofScenario) Verify(s *soc.System, _ float64) Verdict {
	return sp.verify(s, spoofAddr, func(v uint32) bool { return v != 0x600D_DA7A })
}

// cipherOnlyScenario targets the *ciphered-but-not-integrity-checked*
// zone, the configuration §III-B of the paper calls out: "When the memory
// is only ciphered it is more difficult for an attacker but he can still
// target a DoS attack by randomly changing some data." Confidentiality
// holds (the attacker learns nothing, writes garbage) but the corruption
// is undetected — delivered data silently changes. The distributed
// platform is *expected* not to detect this: it is the documented cost of
// choosing CM without IM for a zone.
type cipherOnlyScenario struct{ externalProbe }

func (*cipherOnlyScenario) Name() string { return "cipher-only-tamper" }

func (c *cipherOnlyScenario) Setup(s *soc.System) error {
	c.attach(s)
	return c.write(s, cipherAddr, 0x0DDF00D5)
}

func (c *cipherOnlyScenario) Inject(s *soc.System) error {
	raw := s.DDR.Store().Peek(cipherAddr, 1)
	s.DDR.Store().Poke(cipherAddr, []byte{raw[0] ^ 0x40})
	return nil
}

func (c *cipherOnlyScenario) Verify(s *soc.System, _ float64) Verdict {
	// The attacker's goal here is corruption-as-DoS: delivered data
	// differs from what was stored, without an alert.
	return c.verify(s, cipherAddr, func(v uint32) bool { return v != 0x0DDF00D5 })
}

// errsOut is where hijacked-core programs publish their observed bus-error
// count — in local memory, so the store itself cannot be blocked.
const errsOut = soc.LocalBase + 0xF000

// drainCore runs the platform until core i halts (bounded), so a verdict
// reads the attacker program's published counters, not a snapshot mid-run.
func drainCore(s *soc.System, i int) {
	s.RunUntilCores(runBudget, i)
}

// zoneEscapeScenario hijacks core 1 with a program that reads and writes
// addresses its security policy does not grant: another IP's restricted
// registers (the DMA, programmable only by cpu0) and the LCF's tree-node
// region.
type zoneEscapeScenario struct{}

func (*zoneEscapeScenario) Name() string       { return "zone-escape" }
func (*zoneEscapeScenario) MinCores() int      { return 2 }
func (*zoneEscapeScenario) Reserved(int) []int { return []int{1} }

func (*zoneEscapeScenario) Setup(*soc.System) error { return nil }

func zoneEscapeTargets() []uint32 {
	return []uint32{
		soc.DMABase + 0x0C, // DMA CTRL from the wrong core
		soc.NodeBase,       // integrity metadata
	}
}

func (*zoneEscapeScenario) Inject(s *soc.System) error {
	return s.Load(1, workload.ZoneEscape(zoneEscapeTargets(), errsOut))
}

func (*zoneEscapeScenario) Verify(s *soc.System, _ float64) Verdict {
	drainCore(s, 1)
	want := uint32(2 * len(zoneEscapeTargets()))
	errs := s.Cores[1].Local().ReadWord(errsOut)
	return Verdict{
		// Contained when every attempted access failed.
		GoalMet: errs != want,
		Notes:   fmt.Sprintf("busErrs=%d/%d", errs, want),
	}
}

// dmaHijackScenario programs the DMA from an unauthorized core (cpu1) to
// copy external plain memory over the shared BRAM (confused deputy).
type dmaHijackScenario struct{}

func (*dmaHijackScenario) Name() string       { return "dma-hijack" }
func (*dmaHijackScenario) MinCores() int      { return 2 }
func (*dmaHijackScenario) Reserved(int) []int { return []int{1} }

func (*dmaHijackScenario) Setup(s *soc.System) error {
	s.DDR.Store().WriteWord(soc.PlainBase, 0xBAD0_0BAD)
	return nil
}

func (*dmaHijackScenario) Inject(s *soc.System) error {
	return s.Load(1, fmt.Sprintf(`
		li r1, %#x        ; DMA base
		li r2, %#x
		sw r2, 0(r1)      ; src = plain DDR
		li r2, %#x
		sw r2, 4(r1)      ; dst = shared BRAM
		li r2, 32
		sw r2, 8(r1)      ; len
		li r2, 1
		sw r2, 12(r1)     ; go
		halt
	`, soc.DMABase, soc.PlainBase, soc.BRAMBase))
}

func (*dmaHijackScenario) Verify(s *soc.System, _ float64) Verdict {
	drainCore(s, 1)
	s.Eng.Run(20_000) // let any DMA transfer finish
	copied := s.BRAM.Store().ReadWord(soc.BRAMBase)
	return Verdict{
		GoalMet: copied != 0,
		Notes:   fmt.Sprintf("bram[0]=%#x dmaCopies=%d", copied, s.DMA.Copies),
	}
}

// formatAbuseScenario drives byte/halfword stores at the DMA register
// file, whose ADF rule (and register hardware) require 32-bit accesses
// (threat: partial-word writes corrupting protected control state). The
// attacker is cpu0 — the core whose *origin* is allowed — so only the
// format check can catch it.
type formatAbuseScenario struct{}

const formatProbes = 4

func (*formatAbuseScenario) Name() string       { return "format-abuse" }
func (*formatAbuseScenario) MinCores() int      { return 1 }
func (*formatAbuseScenario) Reserved(int) []int { return []int{0} }

func (*formatAbuseScenario) Setup(*soc.System) error { return nil }

func (*formatAbuseScenario) Inject(s *soc.System) error {
	return s.Load(0, workload.FormatAbuse(soc.DMABase+0x00, formatProbes, errsOut))
}

func (*formatAbuseScenario) Verify(s *soc.System, _ float64) Verdict {
	drainCore(s, 0)
	errs := s.Cores[0].Local().ReadWord(errsOut)
	return Verdict{
		GoalMet: errs != formatProbes*2,
		Notes:   fmt.Sprintf("busErrs=%d/%d", errs, formatProbes*2),
	}
}

// dosScenario hijacks the last core with an unauthorized store flood. With
// distributed firewalls the flood dies in the core's own interface;
// without them it competes with every bystander for the shared bus. The
// goal is denial of service, so the verdict is judged on the background
// traffic's slowdown versus the attack-free twin.
type dosScenario struct{}

// DoSSlowdownGoal is the bystander slowdown at which a flood counts as
// having achieved denial of service (victim more than 10% slower than its
// attack-free twin).
const DoSSlowdownGoal = 1.10

func (*dosScenario) Name() string  { return "dos-flood" }
func (*dosScenario) MinCores() int { return 2 }
func (*dosScenario) Reserved(n int) []int {
	return []int{n - 1}
}

func (*dosScenario) Setup(*soc.System) error { return nil }

func (*dosScenario) Inject(s *soc.System) error {
	return s.Load(len(s.Cores)-1, workload.DoSFlood(soc.NodeBase)) // outside every core's policy
}

func (*dosScenario) Verify(s *soc.System, slowdown float64) Verdict {
	share := floodBusShare(s, len(s.Cores)-1)
	if slowdown > 0 {
		return Verdict{
			GoalMet: slowdown >= DoSSlowdownGoal,
			Notes:   fmt.Sprintf("bystanders %.2fx vs twin, flood bus share %.0f%%", slowdown, share*100),
		}
	}
	// No background traffic to starve: fall back to whether the flood
	// reached the shared bus at all (§III-C requires it die in the
	// attacker's own interface).
	return Verdict{
		GoalMet: share >= 0.25,
		Notes:   fmt.Sprintf("no background; flood bus share %.0f%%", share*100),
	}
}

// burstScenario is the finite-incident flood built for the
// reaction-and-recovery experiments (internal/recovery): the hijacked last
// core interleaves policy violations (stores to the tree-node region,
// which alert on protected platforms) with *authorized* shared-BRAM stores
// that congest the bus everywhere, runs a benign tail, and halts. That
// mix is what makes quarantine pay: detection alone discards the illegal
// stores but cannot touch the legal bus hogging — on the centralized
// baseline the SEM sees the violations yet the flood's authorized half
// keeps starving bystanders — while the quarantine Reactor cuts the whole
// interface off, and the post-attack benign phase lets a supervisor
// release the core and watch background throughput return to the twin's.
type burstScenario struct{}

// Burst shape: enough hostile iterations that bystander cost is visible
// under round-robin arbitration, finite so the incident ends and recovery
// is observable within a campaign background window.
const (
	burstCount    = 48 // hostile iterations (one alert each)
	burstLegalPer = 10 // authorized stores per iteration (the bus load)
	burstTail     = 32 // benign stores after the attack ends
	// burstLegalAddr is shared BRAM the core's policy allows, clear of the
	// scratch words other scenarios probe (dma-hijack checks word 0) and
	// of the campaign's background slices (BRAMBase+0x4000 up).
	burstLegalAddr = soc.BRAMBase + 0x3800
)

// BurstSlowdownGoal is the bystander slowdown at which the burst counts as
// having achieved denial of service. Lower than DoSSlowdownGoal: the burst
// is finite, so its congestion is averaged over the whole background
// window.
const BurstSlowdownGoal = 1.05

func (*burstScenario) Name() string  { return "burst-flood" }
func (*burstScenario) MinCores() int { return 2 }
func (*burstScenario) Reserved(n int) []int {
	return []int{n - 1}
}

func (*burstScenario) Setup(*soc.System) error { return nil }

func (*burstScenario) Inject(s *soc.System) error {
	return s.Load(len(s.Cores)-1,
		workload.BurstFlood(soc.NodeBase, burstLegalAddr, burstCount, burstLegalPer, burstTail))
}

func (*burstScenario) Verify(s *soc.System, slowdown float64) Verdict {
	share := floodBusShare(s, len(s.Cores)-1)
	if slowdown > 0 {
		return Verdict{
			GoalMet: slowdown >= BurstSlowdownGoal,
			Notes:   fmt.Sprintf("bystanders %.2fx vs twin, burst bus share %.0f%%", slowdown, share*100),
		}
	}
	// No background traffic to starve: judged like the infinite flood, on
	// whether the burst occupied the shared bus.
	return Verdict{
		GoalMet: share >= 0.25,
		Notes:   fmt.Sprintf("no background; burst bus share %.0f%%", share*100),
	}
}

// floodBusShare is the fraction of completed bus transactions issued by
// the given core. Master ports are created in a fixed order — the DMA
// first, then the cores — so core i arbitrates on port index 1+i.
func floodBusShare(s *soc.System, core int) float64 {
	st := s.Bus.Stats()
	if st.Completed == 0 || len(st.PerMaster) <= 1+core {
		return 0
	}
	return float64(st.PerMaster[1+core]) / float64(st.Completed)
}
