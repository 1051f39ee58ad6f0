package cpu_test

import (
	"fmt"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/sim"
)

// TestExternalCodeModificationTakesEffect: the decoded-instruction cache
// must observe writes made to local memory behind the core's back (program
// reloads, test pokes, attack injection) via the store generation check.
func TestExternalCodeModificationTakesEffect(t *testing.T) {
	eng := sim.NewEngine(sim.DefaultFrequency)
	c := cpu.New(eng, cpu.Config{Name: "cpu0", LocalBase: 0, LocalSize: 0x1000}, nil)
	// An infinite loop: branch-to-self. The core decodes and caches it.
	c.Load(isa.MustAssemble(`
	loop:
		beq r0, r0, loop
	`, 0))
	eng.Run(10)
	if h, _ := c.Halted(); h {
		t.Fatal("core halted inside the spin loop")
	}
	// Overwrite the loop instruction with HALT directly in local memory.
	halt := isa.MustAssemble("halt", 0).Words[0]
	c.Local().WriteWord(c.PC(), halt)
	eng.Run(5)
	h, cause := c.Halted()
	if !h || cause != cpu.HaltInstr {
		t.Fatalf("core did not execute externally patched HALT (halted=%v cause=%v); stale icache?", h, cause)
	}
}

// TestSelfModifyingStoreInvalidatesICache: a store executed by the core
// into its own code window must invalidate the cached decode of that word.
// The program first runs a countdown loop (caching the decode of its
// branch), then overwrites that branch with HALT and jumps back into it.
func TestSelfModifyingStoreInvalidatesICache(t *testing.T) {
	eng := sim.NewEngine(sim.DefaultFrequency)
	c := cpu.New(eng, cpu.Config{Name: "cpu0", LocalBase: 0, LocalSize: 0x1000}, nil)
	halt := isa.MustAssemble("halt", 0).Words[0]
	src := fmt.Sprintf(`
		lui  r1, %d          ; r1 = HALT encoding (high half)
		ori  r1, r1, %d      ; r1 |= low half
		addi r2, r0, 3       ; loop counter
	loop:
		addi r2, r2, -1      ; address 12
		bnez r2, loop        ; address 16: cached during the countdown
		sw   r1, 16(r0)      ; overwrite the cached branch with HALT
		beq  r0, r0, loop    ; re-enter: 12 then 16, which must now HALT
		halt                 ; safety net (never reached)
	`, halt>>16, halt&0xFFFF)
	c.Load(isa.MustAssemble(src, 0))
	cycles, _ := eng.RunUntil(func() bool { h, _ := c.Halted(); return h }, 200)
	h, cause := c.Halted()
	if !h || cause != cpu.HaltInstr {
		t.Fatalf("self-modified HALT not executed after %d cycles (halted=%v cause=%v); stale icache?",
			cycles, h, cause)
	}
	if c.PC() != 16 {
		t.Fatalf("halted at pc %#x, want 16 (the patched word)", c.PC())
	}
}

// TestCodeNearTopOfLocalMemory: the decoded-instruction cache grows with
// the highest word fetched, so code at the top of local memory — fetched
// after a jump from the bottom — must run like any other.
func TestCodeNearTopOfLocalMemory(t *testing.T) {
	eng := sim.NewEngine(sim.DefaultFrequency)
	c := cpu.New(eng, cpu.Config{Name: "cpu0", LocalBase: 0, LocalSize: 0x1000}, nil)
	c.Load(isa.MustAssemble(`
		addi r1, r0, 5
		beq  r0, r0, high
		.space 0xFD8         ; pad to 0xFE0, just below the default stack top
	high:
		addi r2, r1, 7       ; address 0xFE0
		halt                 ; address 0xFE4
	`, 0))
	eng.RunUntil(func() bool { h, _ := c.Halted(); return h }, 100)
	if h, cause := c.Halted(); !h || cause != cpu.HaltInstr {
		t.Fatalf("halted=%v cause=%v, want a clean HALT", h, cause)
	}
	if c.PC() != 0xFE4 || c.Reg(2) != 12 {
		t.Fatalf("pc %#x r2 %d, want pc 0xfe4 r2 12", c.PC(), c.Reg(2))
	}
}

// TestSelfModifyingStoreBeyondICache: a store into a code word the core
// has never fetched — past the cache's current length — must not fault
// the core, and the word must later execute as stored.
func TestSelfModifyingStoreBeyondICache(t *testing.T) {
	eng := sim.NewEngine(sim.DefaultFrequency)
	c := cpu.New(eng, cpu.Config{Name: "cpu0", LocalBase: 0, LocalSize: 0x1000}, nil)
	halt := isa.MustAssemble("halt", 0).Words[0]
	c.Load(isa.MustAssemble(fmt.Sprintf(`
		lui  r1, %d
		ori  r1, r1, %d
		sw   r1, 0xF00(r0)   ; patch a word far past every fetch so far
		beq  r0, r0, patched
		.space 0xEF0         ; pad to 0xF00 with zero words
	patched:
		.word 0              ; address 0xF00: the patch target
	`, halt>>16, halt&0xFFFF), 0))
	eng.RunUntil(func() bool { h, _ := c.Halted(); return h }, 100)
	if h, cause := c.Halted(); !h || cause != cpu.HaltInstr {
		t.Fatalf("halted=%v cause=%v, want the patched HALT", h, cause)
	}
	if c.PC() != 0xF00 {
		t.Fatalf("halted at pc %#x, want 0xf00 (the patched word)", c.PC())
	}
}
