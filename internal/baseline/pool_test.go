package baseline_test

import (
	"testing"

	"repro/internal/bus"
)

// TestSEIPathAllocationFree: the centralized baseline's per-transfer path
// (SEI protocol records, SEM pending checks, protocol transactions and
// their data buffers) must run allocation-free in steady state, matching
// the zero-alloc distributed firewalls — otherwise SEM-vs-LF benchmark
// comparisons measure the Go allocator instead of the architectures.
func TestSEIPathAllocationFree(t *testing.T) {
	eng, s0, _, _, _, _ := rig(t, allowAll())

	var data [1]uint32
	var tx bus.Transaction
	completed, stuck := false, false
	cb := func(*bus.Transaction) { completed = true }
	cond := func() bool { return completed }
	run := func() {
		completed = false
		tx = bus.Transaction{Op: bus.Read, Addr: bramBase, Size: 4, Burst: 1, Data: data[:]}
		s0.Submit(&tx, cb)
		if _, ok := eng.RunUntil(cond, 1_000_000); !ok {
			stuck = true
		}
	}
	// Warm the SEI/SEM free lists and the engine's event heap, which grow
	// to their steady size in the first runs, before measuring.
	for i := 0; i < 64; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(200, run)
	if stuck {
		t.Fatal("transaction stuck")
	}
	if allocs > 0 {
		t.Fatalf("centralized check path allocates %.2f objects per access, want 0", allocs)
	}
}
