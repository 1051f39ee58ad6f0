package soc_test

import (
	"runtime"
	"testing"

	"repro/internal/soc"
)

// TestPairBuildAllocation: a distributed pair, built once the seal and
// tree memos are warm as in any sweep or daemon worker, allocates only
// the memory its boot writes — the sealed zones, the tree nodes and the
// loaded images — not the 1.5 MiB its memories span.
func TestPairBuildAllocation(t *testing.T) {
	if _, err := soc.NewPair(soc.Config{Protection: soc.Distributed}); err != nil {
		t.Fatal(err)
	}
	const builds = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		if _, err := soc.NewPair(soc.Config{Protection: soc.Distributed}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / builds; per >= 512<<10 {
		t.Fatalf("a distributed pair allocates %d KiB, want < 512", per>>10)
	}
}
