package soc_test

import (
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/soc"
)

// TestPairBuildAllocation: a distributed pair, built once the seal and
// tree memos are warm as in any sweep or daemon worker, allocates only
// the memory its boot writes — the loaded images and the tree's on-chip
// cache — not the 1.5 MiB its memories span, nor the sealed zones and
// tree nodes, whose pages it shares with the memos.
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
	if per := (after.TotalAlloc - before.TotalAlloc) / builds; per >= 96<<10 {
		t.Fatalf("a distributed pair allocates %d KiB, want < 96", per>>10)
	}
}

// TestDDRSnapshotAllocation: the replay attack's snapshot of a distributed
// platform's external memory copies no page — it shares them — so it
// allocates less than one page, not the DDR's 512 KiB, and restoring it
// into the same platform allocates nothing.
func TestDDRSnapshotAllocation(t *testing.T) {
	s, err := soc.New(soc.Config{Protection: soc.Distributed})
	if err != nil {
		t.Fatal(err)
	}
	st := s.DDR.Store()
	st.Restore(st.Snapshot())
	const runs = 8
	var before, mid, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		snapSink = st.Snapshot()
	}
	runtime.ReadMemStats(&mid)
	for i := 0; i < runs; i++ {
		st.Restore(snapSink)
	}
	runtime.ReadMemStats(&after)
	if per := (mid.TotalAlloc - before.TotalAlloc) / runs; per >= 4<<10 {
		t.Fatalf("a DDR snapshot allocates %d bytes, want < 4 KiB", per)
	}
	if n := after.TotalAlloc - mid.TotalAlloc; n != 0 {
		t.Fatalf("restoring a DDR snapshot allocated %d bytes, want 0", n)
	}
}

var snapSink *mem.Image
