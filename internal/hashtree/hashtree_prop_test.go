package hashtree

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestUpdateVerifyRandomLeavesProperty: after any sequence of legitimate
// data writes + UpdateLeaf calls, every leaf still verifies and the
// version counters match the update counts.
func TestUpdateVerifyRandomLeavesProperty(t *testing.T) {
	prop := func(seed uint64, opsRaw uint8) bool {
		st := mem.NewStore(0, 0x4000)
		tr := MustNew(Config{Store: st, DataBase: 0, DataSize: 32 * LeafSize,
			NodeBase: 0x2000, CacheSize: 8})
		tr.Build()
		rng := sim.NewRNG(seed)
		updates := make(map[int]uint32)
		ops := int(opsRaw%40) + 1
		for i := 0; i < ops; i++ {
			leaf := rng.Intn(32)
			var data [LeafSize]byte
			rng.Bytes(data[:])
			st.Poke(uint32(leaf)*LeafSize, data[:])
			if ok, _ := tr.UpdateLeaf(leaf); !ok {
				return false
			}
			updates[leaf]++
		}
		for i := 0; i < 32; i++ {
			if ok, _ := tr.VerifyLeaf(i); !ok {
				return false
			}
			if tr.Version(i) != updates[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestLargeTreeDepthAndCoverage builds a 256-leaf tree and exercises the
// extremes.
func TestLargeTreeDepthAndCoverage(t *testing.T) {
	st := mem.NewStore(0, 0x8000)
	tr := MustNew(Config{Store: st, DataBase: 0, DataSize: 256 * LeafSize,
		NodeBase: 0x4000, CacheSize: 16})
	for i := uint32(0); i < 256*LeafSize; i += 4 {
		st.WriteWord(i, i*2654435761)
	}
	tr.Build()
	if tr.Depth() != 8 {
		t.Fatalf("depth = %d, want 8", tr.Depth())
	}
	for _, leaf := range []int{0, 1, 127, 128, 254, 255} {
		if ok, checks := tr.VerifyLeaf(leaf); !ok || checks < 1 {
			t.Fatalf("leaf %d: ok=%v checks=%d", leaf, ok, checks)
		}
	}
	// Cold verify cost is depth+1 node computations.
	cold := MustNew(Config{Store: st, DataBase: 0, DataSize: 256 * LeafSize,
		NodeBase: 0x4000})
	cold.Build()
	if _, checks := cold.VerifyLeaf(200); checks != 9 {
		t.Fatalf("cold verify = %d checks, want 9", checks)
	}
}

// TestDiagnoseClassification pins the Diagnose outcomes for the three
// canonical cases.
func TestDiagnoseClassification(t *testing.T) {
	st := mem.NewStore(0, 0x4000)
	tr := MustNew(Config{Store: st, DataBase: 0, DataSize: 16 * LeafSize, NodeBase: 0x2000})
	tr.Build()
	if d := tr.Diagnose(0); d != DiagAuthentic {
		t.Fatalf("fresh leaf: %v", d)
	}
	// Replay: version bumped, stale image restored.
	snap := st.Snapshot()
	st.Poke(0, []byte{1})
	tr.UpdateLeaf(0)
	st.Restore(snap)
	if d := tr.Diagnose(0); d != DiagReplay {
		t.Fatalf("replayed image: %v, want replay", d)
	}
	// Tamper: data changed without a consistent digest anywhere.
	tr.Build()
	st.Poke(3, []byte{0xFF})
	if d := tr.Diagnose(0); d != DiagTamper {
		t.Fatalf("tampered data: %v, want tamper", d)
	}
}

func BenchmarkVerifyLeafCold(b *testing.B) {
	st := mem.NewStore(0, 0x10000)
	tr := MustNew(Config{Store: st, DataBase: 0, DataSize: 512 * LeafSize, NodeBase: 0x8000})
	tr.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.VerifyLeaf(i % 512)
	}
}

func BenchmarkVerifyLeafCached(b *testing.B) {
	st := mem.NewStore(0, 0x10000)
	tr := MustNew(Config{Store: st, DataBase: 0, DataSize: 512 * LeafSize,
		NodeBase: 0x8000, CacheSize: 1024})
	tr.Build()
	tr.VerifyLeaf(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.VerifyLeaf(7)
	}
}

func BenchmarkUpdateLeaf(b *testing.B) {
	st := mem.NewStore(0, 0x10000)
	tr := MustNew(Config{Store: st, DataBase: 0, DataSize: 512 * LeafSize,
		NodeBase: 0x8000, CacheSize: 64})
	tr.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.WriteWord(uint32(i%512)*LeafSize, uint32(i))
		tr.UpdateLeaf(i % 512)
	}
}

// BenchmarkBuildCold measures Build over a tree the size of the Figure 1
// platform's secure zone (32 KiB, 1024 leaves) when every iteration builds
// an image not built before — the boot-time build of a process's first
// platform. Under the build memo that is the miss path: the computation,
// the byte-for-byte comparison with every remembered build (the images
// differ only in their last word, so each comparison runs to the end) and
// the copies the memo keeps.
func BenchmarkBuildCold(b *testing.B) {
	const size = 1024 * LeafSize
	st := mem.NewStore(0, 2*size)
	tr := MustNew(Config{Store: st, DataBase: 0, DataSize: size, NodeBase: size})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// b.N+i is new in every iteration, also across the runs of one
		// process (b.N grows between them).
		st.WriteWord(size-4, uint32(b.N+i))
		tr.Build()
	}
}
