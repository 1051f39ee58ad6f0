package hashtree

import (
	"testing"

	"repro/internal/mem"
)

// TestVerifyLeafAllocFree pins 0 allocs/op on warm-cache verification —
// the IC's steady-state read path.
func TestVerifyLeafAllocFree(t *testing.T) {
	tr, _ := testTree(t, 64)
	tr.VerifyLeaf(5) // warm the path
	allocs := testing.AllocsPerRun(200, func() {
		if ok, _ := tr.VerifyLeaf(5); !ok {
			t.Fatal("verify failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm VerifyLeaf allocates %v per op, want 0", allocs)
	}
}

// TestVerifyLeafColdAllocFree pins 0 allocs/op even on full-path walks
// (cache disabled): the fixed path arrays and stack schedules mean cold
// verification costs hashing, never heap.
func TestVerifyLeafColdAllocFree(t *testing.T) {
	tr, _ := testTree(t, 0)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		if ok, _ := tr.VerifyLeaf(i % 16); !ok {
			t.Fatal("verify failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("cold VerifyLeaf allocates %v per op, want 0", allocs)
	}
}

// TestUpdateLeafAllocFree pins 0 allocs/op on warm-cache updates — the
// IC's steady-state write path.
func TestUpdateLeafAllocFree(t *testing.T) {
	tr, st := testTree(t, 64)
	tr.VerifyLeaf(3)
	i := uint32(0)
	allocs := testing.AllocsPerRun(200, func() {
		i++
		st.WriteWord(0x4000_0000+3*LeafSize, i)
		if ok, _ := tr.UpdateLeaf(3); !ok {
			t.Fatal("update failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm UpdateLeaf allocates %v per op, want 0", allocs)
	}
}

// TestHashAllocFree: the general-purpose hash also runs entirely on the
// stack.
func TestHashAllocFree(t *testing.T) {
	data := make([]byte, 48)
	allocs := testing.AllocsPerRun(200, func() {
		Hash(data)
	})
	if allocs != 0 {
		t.Fatalf("Hash allocates %v per op, want 0", allocs)
	}
}

// TestCacheTableOnGiantTree: the verified-node cache's table is sized by
// CacheSize, not by the tree — a 2^16-leaf tree with an 8-entry cache
// gets 16 slots — and on such a tree the cache keeps its semantics: hits,
// the eviction bound, tamper detection and the reset at Build.
func TestCacheTableOnGiantTree(t *testing.T) {
	const leaves = 1 << 16
	st := mem.NewStore(0, leaves*LeafSize+NodesSize(leaves*LeafSize))
	tr := MustNew(Config{Store: st, DataBase: 0, DataSize: leaves * LeafSize,
		NodeBase: leaves * LeafSize, CacheSize: 8})
	if len(tr.cache) != 16 {
		t.Fatalf("cache table has %d slots, want 16 for 8 entries", len(tr.cache))
	}
	tr.Build()
	for _, leaf := range []int{0, 1, leaves / 2, leaves - 1} {
		if ok, _ := tr.VerifyLeaf(leaf); !ok {
			t.Fatalf("leaf %d failed", leaf)
		}
	}
	if tr.CachedNodes() > 8 {
		t.Fatalf("cache occupancy %d, cap 8", tr.CachedNodes())
	}
	requireCacheMatchesFIFO(t, tr)
	tr.VerifyLeaf(7)
	if _, checks := tr.VerifyLeaf(7); checks >= tr.Depth()+1 {
		t.Fatalf("warm verify cost %d, no cache effect", checks)
	}
	st.Poke(7*LeafSize, []byte{0xFF})
	if ok, _ := tr.VerifyLeaf(7); ok {
		t.Fatal("cache masked tampering on a giant tree")
	}
	st.Poke(7*LeafSize, []byte{0x00})
	if ok, _ := tr.UpdateLeaf(7); !ok {
		t.Fatal("update failed")
	}
	tr.Build()
	if tr.CachedNodes() != 0 {
		t.Fatal("Build did not reset the cache")
	}
	requireCacheMatchesFIFO(t, tr)
}

// requireCacheMatchesFIFO fails unless the cache's table holds exactly the
// nodes of its FIFO ring, each once and each found by a lookup.
func requireCacheMatchesFIFO(t *testing.T, tr *Tree) {
	t.Helper()
	held := 0
	for _, s := range tr.cache {
		if s.node != 0 {
			held++
		}
	}
	if held != tr.fifoLen {
		t.Fatalf("table holds %d nodes, FIFO ring %d", held, tr.fifoLen)
	}
	for k := 0; k < tr.fifoLen; k++ {
		n := tr.fifo[(tr.fifoHead+k)%len(tr.fifo)]
		if n == 1 {
			continue // the root is found on chip, not in the table
		}
		if _, hit := tr.cacheGet(int(n)); !hit {
			t.Fatalf("FIFO node %d is not found in the table", n)
		}
	}
}

// TestUpdateReusesVerifiedSiblings: the rehash after a warm update must
// not re-read external memory for siblings the pre-verify walk already
// authenticated — observable as the update making exactly one store write
// per path level plus the leaf, with no extra node reads changing counts.
func TestUpdateReusesVerifiedSiblings(t *testing.T) {
	st := mem.NewStore(0, 0x4000)
	tr := MustNew(Config{Store: st, DataBase: 0, DataSize: 16 * LeafSize, NodeBase: 0x2000})
	tr.Build()
	st.Poke(0, []byte{7})
	before := tr.NodeUpdates
	ok, ops := tr.UpdateLeaf(0)
	if !ok {
		t.Fatal("update failed")
	}
	// Cache disabled: the walk costs depth checks, the rehash depth+1
	// updates; ops is their sum and NodeUpdates advanced by depth+1.
	wantOps := tr.Depth() + tr.Depth() + 1
	if ops != wantOps {
		t.Fatalf("ops = %d, want %d", ops, wantOps)
	}
	if got := tr.NodeUpdates - before; got != uint64(tr.Depth()+1) {
		t.Fatalf("NodeUpdates advanced %d, want %d", got, tr.Depth()+1)
	}
	if bad := tr.VerifyAll(); bad != -1 {
		t.Fatalf("leaf %d fails after update", bad)
	}
}
