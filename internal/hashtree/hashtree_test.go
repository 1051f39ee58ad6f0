package hashtree

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

// testTree builds a small protected region: 16 leaves (512 B of data) with
// nodes shadowed behind the data in the same external store.
func testTree(t *testing.T, cacheSize int) (*Tree, *mem.Store) {
	t.Helper()
	st := mem.NewStore(0x4000_0000, 0x4000)
	cfg := Config{
		Store:     st,
		DataBase:  0x4000_0000,
		DataSize:  16 * LeafSize,
		NodeBase:  0x4000_1000,
		CacheSize: cacheSize,
	}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fill data with a recognizable pattern before Build.
	for i := uint32(0); i < 16*LeafSize; i += 4 {
		st.WriteWord(0x4000_0000+i, 0xA0000000|i)
	}
	tr.Build()
	return tr, st
}

func TestHashDeterministicAndLengthBound(t *testing.T) {
	a := Hash([]byte("hello"), []byte("world"))
	b := Hash([]byte("helloworld"))
	if a != b {
		t.Fatal("Hash must depend only on concatenated bytes")
	}
	c := Hash([]byte("helloworl"), []byte("d"))
	if a != c {
		t.Fatal("split position changed the digest")
	}
	if Hash([]byte("helloworld")) == Hash([]byte("helloworld\x00")) {
		t.Fatal("length padding missing: trailing zero collides")
	}
	if Hash() == Hash([]byte{0}) {
		t.Fatal("empty vs single-zero collide")
	}
}

func TestCompressNotIdentity(t *testing.T) {
	var chain Digest
	var block [16]byte
	out := Compress(chain, block)
	if out == chain {
		t.Fatal("compress(0,0) returned chain unchanged")
	}
}

func TestBuildThenAllLeavesVerify(t *testing.T) {
	tr, _ := testTree(t, 0)
	if bad := tr.VerifyAll(); bad != -1 {
		t.Fatalf("fresh tree: leaf %d fails verification", bad)
	}
}

func TestDataTamperDetected(t *testing.T) {
	tr, st := testTree(t, 0)
	// Attacker flips one byte of protected data in external memory.
	b := st.Peek(0x4000_0042, 1)
	st.Poke(0x4000_0042, []byte{b[0] ^ 0x80})
	idx, _ := tr.LeafIndex(0x4000_0042)
	ok, _ := tr.VerifyLeaf(idx)
	if ok {
		t.Fatal("tampered data verified as authentic")
	}
	// Other leaves remain fine.
	if ok, _ := tr.VerifyLeaf(idx ^ 1); !ok {
		t.Fatal("untouched neighbour leaf failed")
	}
}

func TestNodeTamperDetected(t *testing.T) {
	tr, st := testTree(t, 0)
	// Attacker rewrites a stored leaf digest so it matches nothing.
	st.Poke(0x4000_1000+uint32(16)*DigestSize, make([]byte, DigestSize))
	// Leaf 0's own digest recomputes from data, so leaf 0 still passes or
	// fails purely on path consistency; its sibling subtree must fail.
	found := false
	for i := 0; i < tr.LeafCount(); i++ {
		if ok, _ := tr.VerifyLeaf(i); !ok {
			found = true
		}
	}
	if !found {
		t.Fatal("node tampering never detected")
	}
}

func TestReplayOfDataAndPathDetected(t *testing.T) {
	tr, st := testTree(t, 0)
	// Snapshot the whole external memory (data + nodes): the strongest
	// replay an external attacker can mount.
	snap := st.Snapshot()
	// Legitimate update via the LCF path: write new data, update tree.
	st.Poke(0x4000_0000, []byte{1, 2, 3, 4})
	if ok, _ := tr.UpdateLeaf(0); !ok {
		t.Fatal("legitimate update rejected")
	}
	if ok, _ := tr.VerifyLeaf(0); !ok {
		t.Fatal("fresh write fails verification")
	}
	// Attacker restores the old (internally consistent!) memory image.
	st.Restore(snap)
	ok, _ := tr.VerifyLeaf(0)
	if ok {
		t.Fatal("replayed stale memory accepted: anti-replay broken")
	}
}

func TestRelocationDetected(t *testing.T) {
	tr, st := testTree(t, 0)
	// Copy leaf 3's data (and stored digest) over leaf 5: a relocation
	// attack moving valid ciphertext to a different address.
	data := st.Peek(0x4000_0000+3*LeafSize, LeafSize)
	st.Poke(0x4000_0000+5*LeafSize, data)
	// Leaf i is heap node 16+i, stored at offset (16+i-1)*DigestSize.
	d := st.Peek(0x4000_1000+uint32(16+3-1)*DigestSize, DigestSize)
	st.Poke(0x4000_1000+uint32(16+5-1)*DigestSize, d)
	if ok, _ := tr.VerifyLeaf(5); ok {
		t.Fatal("relocated block accepted: address binding broken")
	}
}

func TestUpdateBumpsVersion(t *testing.T) {
	tr, st := testTree(t, 0)
	if tr.Version(2) != 0 {
		t.Fatalf("initial version = %d", tr.Version(2))
	}
	st.Poke(0x4000_0000+2*LeafSize, []byte{9, 9})
	if ok, _ := tr.UpdateLeaf(2); !ok {
		t.Fatal("update failed")
	}
	if tr.Version(2) != 1 {
		t.Fatalf("version after update = %d, want 1", tr.Version(2))
	}
	if ok, _ := tr.VerifyLeaf(2); !ok {
		t.Fatal("verify after update failed")
	}
}

func TestUpdateRefusedAfterTamper(t *testing.T) {
	tr, st := testTree(t, 0)
	// Attacker corrupts a sibling node; a subsequent write to the leaf
	// must refuse to fold the corrupt sibling into a new root.
	// Leaf 1 is heap node 17, stored at offset (17-1)*DigestSize.
	sibAddr := 0x4000_1000 + uint32(16+1-1)*DigestSize
	st.Poke(sibAddr, []byte{0xFF})
	st.Poke(0x4000_0000, []byte{5})
	rootBefore := tr.Root()
	ok, _ := tr.UpdateLeaf(0)
	if ok {
		t.Fatal("update accepted a corrupt path")
	}
	if tr.Root() != rootBefore {
		t.Fatal("failed update still modified the root")
	}
}

func TestRootChangesOnUpdate(t *testing.T) {
	tr, st := testTree(t, 0)
	before := tr.Root()
	st.Poke(0x4000_0000, []byte{0xAB})
	if ok, _ := tr.UpdateLeaf(0); !ok {
		t.Fatal("update failed")
	}
	if tr.Root() == before {
		t.Fatal("root unchanged after update")
	}
}

func TestVerifyCostDropsWithCache(t *testing.T) {
	trCold, _ := testTree(t, 0)
	_, coldChecks := trCold.VerifyLeaf(7)
	// depth(16 leaves)=4, so a cold verify needs 5 hash computations.
	if coldChecks != 5 {
		t.Fatalf("cold verify = %d node checks, want 5", coldChecks)
	}
	trWarm, _ := testTree(t, 64)
	trWarm.VerifyLeaf(7)
	_, warmChecks := trWarm.VerifyLeaf(7)
	if warmChecks >= coldChecks {
		t.Fatalf("warm verify = %d checks, not better than cold %d", warmChecks, coldChecks)
	}
	if trWarm.CacheHits == 0 {
		t.Fatal("cache recorded no hits")
	}
}

func TestCacheDoesNotMaskTampering(t *testing.T) {
	tr, st := testTree(t, 64)
	tr.VerifyLeaf(4) // warm the path
	b := st.Peek(0x4000_0000+4*LeafSize, 1)
	st.Poke(0x4000_0000+4*LeafSize, []byte{b[0] ^ 1})
	if ok, _ := tr.VerifyLeaf(4); ok {
		t.Fatal("cached path masked tampered data")
	}
}

func TestCacheEviction(t *testing.T) {
	tr, _ := testTree(t, 2) // tiny cache
	for i := 0; i < tr.LeafCount(); i++ {
		if ok, _ := tr.VerifyLeaf(i); !ok {
			t.Fatalf("leaf %d failed", i)
		}
	}
	if tr.CachedNodes() > 2 {
		t.Fatalf("cache grew to %d entries, cap 2", tr.CachedNodes())
	}
	// The table must agree with the FIFO occupancy.
	requireCacheMatchesFIFO(t, tr)
}

func TestSingleLeafTree(t *testing.T) {
	st := mem.NewStore(0, 256)
	tr := MustNew(Config{Store: st, DataBase: 0, DataSize: LeafSize, NodeBase: 128})
	tr.Build()
	if tr.Depth() != 0 || tr.LeafCount() != 1 {
		t.Fatalf("depth=%d leaves=%d", tr.Depth(), tr.LeafCount())
	}
	if ok, _ := tr.VerifyLeaf(0); !ok {
		t.Fatal("single leaf fails")
	}
	st.Poke(4, []byte{1})
	if ok, _ := tr.VerifyLeaf(0); ok {
		t.Fatal("single-leaf tamper missed")
	}
	st.Poke(4, []byte{0})
	if ok, _ := tr.UpdateLeaf(0); !ok {
		t.Fatal("single-leaf update failed")
	}
}

func TestConfigValidation(t *testing.T) {
	st := mem.NewStore(0, 0x4000)
	bad := []Config{
		{Store: nil, DataSize: LeafSize},
		{Store: st, DataBase: 0, DataSize: 0, NodeBase: 0x1000},
		{Store: st, DataBase: 0, DataSize: LeafSize + 1, NodeBase: 0x1000},
		{Store: st, DataBase: 0, DataSize: 3 * LeafSize, NodeBase: 0x1000},  // not pow2
		{Store: st, DataBase: 0x3FF0, DataSize: 16 * LeafSize, NodeBase: 0}, // data out of range
		{Store: st, DataBase: 0, DataSize: 16 * LeafSize, NodeBase: 0x3FF8}, // nodes out of range
		{Store: st, DataBase: 0, DataSize: 16 * LeafSize, NodeBase: 0x100},  // overlap
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestLeafIndexMapping(t *testing.T) {
	tr, _ := testTree(t, 0)
	if idx, err := tr.LeafIndex(0x4000_0000); err != nil || idx != 0 {
		t.Fatalf("LeafIndex(base) = %d,%v", idx, err)
	}
	if idx, err := tr.LeafIndex(0x4000_0000 + 5*LeafSize + 7); err != nil || idx != 5 {
		t.Fatalf("LeafIndex(mid leaf 5) = %d,%v", idx, err)
	}
	if _, err := tr.LeafIndex(0x4000_0000 + 16*LeafSize); err == nil {
		t.Fatal("address past region accepted")
	}
	if _, err := tr.LeafIndex(0x3FFF_FFFF); err == nil {
		t.Fatal("address before region accepted")
	}
}

func TestNodesSize(t *testing.T) {
	if got := NodesSize(16 * LeafSize); got != 31*DigestSize {
		t.Fatalf("NodesSize(16 leaves) = %d, want %d", got, 31*DigestSize)
	}
	if got := NodesSize(LeafSize); got != DigestSize {
		t.Fatalf("NodesSize(1 leaf) = %d, want %d", got, DigestSize)
	}
}

func TestAnySingleBitFlipDetectedProperty(t *testing.T) {
	tr, st := testTree(t, 8)
	rng := sim.NewRNG(2024)
	prop := func() bool {
		snap := st.Snapshot()
		defer func() {
			st.Restore(snap)
		}()
		// Flip one random bit anywhere in the protected data.
		off := uint32(rng.Intn(16 * LeafSize))
		bit := byte(1) << uint(rng.Intn(8))
		b := st.Peek(0x4000_0000+off, 1)
		st.Poke(0x4000_0000+off, []byte{b[0] ^ bit})
		idx, _ := tr.LeafIndex(0x4000_0000 + off)
		ok, _ := tr.VerifyLeaf(idx)
		return !ok
	}
	if err := quick.Check(func() bool { return prop() }, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestICThroughputMatchesPaper(t *testing.T) {
	// Table II: IC throughput 131 Mb/s at 100 MHz, 20-cycle latency.
	got := DefaultTiming.ThroughputMbps(100_000_000)
	if got < 128 || got > 134 {
		t.Fatalf("IC throughput = %.1f Mb/s, want ≈131 (Table II)", got)
	}
	if DefaultTiming.BlockCycles(1) != 20 {
		t.Fatalf("IC single check = %d cycles, want 20", DefaultTiming.BlockCycles(1))
	}
}

func TestOnChipBitsAccounting(t *testing.T) {
	tr, _ := testTree(t, 4)
	want := uint64(128 + 16*32 + 4*(128+32))
	if got := tr.OnChipBits(); got != want {
		t.Fatalf("OnChipBits = %d, want %d", got, want)
	}
}
