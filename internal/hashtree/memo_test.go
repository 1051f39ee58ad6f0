package hashtree

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/mem"
)

// clearBuildMemo empties the process-wide build memo, so the next Build
// computes.
func clearBuildMemo() {
	buildMemo.mu.Lock()
	buildMemo.entries = nil
	buildMemo.mu.Unlock()
}

const (
	memoData  = 0x4000_0000
	memoNodes = 0x4000_1000
	memoSize  = 16 * LeafSize
)

// memoTree returns an unbuilt tree over a fresh store filled with the
// fixed pattern of testTree.
func memoTree(t *testing.T) (*Tree, *mem.Store) {
	t.Helper()
	st := mem.NewStore(memoData, 0x4000)
	tr, err := New(Config{Store: st, DataBase: memoData, DataSize: memoSize, NodeBase: memoNodes, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < memoSize; i += 4 {
		st.WriteWord(memoData+i, 0xA0000000|i)
	}
	return tr, st
}

func nodeBytes(st *mem.Store) []byte {
	return st.Peek(memoNodes, int(NodesSize(memoSize)))
}

// sameBuild requires the tree just built (got) to hold the node array,
// root and versions of the reference, with an empty verified-node cache
// and every leaf verifying.
func sameBuild(t *testing.T, what string, ref *Tree, sref *mem.Store, got *Tree, sgot *mem.Store) {
	t.Helper()
	if !bytes.Equal(nodeBytes(sref), nodeBytes(sgot)) {
		t.Fatalf("%s: node arrays differ", what)
	}
	if ref.Root() != got.Root() {
		t.Fatalf("%s: roots differ", what)
	}
	for i := 0; i < ref.LeafCount(); i++ {
		if ref.Version(i) != got.Version(i) {
			t.Fatalf("%s: leaf %d version %d != %d", what, i, ref.Version(i), got.Version(i))
		}
	}
	if n := got.CachedNodes(); n != 0 {
		t.Fatalf("%s: %d cached nodes right after Build, want 0", what, n)
	}
	if bad := got.VerifyAll(); bad != -1 {
		t.Fatalf("%s: leaf %d fails verification", what, bad)
	}
}

func memoLen() int {
	buildMemo.mu.Lock()
	defer buildMemo.mu.Unlock()
	return len(buildMemo.entries)
}

// TestBuildMemoHitEqualsComputation: a second Build of identical data is
// served from the memo and leaves exactly what the computation left.
func TestBuildMemoHitEqualsComputation(t *testing.T) {
	clearBuildMemo()
	a, sa := memoTree(t)
	a.Build()
	if memoLen() != 1 {
		t.Fatalf("memo holds %d entries after one computed Build, want 1", memoLen())
	}
	if a.CachedNodes() != 0 || a.VerifyAll() != -1 {
		t.Fatal("computed Build: cache not empty or a leaf fails verification")
	}
	b, sb := memoTree(t)
	b.Build()
	b.VerifyLeaf(3) // a warm cache must be reset on the hit path too
	b.Build()
	if memoLen() != 1 {
		t.Fatalf("memo holds %d entries after hits, want 1", memoLen())
	}
	sameBuild(t, "hit", a, sa, b, sb)

	// Poking the stores after the hit must not reach the memo: a third
	// build still installs the original image.
	want := nodeBytes(sb)
	for _, st := range []*mem.Store{sa, sb} {
		st.Poke(memoNodes, make([]byte, DigestSize))
		st.Poke(memoData, []byte{0xFF})
	}
	c, sc := memoTree(t)
	c.Build()
	if !bytes.Equal(nodeBytes(sc), want) || c.Root() != b.Root() || c.VerifyAll() != -1 {
		t.Fatal("a poke into a built store changed a later build")
	}
}

// TestBuildMemoMissesOnChangedInput: one changed data byte, or one changed
// version tag, is a different input; its Build equals a computation from
// an empty memo.
func TestBuildMemoMissesOnChangedInput(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(*Tree, *mem.Store)
	}{
		{"data byte", func(_ *Tree, st *mem.Store) { st.Poke(memoData+5*LeafSize+7, []byte{0x5A}) }},
		{"version", func(tr *Tree, _ *mem.Store) { tr.versions[9]++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clearBuildMemo()
			warm, _ := memoTree(t)
			warm.Build()
			hit, sh := memoTree(t)
			tc.change(hit, sh)
			hit.Build()
			if memoLen() != 2 {
				t.Fatalf("memo holds %d entries, want 2 (the changed input must miss)", memoLen())
			}
			if hit.Root() == warm.Root() {
				t.Fatal("changed input built the original root")
			}
			clearBuildMemo()
			cold, sc := memoTree(t)
			tc.change(cold, sc)
			cold.Build()
			sameBuild(t, tc.name, hit, sh, cold, sc)
		})
	}
}

// TestBuildMemoBounded: the memo keeps at most buildMemoSize entries,
// evicting the oldest, and an evicted input is computed again correctly.
func TestBuildMemoBounded(t *testing.T) {
	clearBuildMemo()
	var first Digest
	for i := 0; i <= buildMemoSize; i++ {
		tr, st := memoTree(t)
		st.Poke(memoData, []byte{byte(i)})
		tr.Build()
		if i == 0 {
			first = tr.Root()
		}
	}
	if memoLen() != buildMemoSize {
		t.Fatalf("memo holds %d entries, want %d", memoLen(), buildMemoSize)
	}
	tr, st := memoTree(t)
	st.Poke(memoData, []byte{0})
	tr.Build()
	if tr.Root() != first || tr.VerifyAll() != -1 {
		t.Fatal("an evicted input rebuilt a different tree")
	}
}

// TestBuildMemoConcurrentFirstBuilds: builds racing on an empty memo all
// compute or hit the same tree, and the memo keeps one entry for it. Run
// under -race (make race).
func TestBuildMemoConcurrentFirstBuilds(t *testing.T) {
	clearBuildMemo()
	const n = 8
	trees := make([]*Tree, n)
	stores := make([]*mem.Store, n)
	for i := range trees {
		trees[i], stores[i] = memoTree(t)
	}
	var wg sync.WaitGroup
	for _, tr := range trees {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Build()
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		sameBuild(t, fmt.Sprintf("build %d", i), trees[0], stores[0], trees[i], stores[i])
	}
	if memoLen() != 1 {
		t.Fatalf("memo holds %d entries for one input, want 1", memoLen())
	}
}

// TestBuildMemoComparesUnwrittenPages: a tree over data that was never
// written is built from the memo like any other, and one non-zero byte in
// a page the other store never wrote is a different input, whichever of
// the two is built first; the miss builds what an empty memo would.
func TestBuildMemoComparesUnwrittenPages(t *testing.T) {
	const page = 0x1000 // a mem.Store allocates 4 KiB pages
	const data, nodes, size = 0x4000_0000, 0x4000_4000, 4 * page
	build := func(marked bool) (*Tree, *mem.Store) {
		st := mem.NewStore(data, 0x8000)
		tr, err := New(Config{Store: st, DataBase: data, DataSize: size, NodeBase: nodes, CacheSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		if marked {
			st.Poke(data+2*page+123, []byte{0x5A})
		}
		tr.Build()
		return tr, st
	}
	same := func(what string, a *Tree, sa *mem.Store, b *Tree, sb *mem.Store) {
		t.Helper()
		if !bytes.Equal(sa.Peek(nodes, int(NodesSize(size))), sb.Peek(nodes, int(NodesSize(size)))) || a.Root() != b.Root() {
			t.Fatalf("%s: node arrays or roots differ", what)
		}
		if bad := b.VerifyAll(); bad != -1 {
			t.Fatalf("%s: leaf %d fails verification", what, bad)
		}
	}
	for _, markedFirst := range []bool{false, true} {
		clearBuildMemo()
		a, sa := build(markedFirst)
		b, sb := build(markedFirst)
		if memoLen() != 1 {
			t.Fatalf("marked first %v: memo holds %d entries after a hit, want 1", markedFirst, memoLen())
		}
		same("hit", a, sa, b, sb)
		c, sc := build(!markedFirst)
		if memoLen() != 2 || c.Root() == a.Root() {
			t.Fatalf("marked first %v: the one-byte difference did not miss", markedFirst)
		}
		clearBuildMemo()
		d, sd := build(!markedFirst)
		same("miss", d, sd, c, sc)
	}
}

// TestBuildMemoKeysDataLength: a shorter tree at the same DataBase after a
// longer one misses, in a store too small for the longer tree's data, and
// builds what an empty memo would.
func TestBuildMemoKeysDataLength(t *testing.T) {
	build := func(size uint32) (*Tree, *mem.Store) {
		st := mem.NewStore(memoData, size+NodesSize(size))
		tr, err := New(Config{Store: st, DataBase: memoData, DataSize: size, NodeBase: memoData + size, CacheSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		tr.Build()
		return tr, st
	}
	clearBuildMemo()
	build(memoSize)
	got, sgot := build(memoSize / 4)
	if n := memoLen(); n != 2 {
		t.Fatalf("memo holds %d builds, want 2 (the shorter data must miss)", n)
	}
	clearBuildMemo()
	want, swant := build(memoSize / 4)
	if got.Root() != want.Root() || !bytes.Equal(sgot.Peek(sgot.Base(), int(sgot.Size())), swant.Peek(swant.Base(), int(swant.Size()))) {
		t.Fatal("the shorter tree differs from a cold build of it")
	}
}
