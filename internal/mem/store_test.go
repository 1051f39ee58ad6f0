package mem

import (
	"bytes"
	"math/rand/v2"
	"runtime"
	"testing"
	"testing/quick"
)

func TestStoreReadWriteWord(t *testing.T) {
	s := NewStore(0x4000_0000, 0x1000)
	s.WriteWord(0x4000_0008, 0xcafebabe)
	if got := s.ReadWord(0x4000_0008); got != 0xcafebabe {
		t.Fatalf("ReadWord = %#x, want 0xcafebabe", got)
	}
}

func TestStoreLittleEndianLayout(t *testing.T) {
	s := NewStore(0, 16)
	s.WriteWord(0, 0x11223344)
	want := []byte{0x44, 0x33, 0x22, 0x11}
	if got := s.Peek(0, 4); !bytes.Equal(got, want) {
		t.Fatalf("layout = %x, want %x", got, want)
	}
	if got := s.Read(1, 1); got != 0x33 {
		t.Fatalf("byte at 1 = %#x, want 0x33", got)
	}
	if got := s.Read(2, 2); got != 0x1122 {
		t.Fatalf("half at 2 = %#x, want 0x1122", got)
	}
}

func TestStoreNarrowWriteMerges(t *testing.T) {
	s := NewStore(0, 8)
	s.WriteWord(0, 0xffffffff)
	s.Write(1, 1, 0x00)
	if got := s.ReadWord(0); got != 0xffff00ff {
		t.Fatalf("after byte write: %#x, want 0xffff00ff", got)
	}
	s.Write(2, 2, 0x1234)
	if got := s.ReadWord(0); got != 0x123400ff {
		t.Fatalf("after half write: %#x, want 0x123400ff", got)
	}
}

func TestStoreInRange(t *testing.T) {
	s := NewStore(0x100, 0x100)
	cases := []struct {
		addr uint32
		n    uint32
		want bool
	}{
		{0x100, 1, true},
		{0x1FF, 1, true},
		{0x1FF, 2, false},
		{0xFF, 1, false},
		{0x100, 0x100, true},
		{0x100, 0x101, false},
	}
	for _, c := range cases {
		if got := s.InRange(c.addr, c.n); got != c.want {
			t.Errorf("InRange(%#x,%d) = %v, want %v", c.addr, c.n, got, c.want)
		}
	}
}

func TestStoreOutOfRangePanics(t *testing.T) {
	s := NewStore(0x100, 0x10)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	s.ReadWord(0x200)
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := NewStore(0, 64)
	s.WriteWord(0, 1)
	s.WriteWord(4, 2)
	snap := s.Snapshot()
	s.WriteWord(0, 99)
	s.Fill(4, 8, 0xAA)
	s.Restore(snap)
	if s.ReadWord(0) != 1 || s.ReadWord(4) != 2 {
		t.Fatal("Restore did not bring back snapshot contents")
	}
}

func TestPokeBypassesNothingButWorks(t *testing.T) {
	s := NewStore(0x4000_0000, 32)
	s.Poke(0x4000_0004, []byte{1, 2, 3, 4})
	if got := s.ReadWord(0x4000_0004); got != 0x04030201 {
		t.Fatalf("after Poke: %#x, want 0x04030201", got)
	}
}

func TestFill(t *testing.T) {
	s := NewStore(0, 16)
	s.Fill(4, 8, 0x5A)
	for i := uint32(0); i < 16; i++ {
		want := byte(0)
		if i >= 4 && i < 12 {
			want = 0x5A
		}
		if got := s.Peek(i, 1)[0]; got != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got, want)
		}
	}
}

func TestStoreRoundTripProperty(t *testing.T) {
	s := NewStore(0, 1<<16)
	prop := func(off uint16, v uint32, size uint8) bool {
		sz := []int{1, 2, 4}[size%3]
		addr := uint32(off) &^ (uint32(sz) - 1)
		s.Write(addr, sz, v)
		mask := uint32(0xFFFFFFFF)
		if sz < 4 {
			mask = (1 << (8 * sz)) - 1
		}
		return s.Read(addr, sz) == v&mask
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewStoreRejectsZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size store not rejected")
		}
	}()
	NewStore(0, 0)
}

func TestNewStoreRejectsAddressOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overflowing store not rejected")
		}
	}()
	NewStore(0xFFFF_F000, 0x2000)
}

// TestStoreMatchesFlatModel drives a paged store and a flat []byte model
// through the same random operations — accesses at every width, aligned or
// not and across page boundaries, short and multi-page
// Peek/PeekInto/Poke/Fill, Equal, Snapshot and Restore — and requires the
// same contents and generation after every one. It starts over from a new
// store every 300 operations, so operations keep meeting unwritten pages.
func TestStoreMatchesFlatModel(t *testing.T) {
	const base, size = 0x4000_0000, 6*pageSize + 100 // a partial last page too
	var (
		s   *Store
		ref []byte
		gen uint64
	)
	rng := rand.New(rand.NewPCG(21, 2011))
	// span returns the length of a multi-byte operation: short or up to
	// two pages.
	span := func() int {
		if rng.IntN(2) == 0 {
			return 1 + rng.IntN(64)
		}
		return 1 + rng.IntN(2*pageSize)
	}
	// pick returns the offset of an n-byte span, half the time straddling
	// or touching a page boundary.
	pick := func(n int) int {
		if rng.IntN(2) == 0 {
			o := rng.IntN(size/pageSize+1)*pageSize - rng.IntN(n+4)
			return min(max(o, 0), size-n)
		}
		return rng.IntN(size - n + 1)
	}
	// payload is n bytes: all zero, sparse or dense.
	payload := func(n int) []byte {
		b := make([]byte, n)
		switch rng.IntN(3) {
		case 1:
			b[rng.IntN(n)] = byte(1 + rng.IntN(255))
		case 2:
			for i := range b {
				b[i] = byte(rng.Uint32())
			}
		}
		return b
	}
	// saved is a snapshot and the contents it was taken of. Snapshots
	// outlive the store they came from: any image of a same-size store
	// restores.
	type saved struct {
		img  *Image
		want []byte
	}
	var snaps []saved
	got := make([]byte, size)
	for step := 0; step < 3000; step++ {
		if step%300 == 0 {
			s, ref, gen = NewStore(base, size), make([]byte, size), 0
		}
		switch rng.IntN(9) {
		case 0: // Write
			w := []int{1, 2, 4}[rng.IntN(3)]
			o, v := pick(w), rng.Uint32()
			if rng.IntN(4) == 0 {
				v = 0
			}
			s.Write(base+uint32(o), w, v)
			for i := 0; i < w; i++ {
				ref[o+i] = byte(v >> (8 * i))
			}
			gen++
		case 1: // Read
			w := []int{1, 2, 4}[rng.IntN(3)]
			o := pick(w)
			var want uint32
			for i := 0; i < w; i++ {
				want |= uint32(ref[o+i]) << (8 * i)
			}
			if v := s.Read(base+uint32(o), w); v != want {
				t.Fatalf("step %d: Read(+%#x, %d) = %#x, want %#x", step, o, w, v, want)
			}
		case 2: // Peek, PeekInto
			n := span()
			o := pick(n)
			if b := s.Peek(base+uint32(o), n); !bytes.Equal(b, ref[o:o+n]) {
				t.Fatalf("step %d: Peek(+%#x, %d) differs", step, o, n)
			}
			dst := payload(n) // stale bytes PeekInto must overwrite
			s.PeekInto(dst, base+uint32(o))
			if !bytes.Equal(dst, ref[o:o+n]) {
				t.Fatalf("step %d: PeekInto(+%#x, %d) differs", step, o, n)
			}
		case 3: // Poke
			n := span()
			o, b := pick(n), payload(n)
			s.Poke(base+uint32(o), b)
			copy(ref[o:], b)
			gen++
		case 4: // Fill
			n := span()
			o, v := pick(n), byte(0)
			if rng.IntN(2) == 0 {
				v = byte(1 + rng.IntN(255))
			}
			s.Fill(base+uint32(o), n, v)
			for i := o; i < o+n; i++ {
				ref[i] = v
			}
			gen++
		case 5: // Equal, on the contents and on a one-byte change of them
			n := span()
			o := pick(n)
			b := bytes.Clone(ref[o : o+n])
			if !s.Equal(base+uint32(o), b) {
				t.Fatalf("step %d: Equal(+%#x, %d) = false on equal bytes", step, o, n)
			}
			b[rng.IntN(n)] ^= byte(1 + rng.IntN(255))
			if s.Equal(base+uint32(o), b) {
				t.Fatalf("step %d: Equal(+%#x, %d) = true on a changed byte", step, o, n)
			}
		case 6: // Snapshot, remembering the contents it must bring back
			snaps = append(snaps, saved{s.Snapshot(), bytes.Clone(ref)})
		case 7: // Restore an earlier snapshot (perhaps again) or an empty one
			sv := saved{NewStore(base, size).Snapshot(), make([]byte, size)}
			if len(snaps) > 0 && rng.IntN(4) != 0 {
				sv = snaps[rng.IntN(len(snaps))]
			}
			s.Restore(sv.img)
			copy(ref, sv.want)
			gen++
		case 8: // a full-width read at the very end of a page
			o := rng.IntN(size/pageSize)*pageSize + pageSize - 1 - rng.IntN(3)
			s.Write(base+uint32(o), 4, 0x0102_0304)
			ref[o], ref[o+1], ref[o+2], ref[o+3] = 4, 3, 2, 1
			gen++
		}
		if s.Gen() != gen {
			t.Fatalf("step %d: Gen = %d, want %d", step, s.Gen(), gen)
		}
		s.PeekInto(got, base)
		if !bytes.Equal(got, ref) {
			t.Fatalf("step %d: contents differ from the flat model", step)
		}
	}
}

// allocatedPages counts the pages s has allocated.
func allocatedPages(s *Store) int {
	n := 0
	for _, sl := range s.pages {
		if sl.page != nil {
			n++
		}
	}
	return n
}

// heapBytes returns the heap bytes f allocates.
func heapBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

var storeSink *Store

// TestNewStoreAllocatesOnlyPageTable: building a 512 KiB store (the DDR's
// size) and reading all of it allocates less than one page.
func TestNewStoreAllocatesOnlyPageTable(t *testing.T) {
	const size = 512 << 10
	var buf [32]byte
	const runs = 8
	n := heapBytes(func() {
		for r := 0; r < runs; r++ {
			s := NewStore(0, size)
			for o := uint32(0); o < size-16; o += 16 {
				s.Read(o+13, 4) // crosses a page boundary every 256th time
				s.PeekInto(buf[:], o)
				s.Equal(o, buf[:16])
			}
			storeSink = s
		}
	}) / runs
	if n >= pageSize {
		t.Fatalf("a new 512 KiB store and its reads allocate %d bytes, want < %d", n, pageSize)
	}
	if allocatedPages(storeSink) != 0 {
		t.Fatal("reads allocated a page")
	}
}

// TestZeroWritesAllocateNoPage: zero bytes poked, filled or restored into
// unwritten pages leave them unallocated, yet still advance the
// generation; a non-zero byte allocates exactly its page.
func TestZeroWritesAllocateNoPage(t *testing.T) {
	const size = 16 * pageSize
	s := NewStore(0, size)
	s.Poke(pageSize-8, make([]byte, 3*pageSize))
	s.Fill(5*pageSize+1, 2*pageSize, 0)
	s.Restore(NewStore(0, size).Snapshot())
	if n := allocatedPages(s); n != 0 {
		t.Fatalf("zero Poke/Fill/Restore allocated %d pages, want 0", n)
	}
	if s.Gen() != 3 {
		t.Fatalf("Gen = %d after three writes, want 3", s.Gen())
	}

	s.Poke(7*pageSize-1, []byte{0, 0, 9, 0}) // the zero byte stays in an unwritten page
	if n := allocatedPages(s); n != 1 || s.pages[7].page == nil {
		t.Fatalf("a poke with one non-zero byte allocated %d pages, want page 7 only", n)
	}
	s.Fill(10*pageSize-2, 4, 0xEE)
	if n := allocatedPages(s); n != 3 {
		t.Fatalf("a non-zero fill across a page boundary left %d pages, want 3", n)
	}

	// A replayed snapshot allocates only the pages holding data.
	d := NewStore(0, size)
	d.Write(3*pageSize, 1, 1)
	d.Write(12*pageSize-1, 1, 2)
	r := NewStore(0, size)
	r.Restore(d.Snapshot())
	if n := allocatedPages(r); n != 2 {
		t.Fatalf("restoring an image with data in 2 pages allocated %d pages", n)
	}
	if !bytes.Equal(r.Peek(0, size), d.Peek(0, size)) {
		t.Fatal("restored contents differ from the image")
	}
}

// TestSnapshotIsSparseAndPrivate: a snapshot copies no page, it shares
// the store's; restoring it installs the image's pages shared, drops the
// pages written since, advances the generation once and allocates
// nothing. The image stays private all the same: a write after a snapshot
// or after a restore copies the page it lands in and never reaches the
// image, so the image restores the same contents every time.
func TestSnapshotIsSparseAndPrivate(t *testing.T) {
	const size = 128 * pageSize // 512 KiB, the DDR's size
	s := NewStore(0, size)
	s.Fill(10*pageSize, 2*pageSize, 0x5A) // pages 10 and 11
	s.WriteWord(100*pageSize+8, 0xC0DE)   // page 100
	want := s.Peek(0, size)
	var img *Image
	if n := heapBytes(func() { img = s.Snapshot() }); n >= pageSize {
		t.Fatalf("snapshot of 3 allocated pages allocated %d bytes, want < %d (the page table only)", n, pageSize)
	}

	s.WriteWord(10*pageSize, 0xFFFF_FFFF) // a page the image holds
	s.WriteWord(50*pageSize, 1)           // a page it does not
	if img.pages[10] == s.pages[10].page {
		t.Fatal("a write after the snapshot landed in the image's page")
	}
	gen := s.Gen()
	if n := heapBytes(func() { s.Restore(img) }); n != 0 {
		t.Fatalf("restoring an image allocated %d bytes", n)
	}
	if s.Gen() != gen+1 {
		t.Fatalf("Gen advanced by %d on Restore, want 1", s.Gen()-gen)
	}
	if !bytes.Equal(s.Peek(0, size), want) {
		t.Fatal("restored contents differ from the snapshot")
	}
	if s.pages[50].page != nil || allocatedPages(s) != 3 {
		t.Fatalf("restore left %d pages allocated (page 50: %v), want the image's 3", allocatedPages(s), s.pages[50].page != nil)
	}
	for i, p := range img.pages {
		if p != s.pages[i].page || s.pages[i].shared != (p != nil) {
			t.Fatalf("page %d of the store is not the image's, shared", i)
		}
	}

	s.WriteWord(11*pageSize, 0xDEAD_BEEF)
	s.Fill(100*pageSize, 16, 0x77)
	s.Restore(img)
	if !bytes.Equal(s.Peek(0, size), want) {
		t.Fatal("a write after a restore reached the image")
	}
}

func TestRestoreSizeMismatchPanics(t *testing.T) {
	img := NewStore(0, 2*pageSize).Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("restoring a snapshot of a different size did not panic")
		}
	}()
	NewStore(0, pageSize).Restore(img)
}
