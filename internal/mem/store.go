// Package mem provides the memory substrates of the platform: the internal
// shared BRAM and the external DDR memory of the paper's case study, plus
// the raw byte store both are built on.
//
// The raw Store deliberately exposes Peek/Poke access that bypasses the bus
// and any firewall: that is the attacker's view of the *external* memory in
// the paper's threat model (the FPGA is trusted; the external bus and
// memory are not). Attack injectors in internal/attack use it.
//
// Pages are copy-on-write. Restore installs an Image's pages in a store
// without copying them, so the LCF's seal memo, the hash tree's build memo
// and every Snapshot hold one set of pages that any number of stores read,
// in any number of goroutines. The sharing rule: a page shared with a memo
// or an image is never written in place. A store copies a shared page into
// a private one the first time a write lands in it.
package mem

import (
	"bytes"
	"fmt"
)

// pageSize is the allocation granule of a Store. A platform boots a DDR,
// a BRAM and one local memory per core, and a run writes a few dozen
// pages of them, so a store allocates a page on the first write that
// lands in it; a page never written reads as zeros.
const pageSize = 1 << pageShift

const (
	pageShift = 12           // log2(pageSize): offset o lies in page o>>pageShift
	pageMask  = pageSize - 1 // selects the offset within a page
)

// zeroPage is compared against, never written: bytes that would land in
// an unwritten page and equal it need no page.
var zeroPage [pageSize]byte

// Store is a flat little-endian byte memory covering [base, base+size).
// Its contents live in pages of pageSize bytes, allocated on first write;
// reads never allocate. The paging is invisible through the API: every
// method behaves as over one zero-initialised array.
//
// A page the store shares with an Image (see Snapshot and Restore) is
// never written in place: every write path (Write, Poke, Fill and the partial
// pages of Restore) goes through page, which first copies a shared page
// into one the store owns.
type Store struct {
	base  uint32
	size  uint32
	pages []slot
	gen   uint64
}

// slot is one entry of a store's page table: the page, nil while never
// written, and whether an Image holds it too, in which case it is read
// only. The flag lives in the table, so a store costs no allocation more
// than the table itself.
type slot struct {
	page   *[pageSize]byte
	shared bool
}

// NewStore returns a zeroed store of size bytes based at base. It
// allocates only the page table.
func NewStore(base, size uint32) *Store {
	if size == 0 {
		panic("mem: zero-size store")
	}
	if uint64(base)+uint64(size) > 1<<32 {
		panic(fmt.Sprintf("mem: store [%#x,+%#x) exceeds 32-bit space", base, size))
	}
	return &Store{base: base, size: size, pages: make([]slot, (uint64(size)+pageSize-1)/pageSize)}
}

// Base returns the first mapped address.
func (s *Store) Base() uint32 { return s.base }

// Size returns the store size in bytes.
func (s *Store) Size() uint32 { return s.size }

// InRange reports whether [addr, addr+n) lies inside the store.
func (s *Store) InRange(addr uint32, n uint32) bool {
	return addr >= s.base && uint64(addr)+uint64(n) <= uint64(s.base)+uint64(s.size)
}

// Gen returns the mutation generation: it changes on every call of a
// write method (Write, Poke, Fill, Restore), whether or not the call
// allocates a page or changes a byte. Callers that cache derived views of
// the contents (the CPU's decoded-instruction cache) compare generations
// to detect writes made behind their back — including Poke-based attack
// injection.
func (s *Store) Gen() uint64 { return s.gen }

func (s *Store) offset(addr uint32, n int) int {
	if !s.InRange(addr, uint32(n)) {
		panic(fmt.Sprintf("mem: access [%#x,+%d) outside store [%#x,+%#x)",
			addr, n, s.base, s.size))
	}
	return int(addr - s.base)
}

// page returns the page holding offset o for writing: it allocates the
// page if it was never written, and copies it if an Image shares it. It
// is the only place a store allocates a page.
func (s *Store) page(o int) *[pageSize]byte {
	sl := &s.pages[o>>pageShift]
	switch {
	case sl.page == nil:
		sl.page = new([pageSize]byte)
	case sl.shared:
		c := *sl.page
		sl.page, sl.shared = &c, false
	}
	return sl.page
}

// Read returns the size-byte (1, 2 or 4) little-endian value at addr in the
// low bits of the result.
func (s *Store) Read(addr uint32, size int) uint32 {
	o := s.offset(addr, size)
	var v uint32
	if in := o & pageMask; in+size <= pageSize {
		if p := s.pages[o>>pageShift].page; p != nil {
			for i := 0; i < size; i++ {
				v |= uint32(p[in+i]) << (8 * i)
			}
		}
		return v
	}
	var b [4]byte
	s.copyOut(b[:size], o)
	for i := 0; i < size; i++ {
		v |= uint32(b[i]) << (8 * i)
	}
	return v
}

// Write stores the low size bytes of v at addr, little-endian. It
// allocates the pages it lands in.
func (s *Store) Write(addr uint32, size int, v uint32) {
	o := s.offset(addr, size)
	s.gen++
	if in := o & pageMask; in+size <= pageSize {
		p := s.page(o)
		for i := 0; i < size; i++ {
			p[in+i] = byte(v >> (8 * i))
		}
		return
	}
	for i := 0; i < size; i++ {
		s.page(o + i)[(o+i)&pageMask] = byte(v >> (8 * i))
	}
}

// ReadWord reads an aligned 32-bit word.
func (s *Store) ReadWord(addr uint32) uint32 { return s.Read(addr, 4) }

// WriteWord writes an aligned 32-bit word.
func (s *Store) WriteWord(addr uint32, v uint32) { s.Write(addr, 4, v) }

// Peek copies n bytes starting at addr. It models an attacker (or debug
// probe) reading the physical memory directly, bypassing bus and firewalls.
func (s *Store) Peek(addr uint32, n int) []byte {
	out := make([]byte, n)
	s.PeekInto(out, addr)
	return out
}

// PeekInto copies len(dst) bytes starting at addr into dst: Peek into the
// caller's buffer, for hot readers (the Integrity Core reads a leaf or a
// node digest on every secured access) that keep it on their stack.
func (s *Store) PeekInto(dst []byte, addr uint32) {
	s.copyOut(dst, s.offset(addr, len(dst)))
}

// copyOut fills dst from the bytes at offset o.
func (s *Store) copyOut(dst []byte, o int) {
	for len(dst) > 0 {
		in := o & pageMask
		k := min(len(dst), pageSize-in)
		if p := s.pages[o>>pageShift].page; p != nil {
			copy(dst, p[in:in+k])
		} else {
			clear(dst[:k])
		}
		dst, o = dst[k:], o+k
	}
}

// Equal reports whether the len(b) bytes starting at addr equal b,
// without copying them out.
func (s *Store) Equal(addr uint32, b []byte) bool {
	o := s.offset(addr, len(b))
	for len(b) > 0 {
		in := o & pageMask
		k := min(len(b), pageSize-in)
		have := zeroPage[:k]
		if p := s.pages[o>>pageShift].page; p != nil {
			have = p[in : in+k]
		}
		if !bytes.Equal(have, b[:k]) {
			return false
		}
		b, o = b[k:], o+k
	}
	return true
}

// Poke overwrites len(b) bytes starting at addr, bypassing bus and
// firewalls. It is the attack-injection primitive for external-memory
// tampering. Bytes bound for an unwritten page allocate it only if one of
// them is non-zero.
func (s *Store) Poke(addr uint32, b []byte) {
	o := s.offset(addr, len(b))
	s.gen++
	s.poke(o, b)
}

// poke is Poke at offset o, without advancing the generation.
func (s *Store) poke(o int, b []byte) {
	for len(b) > 0 {
		in := o & pageMask
		k := min(len(b), pageSize-in)
		if s.pages[o>>pageShift].page != nil || !bytes.Equal(b[:k], zeroPage[:k]) {
			copy(s.page(o)[in:], b[:k])
		}
		b, o = b[k:], o+k
	}
}

// Fill sets every byte of [addr, addr+n) to v. Filling zeros allocates no
// page.
func (s *Store) Fill(addr uint32, n int, v byte) {
	o := s.offset(addr, n)
	s.gen++
	for n > 0 {
		in := o & pageMask
		k := min(n, pageSize-in)
		if v != 0 || s.pages[o>>pageShift].page != nil {
			seg := s.page(o)[in : in+k]
			for i := range seg {
				seg[i] = v
			}
		}
		n, o = n-k, o+k
	}
}

// Image is a saved copy of n bytes of a Store's address space: the pages
// holding them, nil where a page was never written. Snapshot takes one of
// a whole store by sharing the store's pages; NewImage makes one for the
// caller to fill. Its pages are read only, so one image serves any number
// of stores at once. It is positional: it restores into stores at the
// base it was made for.
type Image struct {
	base  uint32 // the base of the stores it restores into
	addr  uint32 // its first byte
	n     int
	pages []*[pageSize]byte // the pages holding [addr, addr+n), first to last
}

// NewImage returns a zeroed image of the n bytes at addr for stores based
// at base, and those n bytes, which the caller fills before it restores
// the image anywhere: from then on they are read only. Its pages are one
// allocation, and it returns the image by value, so a memo entry holds it
// without another. The seal and build memos compute into it and write the
// same bytes into the store they seal with Poke, so that store keeps pages
// of its own and a later write to them copies nothing.
func NewImage(base, addr uint32, n int) (Image, []byte) {
	lead := int((addr - base) & pageMask)
	buf := make([]byte, (lead+n+pageSize-1)&^pageMask)
	img := Image{base: base, addr: addr, n: n, pages: make([]*[pageSize]byte, len(buf)/pageSize)}
	for i := range img.pages {
		img.pages[i] = (*[pageSize]byte)(buf[i*pageSize:])
	}
	return img, buf[lead : lead+n]
}

// Snapshot saves the whole contents (attack replay support). It copies no
// page: the image and the store share the pages, which the store
// therefore copies before it next writes one. It does not advance the
// generation.
func (s *Store) Snapshot() *Image {
	img := &Image{base: s.base, addr: s.base, n: int(s.size), pages: make([]*[pageSize]byte, len(s.pages))}
	for i := range s.pages {
		sl := &s.pages[i]
		sl.shared = sl.page != nil
		img.pages[i] = sl.page
	}
	return img
}

// Restore writes an image's bytes to their addresses in a store at the
// image's base, and advances the generation once. A page the image's
// bytes cover to its end, or to the store's end, is installed shared, not
// copied; a page they cover only in part is written byte by byte. A page
// the image never had reads as zeros again. The image itself never
// changes, so it can be restored any number of times, into any number of
// stores.
func (s *Store) Restore(img *Image) {
	if img.base != s.base {
		panic(fmt.Sprintf("mem: restore of an image of a store at %#x into a store at %#x", img.base, s.base))
	}
	o := s.offset(img.addr, img.n)
	s.gen++
	first, end := o>>pageShift, o+img.n
	for i, p := range img.pages {
		lo, hi := max(o, (first+i)<<pageShift), min(end, (first+i+1)<<pageShift)
		if lo&pageMask == 0 && (hi&pageMask == 0 || hi == int(s.size)) {
			s.pages[first+i] = slot{page: p, shared: p != nil}
			continue
		}
		src := zeroPage[lo&pageMask : lo&pageMask+hi-lo]
		if p != nil {
			src = p[lo&pageMask : lo&pageMask+hi-lo]
		}
		s.poke(lo, src)
	}
}
