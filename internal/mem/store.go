// Package mem provides the memory substrates of the platform: the internal
// shared BRAM and the external DDR memory of the paper's case study, plus
// the raw byte store both are built on.
//
// The raw Store deliberately exposes Peek/Poke access that bypasses the bus
// and any firewall: that is the attacker's view of the *external* memory in
// the paper's threat model (the FPGA is trusted; the external bus and
// memory are not). Attack injectors in internal/attack use it.
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
type Store struct {
	base  uint32
	size  uint32
	pages []*[pageSize]byte
	gen   uint64
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
	return &Store{base: base, size: size, pages: make([]*[pageSize]byte, (uint64(size)+pageSize-1)/pageSize)}
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

// page returns the page holding offset o, allocating it if it was never
// written.
func (s *Store) page(o int) *[pageSize]byte {
	p := s.pages[o>>pageShift]
	if p == nil {
		p = new([pageSize]byte)
		s.pages[o>>pageShift] = p
	}
	return p
}

// Read returns the size-byte (1, 2 or 4) little-endian value at addr in the
// low bits of the result.
func (s *Store) Read(addr uint32, size int) uint32 {
	o := s.offset(addr, size)
	var v uint32
	if in := o & pageMask; in+size <= pageSize {
		if p := s.pages[o>>pageShift]; p != nil {
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
		if p := s.pages[o>>pageShift]; p != nil {
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
		if p := s.pages[o>>pageShift]; p != nil {
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
	for len(b) > 0 {
		in := o & pageMask
		k := min(len(b), pageSize-in)
		if s.pages[o>>pageShift] != nil || !bytes.Equal(b[:k], zeroPage[:k]) {
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
		if v != 0 || s.pages[o>>pageShift] != nil {
			seg := s.page(o)[in : in+k]
			for i := range seg {
				seg[i] = v
			}
		}
		n, o = n-k, o+k
	}
}

// Image is a saved copy of a Store's contents, taken by Snapshot: a
// private copy of each page the store had allocated, nil for the pages it
// had not.
type Image struct {
	size  uint32
	pages []*[pageSize]byte
}

// Snapshot saves the contents (attack replay support). It copies only the
// allocated pages, in one allocation.
func (s *Store) Snapshot() *Image {
	img := &Image{size: s.size, pages: make([]*[pageSize]byte, len(s.pages))}
	n := 0
	for _, p := range s.pages {
		if p != nil {
			n++
		}
	}
	copies := make([][pageSize]byte, n)
	for i, p := range s.pages {
		if p != nil {
			copies[0] = *p
			img.pages[i], copies = &copies[0], copies[1:]
		}
	}
	return img
}

// Restore overwrites the full contents with an image of a store of the
// same size. It copies the image's pages into the store's own pages,
// allocating only those the store lacks, and drops the pages the image
// does not hold, which therefore read as zeros again. The store never
// aliases the image, so an image can be restored any number of times.
func (s *Store) Restore(img *Image) {
	if img.size != s.size {
		panic(fmt.Sprintf("mem: restore size %d != store size %d", img.size, s.size))
	}
	s.gen++
	for i, p := range img.pages {
		switch {
		case p == nil:
			s.pages[i] = nil
		case s.pages[i] == nil:
			c := *p
			s.pages[i] = &c
		default:
			*s.pages[i] = *p
		}
	}
}
