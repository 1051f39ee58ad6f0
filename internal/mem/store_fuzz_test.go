package mem

import (
	"bytes"
	"testing"
)

// The layout both fuzzed stores share: a partial last page, so spans can
// end inside a page at the store's end as well as inside one mid-store.
const (
	fuzzBase = 0x4000_0000
	fuzzSize = 5*pageSize + 100
)

// Fuzz operations. Each takes its operands from the bytes after it.
const (
	fuzzWrite      = iota // store, offset, width, value: Write
	fuzzPoke              // store, offset, length, seed: Poke of a pattern
	fuzzFill              // store, offset, length, value: Fill
	fuzzSnapshot          // store: Snapshot, kept
	fuzzNewImage          // store, offset, length, seed: NewImage of a pattern, kept and restored, as a memo does
	fuzzRestore           // store, image: Restore of a kept image
	fuzzCrossShare        // store: the other store restores this one's Snapshot
	fuzzOps
)

// fuzzOp is one decoded operation, and what a seed is written in.
type fuzzOp struct {
	op, store byte
	off, n    uint16
	v         byte
}

// encode renders ops as the fuzz input that decodes to them.
func encode(ops ...fuzzOp) []byte {
	var b []byte
	for _, o := range ops {
		b = append(b, o.op, o.store, byte(o.off), byte(o.off>>8), byte(o.n), byte(o.n>>8), o.v)
	}
	return b
}

// fuzzImage is a kept image and the bytes it must restore.
type fuzzImage struct {
	img  *Image
	addr uint32
	want []byte
}

// FuzzStore decodes its input as operations on two stores of one layout —
// Write, Poke, Fill, Snapshot, NewImage and Restore, and one store
// restoring the other's Snapshot, so the two share pages — and after every
// step compares both stores, their generations and every image kept so
// far with flat []byte models. The seeds are the cases that break a naive
// copy-on-write: a write to a page two stores share, a write to a shared
// page right after a Restore, one image restored twice, and the partial
// pages at the edges of an image.
func FuzzStore(f *testing.F) {
	const (
		mid  = 2*pageSize + 40 // inside page 2
		edge = pageSize - 3    // three bytes before page 1
	)
	f.Add(encode( // a write to a page two stores share
		fuzzOp{op: fuzzFill, store: 0, off: pageSize, n: 2 * pageSize, v: 0x5A},
		fuzzOp{op: fuzzCrossShare, store: 0},
		fuzzOp{op: fuzzWrite, store: 1, off: pageSize + 8, n: 4, v: 0x11},
		fuzzOp{op: fuzzWrite, store: 0, off: 2*pageSize + 8, n: 4, v: 0x22},
	))
	f.Add(encode( // a write to a shared page right after Restore, then the image again
		fuzzOp{op: fuzzPoke, store: 0, off: mid, n: 64, v: 3},
		fuzzOp{op: fuzzSnapshot, store: 0},
		fuzzOp{op: fuzzFill, store: 0, off: 0, n: fuzzSize, v: 0xEE},
		fuzzOp{op: fuzzRestore, store: 1, v: 0},
		fuzzOp{op: fuzzWrite, store: 1, off: mid, n: 1, v: 0x99},
		fuzzOp{op: fuzzRestore, store: 0, v: 0},
		fuzzOp{op: fuzzRestore, store: 0, v: 0},
		fuzzOp{op: fuzzWrite, store: 0, off: mid + 1, n: 2, v: 0x44},
	))
	f.Add(encode( // partial edge pages, at a page boundary and at the store's end
		fuzzOp{op: fuzzNewImage, store: 0, off: edge, n: pageSize + 6, v: 9},
		fuzzOp{op: fuzzFill, store: 1, off: 0, n: 2 * pageSize, v: 0x33},
		fuzzOp{op: fuzzRestore, store: 1, v: 0},
		fuzzOp{op: fuzzWrite, store: 0, off: pageSize + 1, n: 4, v: 0x55},
		fuzzOp{op: fuzzNewImage, store: 1, off: 4*pageSize + 50, n: pageSize + 50, v: 5},
		fuzzOp{op: fuzzWrite, store: 1, off: fuzzSize - 4, n: 4, v: 0x7F},
		fuzzOp{op: fuzzRestore, store: 0, v: 1},
		fuzzOp{op: fuzzRestore, store: 1, v: 1},
	))
	f.Fuzz(func(t *testing.T, in []byte) {
		var (
			stores [2]*Store
			refs   [2][]byte
			gens   [2]uint64
			images []fuzzImage
		)
		for i := range stores {
			stores[i], refs[i] = NewStore(fuzzBase, fuzzSize), make([]byte, fuzzSize)
		}
		// span reads a span's offset and length, clipped into the store.
		span := func(off, n uint16) (int, int) {
			o := int(off) % fuzzSize
			return o, 1 + int(n)%(fuzzSize-o)
		}
		// pattern is n bytes of which every seed-th is non-zero (none
		// when seed is 0).
		pattern := func(n int, seed byte) []byte {
			b := make([]byte, n)
			for i := range b {
				if seed != 0 && i%int(seed) == 0 {
					b[i] = byte(i) | 1
				}
			}
			return b
		}
		keep := func(img *Image, addr uint32, want []byte) {
			images = append(images, fuzzImage{img, addr, bytes.Clone(want)})
			if len(images) > 8 {
				images = images[1:]
			}
		}
		for step := 0; len(in) >= 7 && step < 64; step, in = step+1, in[7:] {
			op := fuzzOp{op: in[0] % fuzzOps, store: in[1] & 1,
				off: uint16(in[2]) | uint16(in[3])<<8, n: uint16(in[4]) | uint16(in[5])<<8, v: in[6]}
			s, ref := stores[op.store], refs[op.store]
			switch op.op {
			case fuzzWrite:
				w := []int{1, 2, 4}[int(op.n)%3]
				o := int(op.off) % (fuzzSize - w + 1)
				v := uint32(op.v) * 0x0101_0101
				s.Write(fuzzBase+uint32(o), w, v)
				for i := 0; i < w; i++ {
					ref[o+i] = byte(v >> (8 * i))
				}
				gens[op.store]++
			case fuzzPoke:
				o, n := span(op.off, op.n)
				b := pattern(n, op.v)
				s.Poke(fuzzBase+uint32(o), b)
				copy(ref[o:], b)
				gens[op.store]++
			case fuzzFill:
				o, n := span(op.off, op.n)
				s.Fill(fuzzBase+uint32(o), n, op.v)
				for i := o; i < o+n; i++ {
					ref[i] = op.v
				}
				gens[op.store]++
			case fuzzSnapshot:
				keep(s.Snapshot(), fuzzBase, ref)
			case fuzzNewImage:
				o, n := span(op.off, op.n)
				img, b := NewImage(fuzzBase, fuzzBase+uint32(o), n)
				copy(b, pattern(n, op.v))
				keep(&img, fuzzBase+uint32(o), b)
				s.Restore(&img)
				copy(ref[o:], b)
				gens[op.store]++
			case fuzzRestore:
				if len(images) == 0 {
					continue
				}
				im := images[int(op.v)%len(images)]
				s.Restore(im.img)
				copy(ref[im.addr-fuzzBase:], im.want)
				gens[op.store]++
			case fuzzCrossShare:
				other := 1 - op.store
				stores[other].Restore(s.Snapshot())
				copy(refs[other], ref)
				gens[other]++
			}
			for i, st := range stores {
				if !bytes.Equal(st.Peek(fuzzBase, fuzzSize), refs[i]) {
					t.Fatalf("step %d (%+v): store %d differs from its model", step, op, i)
				}
				if st.Gen() != gens[i] {
					t.Fatalf("step %d (%+v): store %d Gen = %d, want %d", step, op, i, st.Gen(), gens[i])
				}
			}
			for k, im := range images {
				probe := NewStore(fuzzBase, fuzzSize)
				probe.Restore(im.img)
				if !bytes.Equal(probe.Peek(im.addr, len(im.want)), im.want) {
					t.Fatalf("step %d (%+v): image %d no longer holds its bytes", step, op, k)
				}
			}
		}
	})
}
