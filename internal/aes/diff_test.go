package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"testing"

	"repro/internal/sim"
)

// hwAvailable records whether init selected the AES-NI kernels: the tests
// below switch useAsm to run their checks on each path this host has.
var hwAvailable = useAsm

// path is one implementation of the cipher, as useAsm selects it.
type path struct {
	name string
	hw   bool
}

// paths lists the implementations this host can run, the T-table
// reference first.
func paths() []path {
	ps := []path{{"generic", false}}
	if hwAvailable {
		ps = append(ps, path{"hw", true})
	}
	return ps
}

// onPath runs f with useAsm selecting p, then restores the init-time
// choice.
func onPath(p path, f func()) {
	defer func() { useAsm = hwAvailable }()
	useAsm = p.hw
	f()
}

// TestDifferentialAgainstCryptoAES cross-checks each path against the
// standard library on random keys and blocks: encrypt must match
// crypto/aes bit for bit, decrypt must match and round-trip, the
// zero-alloc Schedule/InvSchedule entry points must agree with the Cipher
// wrapper, and DaviesMeyer must equal crypto/aes's encryption xor the
// block. This is the guard that keeps both host-speed implementations
// pinned to FIPS-197: any divergence in the table generation, the round
// function, the equivalent-inverse key schedule or the AES-NI kernels
// fails here before it can corrupt a sealed memory image.
func TestDifferentialAgainstCryptoAES(t *testing.T) {
	for _, p := range paths() {
		t.Run(p.name, func(t *testing.T) { onPath(p, func() { differential(t) }) })
	}
}

func differential(t *testing.T) {
	rng := sim.NewRNG(0xAE5)
	var key, pt [16]byte
	for trial := 0; trial < 2000; trial++ {
		rng.Bytes(key[:])
		rng.Bytes(pt[:])

		ref, err := stdaes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 16)
		ref.Encrypt(want, pt[:])

		c := MustNew(key[:])
		got := encryptBlock(c, pt[:])
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: Encrypt(key=%x, pt=%x) = %x, want %x", trial, key, pt, got, want)
		}

		// Decrypt of the reference ciphertext must return the plaintext,
		// and match crypto/aes's own decryption.
		wantPt := make([]byte, 16)
		ref.Decrypt(wantPt, want)
		if !bytes.Equal(wantPt, pt[:]) {
			t.Fatalf("trial %d: crypto/aes round-trip broken", trial)
		}
		back := decryptBlock(c, want)
		if !bytes.Equal(back, pt[:]) {
			t.Fatalf("trial %d: Decrypt(%x) = %x, want %x", trial, want, back, pt)
		}

		// The fixed-array block methods must agree with the slice API.
		var actt, acpt [16]byte
		copy(acpt[:], pt[:])
		c.EncryptBlock(&actt, &acpt)
		if !bytes.Equal(actt[:], want) {
			t.Fatalf("trial %d: EncryptBlock diverged from Encrypt", trial)
		}
		c.DecryptBlock(&actt, &actt)
		if actt != pt {
			t.Fatalf("trial %d: DecryptBlock did not invert EncryptBlock", trial)
		}

		// The raw schedule entry points must agree with the wrapper,
		// in-place included.
		var ks Schedule
		ks.Expand(&key)
		var buf [16]byte = pt
		ks.Encrypt(&buf, &buf)
		if !bytes.Equal(buf[:], want) {
			t.Fatalf("trial %d: Schedule.Encrypt diverged from Cipher", trial)
		}
		var iks InvSchedule
		iks.Expand(&ks)
		iks.Decrypt(&buf, &buf)
		if buf != pt {
			t.Fatalf("trial %d: InvSchedule.Decrypt did not invert", trial)
		}

		// The fused Davies–Meyer step (the Integrity Core's path).
		dm := DaviesMeyer(&key, &pt)
		for i := range dm {
			dm[i] ^= pt[i]
		}
		if !bytes.Equal(dm[:], want) {
			t.Fatalf("trial %d: DaviesMeyer(key=%x, block=%x) xor block = %x, want %x", trial, key, pt, dm, want)
		}
	}
}

// FuzzCipherKernels requires Encrypt, Decrypt and the Davies–Meyer step to
// agree across the hardware path, the T-table path and crypto/aes for any
// key and block (each zero-padded or cut to 16 bytes). Plain go test
// replays the seed corpus in testdata/fuzz/FuzzCipherKernels.
func FuzzCipherKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, keyIn, blockIn []byte) {
		var key, blk [16]byte
		copy(key[:], keyIn)
		copy(blk[:], blockIn)
		ref, err := stdaes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		var wantCT, wantPT, wantDM [16]byte
		ref.Encrypt(wantCT[:], blk[:])
		ref.Decrypt(wantPT[:], blk[:])
		for i := range wantDM {
			wantDM[i] = wantCT[i] ^ blk[i]
		}
		c := MustNew(key[:])
		for _, p := range paths() {
			onPath(p, func() {
				var ct, pt [16]byte
				c.EncryptBlock(&ct, &blk)
				c.DecryptBlock(&pt, &blk)
				dm := DaviesMeyer(&key, &blk)
				if ct != wantCT || pt != wantPT || dm != wantDM {
					t.Fatalf("%s path, key %x block %x: encrypt %x decrypt %x davies-meyer %x, crypto/aes gives %x %x %x",
						p.name, key, blk, ct, pt, dm, wantCT, wantPT, wantDM)
				}
			})
		}
	})
}

// TestScheduleAllocFree pins the zero-allocation property of the stack
// schedule path (expand + encrypt + decrypt) and of the fused Davies–Meyer
// step, on each path.
func TestScheduleAllocFree(t *testing.T) {
	var key, blk [16]byte
	for _, p := range paths() {
		onPath(p, func() {
			allocs := testing.AllocsPerRun(100, func() {
				var ks Schedule
				ks.Expand(&key)
				ks.Encrypt(&blk, &blk)
				var iks InvSchedule
				iks.Expand(&ks)
				iks.Decrypt(&blk, &blk)
				key = DaviesMeyer(&key, &blk)
			})
			if allocs != 0 {
				t.Errorf("%s path allocates %v per run, want 0", p.name, allocs)
			}
		})
	}
}

var dmSink [16]byte

// BenchmarkDaviesMeyer chains Davies–Meyer steps as the Integrity Core
// does — each output keys the next step — on each path.
func BenchmarkDaviesMeyer(b *testing.B) {
	for _, p := range []path{{"hw", true}, {"generic", false}} {
		b.Run(p.name, func(b *testing.B) {
			if p.hw && !hwAvailable {
				b.Skip("no AES-NI on this CPU")
			}
			onPath(p, func() {
				var h, blk [16]byte
				for i := 0; i < b.N; i++ {
					blk[0] = byte(i)
					h = DaviesMeyer(&h, &blk)
				}
				dmSink = h
			})
		})
	}
}
