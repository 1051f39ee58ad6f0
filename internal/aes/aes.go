// Package aes is a from-scratch AES-128 implementation modeling the
// Confidentiality Core (CC) of the paper's Local Ciphering Firewall.
//
// The Go standard library ships crypto/aes, but the point of this package
// is to model a *hardware* core: the cipher itself is implemented from the
// FIPS-197 specification (S-box, key schedule, round function), and a
// Timing descriptor mirrors the paper's measured hardware characteristics
// (11-cycle block latency, ≈450 Mb/s sustained throughput at 100 MHz,
// Table II). The functional and timing halves are deliberately separate:
// the LCF consumes both.
//
// Host-side speed matters independently of the modeled cycles: the
// simulator executes one real AES per modeled CC operation and one per
// Davies–Meyer step of the Integrity Core, so the round function is
// implemented with the standard T-table formulation (four 256-entry tables
// merging SubBytes, ShiftRows and MixColumns per column) and key schedules
// live in caller-provided fixed arrays (Schedule / InvSchedule) so hashing
// with a fresh key per block — the IC's access pattern — allocates nothing.
// None of this changes any simulated-cycle accounting, which comes solely
// from the Timing descriptors.
package aes

import "fmt"

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// KeySize is the AES-128 key size in bytes.
const KeySize = 16

// rounds for AES-128.
const rounds = 10

// nrk is the number of 32-bit round-key words for AES-128.
const nrk = 4 * (rounds + 1)

// sbox is the FIPS-197 substitution table, generated from the finite-field
// inverse at init time (no hard-coded table to transcribe wrongly).
var sbox [256]byte
var invSbox [256]byte

// T-tables: each entry is one column's worth of SubBytes+MixColumns for a
// single input byte; the four tables are byte-rotations of each other so
// the four bytes of a state column each index their own table.
var te0, te1, te2, te3 [256]uint32
var td0, td1, td2, td3 [256]uint32

// Inverse MixColumns coefficient tables (9, 11, 13, 14), filled by init.
var mul9, mul11, mul13, mul14 [256]byte

func init() {
	// Multiplicative inverse in GF(2^8) via 3 being a generator:
	// build log/antilog tables.
	var logT, expT [256]byte
	x := byte(1)
	for i := 0; i < 255; i++ {
		expT[i] = x
		logT[x] = byte(i)
		// multiply x by 3 = x + 2x.
		x ^= xtime(x)
	}
	inv := func(b byte) byte {
		if b == 0 {
			return 0
		}
		return expT[(255-int(logT[b]))%255]
	}
	for i := 0; i < 256; i++ {
		q := inv(byte(i))
		// Affine transform.
		s := q ^ rotl8(q, 1) ^ rotl8(q, 2) ^ rotl8(q, 3) ^ rotl8(q, 4) ^ 0x63
		sbox[i] = s
		invSbox[s] = byte(i)
		mul9[i] = gmul(byte(i), 9)
		mul11[i] = gmul(byte(i), 11)
		mul13[i] = gmul(byte(i), 13)
		mul14[i] = gmul(byte(i), 14)
	}
	for i := 0; i < 256; i++ {
		s := sbox[i]
		s2 := xtime(s)
		s3 := s2 ^ s
		w := uint32(s2)<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(s3)
		te0[i] = w
		w = w>>8 | w<<24
		te1[i] = w
		w = w>>8 | w<<24
		te2[i] = w
		w = w>>8 | w<<24
		te3[i] = w

		is := invSbox[i]
		w = uint32(mul14[is])<<24 | uint32(mul9[is])<<16 | uint32(mul13[is])<<8 | uint32(mul11[is])
		td0[i] = w
		w = w>>8 | w<<24
		td1[i] = w
		w = w>>8 | w<<24
		td2[i] = w
		w = w>>8 | w<<24
		td3[i] = w
	}
}

func rotl8(b byte, n uint) byte { return b<<n | b>>(8-n) }

// xtime multiplies by x (i.e. 2) in GF(2^8) modulo x^8+x^4+x^3+x+1.
func xtime(b byte) byte {
	v := b << 1
	if b&0x80 != 0 {
		v ^= 0x1b
	}
	return v
}

// gmul multiplies two field elements.
func gmul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		a = xtime(a)
		b >>= 1
	}
	return p
}

// Schedule is an expanded AES-128 encryption key. The zero value is not a
// valid schedule; call Expand first. It lives wherever the caller puts it —
// on the stack, embedded in a struct — so per-block rekeying (the Integrity
// Core's Davies–Meyer compression) costs no heap allocation.
type Schedule struct {
	rk [nrk]uint32 // round keys, big-endian words as in FIPS-197
}

// rcon holds the round constants of the key schedule, x^(i-1) in GF(2^8)
// in the high byte of a word.
var rcon = [rounds]uint32{
	0x01 << 24, 0x02 << 24, 0x04 << 24, 0x08 << 24, 0x10 << 24,
	0x20 << 24, 0x40 << 24, 0x80 << 24, 0x1b << 24, 0x36 << 24,
}

// Expand fills the schedule from a 16-byte key. It runs the 10 rounds of
// the FIPS-197 expansion over four running words: the Integrity Core
// re-keys on every Davies–Meyer step, so this loop is on its hot path.
func (s *Schedule) Expand(key *[16]byte) {
	w0 := uint32(key[0])<<24 | uint32(key[1])<<16 | uint32(key[2])<<8 | uint32(key[3])
	w1 := uint32(key[4])<<24 | uint32(key[5])<<16 | uint32(key[6])<<8 | uint32(key[7])
	w2 := uint32(key[8])<<24 | uint32(key[9])<<16 | uint32(key[10])<<8 | uint32(key[11])
	w3 := uint32(key[12])<<24 | uint32(key[13])<<16 | uint32(key[14])<<8 | uint32(key[15])
	s.rk[0], s.rk[1], s.rk[2], s.rk[3] = w0, w1, w2, w3
	for r, c := range rcon {
		w0 ^= subWord(rotWord(w3)) ^ c
		w1 ^= w0
		w2 ^= w1
		w3 ^= w2
		rk := (*[4]uint32)(s.rk[4*r+4:])
		rk[0], rk[1], rk[2], rk[3] = w0, w1, w2, w3
	}
}

// Encrypt enciphers one block; dst and src may be the same array.
func (s *Schedule) Encrypt(dst, src *[16]byte) {
	rk := &s.rk
	s0 := uint32(src[0])<<24 | uint32(src[1])<<16 | uint32(src[2])<<8 | uint32(src[3])
	s1 := uint32(src[4])<<24 | uint32(src[5])<<16 | uint32(src[6])<<8 | uint32(src[7])
	s2 := uint32(src[8])<<24 | uint32(src[9])<<16 | uint32(src[10])<<8 | uint32(src[11])
	s3 := uint32(src[12])<<24 | uint32(src[13])<<16 | uint32(src[14])<<8 | uint32(src[15])
	s0 ^= rk[0]
	s1 ^= rk[1]
	s2 ^= rk[2]
	s3 ^= rk[3]
	k := 4
	for r := 1; r < rounds; r++ {
		t0 := rk[k] ^ te0[s0>>24] ^ te1[s1>>16&0xFF] ^ te2[s2>>8&0xFF] ^ te3[s3&0xFF]
		t1 := rk[k+1] ^ te0[s1>>24] ^ te1[s2>>16&0xFF] ^ te2[s3>>8&0xFF] ^ te3[s0&0xFF]
		t2 := rk[k+2] ^ te0[s2>>24] ^ te1[s3>>16&0xFF] ^ te2[s0>>8&0xFF] ^ te3[s1&0xFF]
		t3 := rk[k+3] ^ te0[s3>>24] ^ te1[s0>>16&0xFF] ^ te2[s1>>8&0xFF] ^ te3[s2&0xFF]
		s0, s1, s2, s3 = t0, t1, t2, t3
		k += 4
	}
	// Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
	o0 := uint32(sbox[s0>>24])<<24 | uint32(sbox[s1>>16&0xFF])<<16 | uint32(sbox[s2>>8&0xFF])<<8 | uint32(sbox[s3&0xFF])
	o1 := uint32(sbox[s1>>24])<<24 | uint32(sbox[s2>>16&0xFF])<<16 | uint32(sbox[s3>>8&0xFF])<<8 | uint32(sbox[s0&0xFF])
	o2 := uint32(sbox[s2>>24])<<24 | uint32(sbox[s3>>16&0xFF])<<16 | uint32(sbox[s0>>8&0xFF])<<8 | uint32(sbox[s1&0xFF])
	o3 := uint32(sbox[s3>>24])<<24 | uint32(sbox[s0>>16&0xFF])<<16 | uint32(sbox[s1>>8&0xFF])<<8 | uint32(sbox[s2&0xFF])
	o0 ^= rk[k]
	o1 ^= rk[k+1]
	o2 ^= rk[k+2]
	o3 ^= rk[k+3]
	putWord(dst, 0, o0)
	putWord(dst, 4, o1)
	putWord(dst, 8, o2)
	putWord(dst, 12, o3)
}

// InvSchedule is an expanded AES-128 decryption key (the "equivalent
// inverse cipher" of FIPS-197 §5.3.5: encryption round keys reversed, with
// InvMixColumns applied to the middle rounds so the decryption round can
// use the same table-merged formulation as encryption).
type InvSchedule struct {
	rk [nrk]uint32
}

// Expand derives the decryption schedule from an encryption schedule.
func (s *InvSchedule) Expand(enc *Schedule) {
	for i := 0; i < nrk; i += 4 {
		ei := nrk - i - 4
		for j := 0; j < 4; j++ {
			x := enc.rk[ei+j]
			if i > 0 && i+4 < nrk {
				// InvMixColumns via the td tables: td0[sbox[b]]
				// is the inverse-mixed column of byte b.
				x = td0[sbox[x>>24]] ^ td1[sbox[x>>16&0xFF]] ^ td2[sbox[x>>8&0xFF]] ^ td3[sbox[x&0xFF]]
			}
			s.rk[i+j] = x
		}
	}
}

// Decrypt deciphers one block; dst and src may be the same array.
func (s *InvSchedule) Decrypt(dst, src *[16]byte) {
	rk := &s.rk
	s0 := uint32(src[0])<<24 | uint32(src[1])<<16 | uint32(src[2])<<8 | uint32(src[3])
	s1 := uint32(src[4])<<24 | uint32(src[5])<<16 | uint32(src[6])<<8 | uint32(src[7])
	s2 := uint32(src[8])<<24 | uint32(src[9])<<16 | uint32(src[10])<<8 | uint32(src[11])
	s3 := uint32(src[12])<<24 | uint32(src[13])<<16 | uint32(src[14])<<8 | uint32(src[15])
	s0 ^= rk[0]
	s1 ^= rk[1]
	s2 ^= rk[2]
	s3 ^= rk[3]
	k := 4
	for r := 1; r < rounds; r++ {
		t0 := rk[k] ^ td0[s0>>24] ^ td1[s3>>16&0xFF] ^ td2[s2>>8&0xFF] ^ td3[s1&0xFF]
		t1 := rk[k+1] ^ td0[s1>>24] ^ td1[s0>>16&0xFF] ^ td2[s3>>8&0xFF] ^ td3[s2&0xFF]
		t2 := rk[k+2] ^ td0[s2>>24] ^ td1[s1>>16&0xFF] ^ td2[s0>>8&0xFF] ^ td3[s3&0xFF]
		t3 := rk[k+3] ^ td0[s3>>24] ^ td1[s2>>16&0xFF] ^ td2[s1>>8&0xFF] ^ td3[s0&0xFF]
		s0, s1, s2, s3 = t0, t1, t2, t3
		k += 4
	}
	o0 := uint32(invSbox[s0>>24])<<24 | uint32(invSbox[s3>>16&0xFF])<<16 | uint32(invSbox[s2>>8&0xFF])<<8 | uint32(invSbox[s1&0xFF])
	o1 := uint32(invSbox[s1>>24])<<24 | uint32(invSbox[s0>>16&0xFF])<<16 | uint32(invSbox[s3>>8&0xFF])<<8 | uint32(invSbox[s2&0xFF])
	o2 := uint32(invSbox[s2>>24])<<24 | uint32(invSbox[s1>>16&0xFF])<<16 | uint32(invSbox[s0>>8&0xFF])<<8 | uint32(invSbox[s3&0xFF])
	o3 := uint32(invSbox[s3>>24])<<24 | uint32(invSbox[s2>>16&0xFF])<<16 | uint32(invSbox[s1>>8&0xFF])<<8 | uint32(invSbox[s0&0xFF])
	o0 ^= rk[k]
	o1 ^= rk[k+1]
	o2 ^= rk[k+2]
	o3 ^= rk[k+3]
	putWord(dst, 0, o0)
	putWord(dst, 4, o1)
	putWord(dst, 8, o2)
	putWord(dst, 12, o3)
}

func putWord(dst *[16]byte, i int, w uint32) {
	dst[i], dst[i+1], dst[i+2], dst[i+3] = byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
}

// Cipher is an expanded AES-128 key pair (encryption + decryption
// schedules). It is immutable after New.
type Cipher struct {
	enc Schedule
	dec InvSchedule
}

// New expands a 16-byte key. It returns an error for any other length.
func New(key []byte) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("aes: key length %d, want %d", len(key), KeySize)
	}
	c := &Cipher{}
	c.enc.Expand((*[16]byte)(key))
	c.dec.Expand(&c.enc)
	return c, nil
}

// MustNew is New for known-good keys; it panics on error.
func MustNew(key []byte) *Cipher {
	c, err := New(key)
	if err != nil {
		panic(err)
	}
	return c
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xFF])<<16 |
		uint32(sbox[w>>8&0xFF])<<8 | uint32(sbox[w&0xFF])
}

// Encrypt enciphers one 16-byte block; dst and src may overlap. It panics
// on short slices (programming error, not data error).
func (c *Cipher) Encrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: short block")
	}
	c.enc.Encrypt((*[16]byte)(dst), (*[16]byte)(src))
}

// Decrypt deciphers one 16-byte block; dst and src may overlap.
func (c *Cipher) Decrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: short block")
	}
	c.dec.Decrypt((*[16]byte)(dst), (*[16]byte)(src))
}

// EncryptBlock enciphers one block between fixed arrays — the zero-
// allocation entry point for hot callers (the LCF's XEX block loop). dst
// and src may be the same array.
func (c *Cipher) EncryptBlock(dst, src *[16]byte) { c.enc.Encrypt(dst, src) }

// DecryptBlock deciphers one block between fixed arrays; dst and src may
// be the same array.
func (c *Cipher) DecryptBlock(dst, src *[16]byte) { c.dec.Decrypt(dst, src) }

// Timing describes the hardware Confidentiality Core implementation
// measured in the paper: a block enters the core and emerges Latency
// cycles later; a new block may enter every Interval cycles (the core's
// 32-bit datapath makes it non-fully-pipelined).
type Timing struct {
	// Latency is the cycles from block-in to block-out (paper: 11).
	Latency uint64
	// Interval is the initiation interval between consecutive blocks
	// (calibrated to 28 so that 128 bits / 28 cycles at 100 MHz ≈ the
	// paper's 450 Mb/s).
	Interval uint64
}

// DefaultTiming is the Table II calibration for the CC: the paper's
// 11-cycle latency, and an interval of 28 cycles for its ≈450 Mb/s at
// 100 MHz.
var DefaultTiming = Timing{Latency: 11, Interval: 28}

// BlockCycles returns the cycles to process n consecutive blocks:
// the first block costs Latency, each further block Interval.
func (t Timing) BlockCycles(n int) uint64 {
	if n <= 0 {
		return 0
	}
	iv := t.Interval
	if iv < t.Latency {
		iv = t.Latency
	}
	return t.Latency + uint64(n-1)*iv
}

// ThroughputMbps returns the steady-state throughput at freqHz.
func (t Timing) ThroughputMbps(freqHz uint64) float64 {
	iv := t.Interval
	if iv == 0 {
		iv = t.Latency
	}
	if iv == 0 {
		return 0
	}
	bitsPerSec := float64(BlockSize*8) * float64(freqHz) / float64(iv)
	return bitsPerSec / 1e6
}
