package core

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/aes"
	"repro/internal/bus"
	"repro/internal/hashtree"
	"repro/internal/mem"
)

// CipherBlock is the granularity of the Confidentiality Core (AES-128).
const CipherBlock = aes.BlockSize

// CryptoStats counts Local Ciphering Firewall activity beyond the basic
// firewall decisions.
type CryptoStats struct {
	// BlocksEnciphered / BlocksDeciphered count 16-byte CC operations.
	BlocksEnciphered uint64
	BlocksDeciphered uint64
	// LeafVerifies / LeafUpdates count IC leaf operations; NodeOps counts
	// the underlying hash-node computations.
	LeafVerifies uint64
	LeafUpdates  uint64
	NodeOps      uint64
	// IntegrityFailures counts inauthentic reads detected.
	IntegrityFailures uint64
	// CCCycles / ICCycles accumulate modeled crypto latency.
	CCCycles uint64
	ICCycles uint64
	// KeyRotations counts RotateKey management operations.
	KeyRotations uint64
}

// LCFConfig parameterizes a CipherFirewall.
type LCFConfig struct {
	// Name is the firewall_id used in alerts (default "lcf").
	Name string
	// CheckCycles is the SB rule-check latency (default 12, Table II).
	CheckCycles uint64
	// CC is the Confidentiality Core timing (default 11/28, Table II).
	CC aes.Timing
	// IC is the Integrity Core timing (default 20/98, Table II).
	IC aes.Timing
	// IntegrityZone is the region covered by the hash tree. Policies
	// with IM set must lie inside it. Size must satisfy the hashtree
	// power-of-two constraint.
	IntegrityZone Zone
	// NodeBase locates the tree-node array in external memory; it must
	// not overlap IntegrityZone (and should be left out of every policy
	// zone so no IP can address it).
	NodeBase uint32
	// CacheSize is the on-chip verified-node cache size. Zero selects the
	// default (64); a negative value disables the cache entirely, forcing
	// every integrity operation to walk the full path to the root.
	CacheSize int
}

// CipherFirewall is the Local Ciphering Firewall of Figure 1: the secure
// gateway between the system bus and the external memory. It layers the
// standard rule check (Security Builder), the Confidentiality Core
// (address-tweaked AES-128 over 16-byte blocks) and the Integrity Core
// (hash tree + on-chip version tags) over the raw DDR slave.
type CipherFirewall struct {
	cfg   LCFConfig
	inner bus.Slave
	store *mem.Store
	cm    *ConfigMemory
	log   *AlertLog
	tree  *hashtree.Tree

	// Per-key expanded schedules, linear-scanned: a platform has a
	// handful of keys (one per CM zone), so comparing [16]byte values
	// beats hashing the key on every protected access.
	cipherKeys [][16]byte
	cipherVals []*aes.Cipher

	// Pooled per-access state: the covering DDR transaction, its word
	// buffer and the plaintext scratch buffer are reused across Access
	// calls (the engine drives one access at a time per platform), so the
	// steady-state protected path allocates nothing.
	covTx    bus.Transaction
	covWords []uint32
	covBuf   []byte

	stats  Stats
	crypto CryptoStats
}

// NewCipherFirewall wraps the external memory slave. The store must be the
// slave's backing store (used for in-place crypto); policies come from cm.
func NewCipherFirewall(cfg LCFConfig, inner bus.Slave, store *mem.Store, cm *ConfigMemory, log *AlertLog) (*CipherFirewall, error) {
	if cfg.Name == "" {
		cfg.Name = "lcf"
	}
	if cfg.CheckCycles == 0 {
		cfg.CheckCycles = DefaultCheckCycles
	}
	if cfg.CC == (aes.Timing{}) {
		cfg.CC = aes.DefaultTiming
	}
	if cfg.IC == (aes.Timing{}) {
		cfg.IC = hashtree.DefaultTiming
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 64
	} else if cfg.CacheSize < 0 {
		cfg.CacheSize = 0
	}
	f := &CipherFirewall{
		cfg:   cfg,
		inner: inner,
		store: store,
		cm:    cm,
		log:   log,
	}
	// Validate policy crypto expectations.
	for _, p := range cm.Policies() {
		if p.IM && cfg.IntegrityZone.Size == 0 {
			return nil, fmt.Errorf("core: policy SPI %d requests IM but no IntegrityZone configured", p.SPI)
		}
		if p.IM && !cfg.IntegrityZone.Contains(p.Zone.Base, p.Zone.Size) {
			return nil, fmt.Errorf("core: policy SPI %d zone %v outside IntegrityZone %v", p.SPI, p.Zone, cfg.IntegrityZone)
		}
		if p.CM && p.Zone.Base%CipherBlock != 0 {
			return nil, fmt.Errorf("core: CM zone %v not %d-byte aligned", p.Zone, CipherBlock)
		}
		if p.CM && p.Zone.Size%CipherBlock != 0 {
			return nil, fmt.Errorf("core: CM zone %v size not a multiple of %d", p.Zone, CipherBlock)
		}
	}
	if cfg.IntegrityZone.Size != 0 {
		tree, err := hashtree.New(hashtree.Config{
			Store:     store,
			DataBase:  cfg.IntegrityZone.Base,
			DataSize:  cfg.IntegrityZone.Size,
			NodeBase:  cfg.NodeBase,
			CacheSize: cfg.CacheSize,
		})
		if err != nil {
			return nil, err
		}
		f.tree = tree
	}
	return f, nil
}

// Name implements bus.Slave.
func (f *CipherFirewall) Name() string { return f.inner.Name() }

// FirewallID returns the identifier used in alerts.
func (f *CipherFirewall) FirewallID() string { return f.cfg.Name }

// Base implements bus.Slave.
func (f *CipherFirewall) Base() uint32 { return f.inner.Base() }

// Size implements bus.Slave.
func (f *CipherFirewall) Size() uint32 { return f.inner.Size() }

// Config exposes the Configuration Memory.
func (f *CipherFirewall) Config() *ConfigMemory { return f.cm }

// Stats returns the firewall decision counters.
func (f *CipherFirewall) Stats() Stats { return f.stats }

// Crypto returns the CC/IC counters.
func (f *CipherFirewall) Crypto() CryptoStats { return f.crypto }

// Tree exposes the integrity engine (tests and the area model use it).
func (f *CipherFirewall) Tree() *hashtree.Tree { return f.tree }

func (f *CipherFirewall) cipherFor(key [16]byte) *aes.Cipher {
	for i, k := range f.cipherKeys {
		if k == key {
			return f.cipherVals[i]
		}
	}
	c := aes.MustNew(key[:])
	f.cipherKeys = append(f.cipherKeys, key)
	f.cipherVals = append(f.cipherVals, c)
	return c
}

// scratch returns the pooled plaintext buffer and word buffer sized for
// nBytes (nBytes is a multiple of CipherBlock, hence of 4).
func (f *CipherFirewall) scratch(nBytes int) ([]byte, []uint32) {
	if cap(f.covBuf) < nBytes {
		f.covBuf = make([]byte, nBytes)
		f.covWords = make([]uint32, nBytes/4)
	}
	return f.covBuf[:nBytes], f.covWords[:nBytes/4]
}

// Seal prepares the external memory for protected operation: every CM
// zone's current contents (assumed plaintext, e.g. a loaded program image)
// is encrypted in place, then the hash tree is built over the integrity
// zone. Call once at boot, after loaders have filled external memory.
//
// Enciphering a zone is a pure function of (zone base, key, plaintext),
// and the platforms a process builds seal the same images, so the CC pass
// is memoised per process (sealMemo) and the tree build likewise
// (hashtree.Tree.Build). A hit installs the remembered ciphertext's pages
// in the store shared, copying none of them (mem.Store.Restore); a
// preloaded image misses and is computed into a new memo image, whose
// bytes are also poked into the store. Either way each zone is written
// with one Poke or one Restore, so Seal advances the store's mutation
// generation by one per CM zone plus one for the node array. Nothing
// reads an external store's generation: only a core compares its own
// local store's.
func (f *CipherFirewall) Seal() {
	for _, p := range f.cm.Policies() {
		if p.CM {
			f.sealZone(p)
		}
	}
	if f.tree != nil {
		f.tree.Build()
	}
}

// sealZone enciphers one CM zone in place, from the memo when an earlier
// Seal in this process enciphered the same plaintext at the same base
// under the same key, in a store at the same base.
func (f *CipherFirewall) sealZone(p Policy) {
	if sealMemo.load(f.store, p.Zone.Base, p.Key, int(p.Zone.Size)) {
		return
	}
	plain := f.store.Peek(p.Zone.Base, int(p.Zone.Size))
	img, cipher := mem.NewImage(f.store.Base(), p.Zone.Base, len(plain))
	copy(cipher, plain)
	cipherRange(f.cipherFor(p.Key), p.Zone.Base, cipher, false)
	f.store.Poke(p.Zone.Base, cipher)
	sealMemo.add(sealedZone{storeBase: f.store.Base(), base: p.Zone.Base, key: p.Key, plain: plain, cipher: img})
}

// sealMemoSize bounds the seal memo. A platform has a handful of CM zones
// and a process normally builds one kind of platform, so a few entries
// cover it; FIFO eviction keeps a stream of one-off images from growing
// it.
const sealMemoSize = 8

// sealedZone is one remembered CC pass of Seal. plain is a private copy,
// read only under sealMemo's lock. cipher is an image of the sealed zone
// whose pages every store sealed from this entry shares; a store copies a
// page before it writes one, so no platform ever changes them. The image
// is positional, so the entry also keys on the base of the stores it
// restores into.
type sealedZone struct {
	storeBase uint32
	base      uint32
	key       [16]byte
	plain     []byte
	cipher    mem.Image
}

// sealMemo holds the most recent distinct CC passes, oldest first, for the
// whole process; the mutex serialises the concurrent platform builds of a
// sweep's workers. Like a sync.Pool it is invisible to results: a hit
// yields exactly the bytes the computation would. Entries are values, so
// remembering one allocates nothing beyond its buffers.
var sealMemo zoneMemo

type zoneMemo struct {
	mu      sync.Mutex
	entries []sealedZone
}

// find returns the entry whose complete input equals (store base, zone
// base, key, plain), compared byte for byte: plain is size bytes long, and
// samePlain compares an entry's plaintext of that length. The caller
// holds m.mu, and the entry stays in place only while it does.
func (m *zoneMemo) find(storeBase, base uint32, key [16]byte, size int, samePlain func([]byte) bool) *sealedZone {
	for i := range m.entries {
		z := &m.entries[i]
		if z.storeBase == storeBase && z.base == base && z.key == key && len(z.plain) == size && samePlain(z.plain) {
			return z
		}
	}
	return nil
}

// load installs a remembered ciphertext for (base, key, the size bytes
// the zone holds in st) into st and reports whether there was one. It
// compares the zone in place and shares the remembered pages, so a hit
// copies nothing.
func (m *zoneMemo) load(st *mem.Store, base uint32, key [16]byte, size int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	z := m.find(st.Base(), base, key, size, func(plain []byte) bool { return st.Equal(base, plain) })
	if z != nil {
		st.Restore(&z.cipher)
	}
	return z != nil
}

// add remembers z unless a concurrent Seal got there first, evicting the
// oldest entry beyond sealMemoSize.
func (m *zoneMemo) add(z sealedZone) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.find(z.storeBase, z.base, z.key, len(z.plain), func(plain []byte) bool { return bytes.Equal(plain, z.plain) }) != nil {
		return
	}
	if len(m.entries) == sealMemoSize {
		m.entries = append(m.entries[:0], m.entries[1:]...)
	}
	m.entries = append(m.entries, z)
}

// RotateKey re-encrypts the confidentiality zone of the policy identified
// by spi under a new key and installs the key in the Configuration Memory
// — the key-management half of the paper's "reconfiguration of security
// services". The integrity tree is rebuilt afterwards because every
// ciphertext in the zone changed. The operation is atomic with respect to
// the simulation (no bus traffic interleaves with a synchronous call).
func (f *CipherFirewall) RotateKey(spi uint32, newKey [16]byte) error {
	var target *Policy
	for _, p := range f.cm.Policies() {
		if p.SPI == spi {
			p := p
			target = &p
			break
		}
	}
	if target == nil {
		return fmt.Errorf("core: no policy with SPI %d", spi)
	}
	if !target.CM {
		return fmt.Errorf("core: policy SPI %d has no confidentiality mode to rotate", spi)
	}
	if target.Key == newKey {
		return fmt.Errorf("core: SPI %d rotation to the identical key refused", spi)
	}
	zone := f.store.Peek(target.Zone.Base, int(target.Zone.Size))
	cipherRange(f.cipherFor(target.Key), target.Zone.Base, zone, true)
	cipherRange(f.cipherFor(newKey), target.Zone.Base, zone, false)
	f.store.Poke(target.Zone.Base, zone)
	f.cm.SetKey(spi, newKey)
	if f.tree != nil {
		f.tree.Build()
	}
	f.crypto.KeyRotations++
	return nil
}

// PeekPlaintext reads n bytes at addr as software would see them
// (decrypting CM zones), bypassing bus and timing. Test/diagnostic aid.
func (f *CipherFirewall) PeekPlaintext(addr uint32, n int) []byte {
	out := make([]byte, 0, n)
	a := addr
	for len(out) < n {
		p, v := f.cm.Check("debug", false, a, 1, 1)
		blkBase := a &^ (CipherBlock - 1)
		blk := f.store.Peek(blkBase, CipherBlock)
		if v == VNone && p.CM {
			cipherRange(f.cipherFor(p.Key), blkBase, blk, true)
		}
		for off := int(a - blkBase); off < CipherBlock && len(out) < n; off++ {
			out = append(out, blk[off])
			a++
		}
	}
	return out
}

// cipherRange is the single implementation of the CC's XEX mode
// (C = AES_K(P xor T) xor T with T = AES_K(addr || ...)): it runs the
// block loop over buf (covering [lo, lo+len)) in place — decrypting when
// dec is true, enciphering otherwise — with the tweak derivation fused
// into the loop so per-block state stays in two stack arrays. Address
// binding means identical plaintext at different addresses yields
// unrelated ciphertext, which is the CC's contribution against
// relocation/spoofing even before the IC weighs in.
func cipherRange(c *aes.Cipher, lo uint32, buf []byte, dec bool) {
	var in, t [16]byte
	addr := lo
	for off := 0; off < len(buf); off += CipherBlock {
		b := (*[16]byte)(buf[off:])
		in[0], in[1], in[2], in[3] = byte(addr), byte(addr>>8), byte(addr>>16), byte(addr>>24)
		c.EncryptBlock(&t, &in)
		for i := range b {
			b[i] ^= t[i]
		}
		if dec {
			c.DecryptBlock(b, b)
		} else {
			c.EncryptBlock(b, b)
		}
		for i := range b {
			b[i] ^= t[i]
		}
		addr += CipherBlock
	}
}

// Access implements bus.Slave: the full LCF pipeline.
func (f *CipherFirewall) Access(now uint64, tx *bus.Transaction) (uint64, bus.Resp) {
	f.stats.Checked++
	f.stats.CheckCyclesSpent += f.cfg.CheckCycles
	cycles := f.cfg.CheckCycles

	pol, v := f.cm.CheckAccess(accessOf(tx))
	if v != VNone {
		f.stats.Blocked++
		f.alert(now, tx, pol.SPI, v, "")
		zero(tx.Data)
		return cycles, bus.RespSecurityErr
	}
	f.stats.Allowed++

	// Pass-through zone: plain DDR access.
	if !pol.CM && !pol.IM {
		inner, resp := f.inner.Access(now, tx)
		return cycles + inner, resp
	}

	// Protected zone: operate at cipher-block granularity.
	lo := tx.Addr &^ (CipherBlock - 1)
	hi := (tx.End() + CipherBlock - 1) &^ (CipherBlock - 1)
	nBlocks := int((hi - lo) / CipherBlock)
	buf, words := f.scratch(nBlocks * CipherBlock)

	// 1. Fetch covering ciphertext from the DDR (functional + timing),
	// through the pooled covering transaction.
	raw := &f.covTx
	*raw = bus.Transaction{
		Master: tx.Master, Op: bus.Read, Addr: lo, Size: 4,
		Burst: len(words), Data: words,
	}
	ddrCycles, resp := f.inner.Access(now, raw)
	cycles += ddrCycles
	if resp != bus.RespOK {
		return cycles, resp
	}

	// 2. Integrity: verify every covered leaf before trusting anything.
	// A write that overwrites whole leaves consumes no stale state, so it
	// skips the pre-verification — which is also the recovery path after
	// a detected corruption (software rewrites the full block).
	needVerify := pol.IM
	if tx.Op == bus.Write && tx.Addr%hashtree.LeafSize == 0 && tx.End()%hashtree.LeafSize == 0 {
		needVerify = false
	}
	if needVerify {
		ok, checks := f.verifyRange(lo, hi)
		f.crypto.NodeOps += uint64(checks)
		icCycles := f.cfg.IC.BlockCycles(checks)
		f.crypto.ICCycles += icCycles
		cycles += icCycles
		if !ok {
			f.crypto.IntegrityFailures++
			f.stats.Blocked++
			f.stats.Allowed-- // the rule check passed but the data did not
			diag := f.diagnoseRange(lo, hi)
			vkind := VIntegrity
			if diag == hashtree.DiagReplay {
				vkind = VReplay
			}
			f.alert(now, tx, pol.SPI, vkind, diag.String())
			zero(tx.Data)
			return cycles, bus.RespSecurityErr
		}
	}

	// 3. Confidentiality: decrypt covering blocks into the scratch
	// buffer (the write path merges beats into it and re-encrypts, so
	// the store itself only ever holds ciphertext).
	f.store.PeekInto(buf, lo)
	if pol.CM {
		cipherRange(f.cipherFor(pol.Key), lo, buf, true)
		f.crypto.BlocksDeciphered += uint64(nBlocks)
		cc := f.cfg.CC.BlockCycles(nBlocks)
		f.crypto.CCCycles += cc
		cycles += cc
	}

	if tx.Op == bus.Read {
		// Deliver the requested beats from the plaintext buffer.
		for i := 0; i < tx.Burst; i++ {
			off := int(tx.Addr-lo) + i*tx.Size
			var w uint32
			for b := 0; b < tx.Size; b++ {
				w |= uint32(buf[off+b]) << (8 * b)
			}
			tx.Data[i] = w
		}
		return cycles, bus.RespOK
	}

	// Write: merge beats into the plaintext buffer, re-encrypt, write
	// back, update the tree.
	for i := 0; i < tx.Burst; i++ {
		off := int(tx.Addr-lo) + i*tx.Size
		for b := 0; b < tx.Size; b++ {
			buf[off+b] = byte(tx.Data[i] >> (8 * b))
		}
	}
	if pol.CM {
		cipherRange(f.cipherFor(pol.Key), lo, buf, false)
		f.crypto.BlocksEnciphered += uint64(nBlocks)
		cc := f.cfg.CC.BlockCycles(nBlocks)
		f.crypto.CCCycles += cc
		cycles += cc
	}
	// The covering read is complete, so its pooled word buffer can carry
	// the write-back.
	bytesToWords(buf, words)
	wr := &f.covTx
	*wr = bus.Transaction{
		Master: tx.Master, Op: bus.Write, Addr: lo, Size: 4,
		Burst: len(words), Data: words,
	}
	ddrCycles, resp = f.inner.Access(now, wr)
	cycles += ddrCycles
	if resp != bus.RespOK {
		return cycles, resp
	}
	if pol.IM {
		ops, ok := f.updateRange(lo, hi)
		f.crypto.NodeOps += uint64(ops)
		icCycles := f.cfg.IC.BlockCycles(ops)
		f.crypto.ICCycles += icCycles
		cycles += icCycles
		if !ok {
			// The pre-write verification inside UpdateLeaf failed: an
			// attacker modified the path under us.
			f.crypto.IntegrityFailures++
			f.alert(now, tx, pol.SPI, VIntegrity, "update-path")
			return cycles, bus.RespSecurityErr
		}
	}
	return cycles, bus.RespOK
}

// verifyRange authenticates all leaves covering [lo, hi).
func (f *CipherFirewall) verifyRange(lo, hi uint32) (bool, int) {
	total := 0
	for a := lo &^ (hashtree.LeafSize - 1); a < hi; a += hashtree.LeafSize {
		idx, err := f.tree.LeafIndex(a)
		if err != nil {
			return false, total
		}
		ok, checks := f.tree.VerifyLeaf(idx)
		total += checks
		f.crypto.LeafVerifies++
		if !ok {
			return false, total
		}
	}
	return true, total
}

// diagnoseRange returns the first non-authentic leaf's diagnosis.
func (f *CipherFirewall) diagnoseRange(lo, hi uint32) hashtree.Diagnosis {
	for a := lo &^ (hashtree.LeafSize - 1); a < hi; a += hashtree.LeafSize {
		idx, err := f.tree.LeafIndex(a)
		if err != nil {
			return hashtree.DiagTamper
		}
		if d := f.tree.Diagnose(idx); d != hashtree.DiagAuthentic {
			return d
		}
	}
	return hashtree.DiagTamper
}

// updateRange recomputes all leaves covering [lo, hi) after a write.
func (f *CipherFirewall) updateRange(lo, hi uint32) (int, bool) {
	total := 0
	for a := lo &^ (hashtree.LeafSize - 1); a < hi; a += hashtree.LeafSize {
		idx, err := f.tree.LeafIndex(a)
		if err != nil {
			return total, false
		}
		ok, ops := f.tree.UpdateLeaf(idx)
		total += ops
		f.crypto.LeafUpdates++
		if !ok {
			return total, false
		}
	}
	return total, true
}

func (f *CipherFirewall) alert(now uint64, tx *bus.Transaction, spi uint32, v Violation, detail string) {
	f.log.Record(Alert{
		Cycle:      now,
		FirewallID: f.cfg.Name,
		Master:     tx.Master,
		Thread:     tx.Thread,
		SPI:        spi,
		Violation:  v,
		Op:         tx.Op,
		Addr:       tx.Addr,
		Size:       tx.Size,
		Detail:     detail,
	})
}

func zero(ws []uint32) {
	for i := range ws {
		ws[i] = 0
	}
}

func bytesToWords(b []byte, ws []uint32) {
	for i := range ws {
		ws[i] = uint32(b[4*i]) | uint32(b[4*i+1])<<8 | uint32(b[4*i+2])<<16 | uint32(b[4*i+3])<<24
	}
}
