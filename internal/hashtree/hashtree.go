// Package hashtree implements the Integrity Core (IC) of the paper's Local
// Ciphering Firewall: a binary Merkle hash tree over the protected external
// memory region.
//
// Layout and trust model follow the paper's threat model:
//
//   - Protected data and all tree nodes live in *external* memory, which the
//     attacker can read and rewrite at will (mem.Store.Peek/Poke).
//   - Only the tree root and the per-leaf version counters (the paper's
//     "time stamp tags") are on-chip, inside the LCF.
//
// A leaf digest binds data, address and version:
//
//	leaf_i = H(data_i || addr_i || version_i)
//
// so spoofing (fabricated data), relocation (block copied from another
// address) and replay (stale data with its stale tree path) all fail the
// root comparison, and the version binding lets the LCF attribute a replay
// precisely.
//
// The compression function is Davies–Meyer over the AES-128 core
// (H' = AES_H(M) xor M), which is also why the hardware Integrity Core
// shares the CC's timing descriptor type: the paper's IC costs 20 cycles
// per node check (Table II).
//
// Host-side cost discipline: one modeled node check is a handful of
// Davies–Meyer steps, each of which re-keys AES with the chaining value.
// The tree therefore hashes through stack-resident aes.Schedule values
// (zero heap traffic), reads leaf data and node digests through
// mem.Store.View (no copies), walks paths in fixed-size arrays, and keeps
// the verified-node cache in slice-indexed arrays with a FIFO ring instead
// of a map. Leaf and internal-node digests use fixed-length, domain-
// separated compression chains (leafIV/nodeIV), so no length block is
// needed on the hot path, and the first step of each is keyed by a
// schedule expanded once; the general Hash remains for variable-length
// callers. Build, which every secured platform runs at boot over the same
// image, is memoised per process. None of this affects modeled IC cycles,
// which derive only from the returned node-operation counts.
package hashtree

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"repro/internal/aes"
	"repro/internal/mem"
)

// LeafSize is the number of data bytes covered by one leaf.
const LeafSize = 32

// DigestSize is the byte size of a tree node digest.
const DigestSize = 16

// Digest is a 128-bit hash value.
type Digest [DigestSize]byte

// DefaultTiming is the Table II calibration for the IC: 20-cycle node
// check, initiation interval 98 cycles so the sustained 128-bit-block
// throughput at 100 MHz is ≈131 Mb/s.
var DefaultTiming = aes.Timing{Latency: 20, Interval: 98}

// iv is the fixed initial chaining value of the Davies–Meyer construction
// used by the general-purpose Hash.
var iv = Digest{0x52, 0x45, 0x50, 0x52, 0x4f, 0x2d, 0x49, 0x43, 0x2d, 0x49, 0x56, 0x30, 0x30, 0x30, 0x31, 0x00}

// leafIV and nodeIV are the domain-separated chaining values of the tree's
// fixed-length digests: a leaf absorbs exactly three blocks (32 data bytes
// plus the address/version block), an internal node exactly two (left and
// right child digests), so distinct IVs — not a length block — keep the two
// domains from colliding.
var (
	leafIV = Digest{0x52, 0x45, 0x50, 0x52, 0x4f, 0x2d, 0x49, 0x43, 0x2d, 0x4c, 0x45, 0x41, 0x46, 0x30, 0x31, 0x00}
	nodeIV = Digest{0x52, 0x45, 0x50, 0x52, 0x4f, 0x2d, 0x49, 0x43, 0x2d, 0x4e, 0x4f, 0x44, 0x45, 0x30, 0x31, 0x00}
)

// leafKS and nodeKS are leafIV and nodeIV expanded once: the first step of
// every leaf and node digest is keyed by a fixed IV. Read-only after init.
var leafKS, nodeKS = expanded(leafIV), expanded(nodeIV)

func expanded(chain Digest) *aes.Schedule {
	ks := new(aes.Schedule)
	ks.Expand((*[16]byte)(&chain))
	return ks
}

// compress is one Davies–Meyer step through a caller-provided schedule:
// chain' = AES_chain(block) xor block. The schedule is scratch space; it is
// re-expanded from the chaining value on every step.
func compress(ks *aes.Schedule, chain Digest, block *[16]byte) Digest {
	ks.Expand((*[16]byte)(&chain))
	return compressKeyed(ks, block)
}

// compressKeyed is the Davies–Meyer step under a schedule already expanded
// from the chaining value.
func compressKeyed(ks *aes.Schedule, block *[16]byte) Digest {
	var out Digest
	ks.Encrypt((*[16]byte)(&out), block)
	for i := range out {
		out[i] ^= block[i]
	}
	return out
}

// Compress is one Davies–Meyer step: AES_chain(block) xor block.
func Compress(chain Digest, block [16]byte) Digest {
	var ks aes.Schedule
	return compress(&ks, chain, &block)
}

// Hash absorbs the concatenation of the given byte slices in 16-byte
// blocks (zero-padded) and finishes with a length block, Merkle–Damgård
// style.
func Hash(parts ...[]byte) Digest {
	var ks aes.Schedule
	h := iv
	var block [16]byte
	fill := 0
	total := uint64(0)
	for _, p := range parts {
		total += uint64(len(p))
		for len(p) > 0 {
			n := copy(block[fill:], p)
			fill += n
			p = p[n:]
			if fill == 16 {
				h = compress(&ks, h, &block)
				fill = 0
				block = [16]byte{}
			}
		}
	}
	if fill > 0 {
		h = compress(&ks, h, &block)
		block = [16]byte{}
	}
	// Length block defeats trivial concatenation ambiguity.
	for i := 0; i < 8; i++ {
		block[i] = byte(total >> (8 * i))
	}
	return compress(&ks, h, &block)
}

// hashLeaf computes the fixed-length leaf digest: three compression steps
// over the 32 data bytes and the address/version binding block.
func hashLeaf(data []byte, addr, version uint32) Digest {
	_ = data[LeafSize-1]
	var ks aes.Schedule
	h := compressKeyed(leafKS, (*[16]byte)(data[0:16]))
	h = compress(&ks, h, (*[16]byte)(data[16:32]))
	var meta [16]byte
	putU32(meta[0:], addr)
	putU32(meta[4:], version)
	return compress(&ks, h, &meta)
}

// hashNode computes the fixed-length internal-node digest from the two
// child digests: two compression steps.
func hashNode(l, r *Digest) Digest {
	var ks aes.Schedule
	h := compressKeyed(nodeKS, (*[16]byte)(l))
	return compress(&ks, h, (*[16]byte)(r))
}

// Config parameterizes a Tree.
type Config struct {
	// Store is the external memory holding both data and tree nodes.
	Store *mem.Store
	// DataBase/DataSize delimit the protected region. DataSize must be a
	// multiple of LeafSize and DataSize/LeafSize a power of two.
	DataBase, DataSize uint32
	// NodeBase is where tree nodes are stored in external memory. The
	// region must not overlap the data.
	NodeBase uint32
	// CacheSize bounds the on-chip verified-node cache (digest values of
	// nodes already authenticated against the root). Zero disables
	// caching, making every verification walk the full path.
	CacheSize int
}

// NodesSize returns the external bytes needed for the node array of a
// region of dataSize bytes.
func NodesSize(dataSize uint32) uint32 {
	leaves := dataSize / LeafSize
	return (2*leaves - 1) * DigestSize
}

// maxDepth bounds the tree height: a 32-bit data region holds at most
// 2^27 leaves, so fixed path arrays of 2*maxDepth+2 steps cover any legal
// configuration.
const maxDepth = 27

// denseCacheNodes bounds the dense (slice-indexed) verified-node cache:
// up to this many heap nodes — 1.25 MiB of stamp+digest arrays — lookups
// are plain array indexing; larger trees fall back to the map-backed
// cache so host memory stays proportional to CacheSize rather than the
// tree.
const denseCacheNodes = 1 << 16

// pathStep is one (node, digest) pair collected during a verification
// walk, kept in fixed arrays so walks allocate nothing.
type pathStep struct {
	node int32
	dig  Digest
}

// Tree is the integrity engine state. The exported behaviour distinguishes
// on-chip state (root, versions, cache — trusted) from external state
// (node digests in Store — untrusted).
type Tree struct {
	cfg    Config
	leaves int
	depth  int // number of levels above the leaves
	root   Digest
	// versions are the paper's on-chip time stamp tags, one per leaf.
	versions []uint32
	// Verified-node cache (on-chip): slice-indexed by heap node number
	// when the tree is small enough for dense arrays (entry n is valid
	// when cacheStamp[n] == cacheGen; Build invalidates everything by
	// bumping the generation, eviction by zeroing the stamp), or a map
	// keyed by node number beyond denseCacheNodes so host memory stays
	// O(CacheSize) for giant protected regions. Both flavours share the
	// FIFO ring that replays the insertion order the eviction policy
	// needs, and both implement identical hit/evict semantics.
	cacheDig   []Digest
	cacheStamp []uint32
	cacheGen   uint32
	cacheMap   map[int32]Digest
	fifo       []int32
	fifoHead   int
	fifoLen    int
	// Stats.
	NodeChecks  uint64 // hash computations during verification
	NodeUpdates uint64 // hash computations during updates
	CacheHits   uint64
}

// New validates the configuration and creates an unbuilt tree; call Build
// before first use.
func New(cfg Config) (*Tree, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("hashtree: nil store")
	}
	if cfg.DataSize == 0 || cfg.DataSize%LeafSize != 0 {
		return nil, fmt.Errorf("hashtree: data size %#x not a multiple of %d", cfg.DataSize, LeafSize)
	}
	leaves := cfg.DataSize / LeafSize
	if leaves&(leaves-1) != 0 {
		return nil, fmt.Errorf("hashtree: leaf count %d not a power of two", leaves)
	}
	if !cfg.Store.InRange(cfg.DataBase, cfg.DataSize) {
		return nil, fmt.Errorf("hashtree: data region outside store")
	}
	nodesBytes := NodesSize(cfg.DataSize)
	if !cfg.Store.InRange(cfg.NodeBase, nodesBytes) {
		return nil, fmt.Errorf("hashtree: node region outside store")
	}
	dLo, dHi := uint64(cfg.DataBase), uint64(cfg.DataBase)+uint64(cfg.DataSize)
	nLo, nHi := uint64(cfg.NodeBase), uint64(cfg.NodeBase)+uint64(nodesBytes)
	if dLo < nHi && nLo < dHi {
		return nil, fmt.Errorf("hashtree: node region overlaps data region")
	}
	t := &Tree{
		cfg:      cfg,
		leaves:   int(leaves),
		versions: make([]uint32, leaves),
		cacheGen: 1,
	}
	for l := t.leaves; l > 1; l >>= 1 {
		t.depth++
	}
	if t.depth > maxDepth {
		return nil, fmt.Errorf("hashtree: depth %d exceeds maximum %d", t.depth, maxDepth)
	}
	if cfg.CacheSize > 0 {
		if 2*t.leaves <= denseCacheNodes {
			t.cacheDig = make([]Digest, 2*t.leaves)
			t.cacheStamp = make([]uint32, 2*t.leaves)
		} else {
			t.cacheMap = make(map[int32]Digest, cfg.CacheSize)
		}
		t.fifo = make([]int32, cfg.CacheSize)
	}
	return t, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Tree {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// LeafCount returns the number of leaves.
func (t *Tree) LeafCount() int { return t.leaves }

// Depth returns the number of levels above the leaves (0 for a single
// leaf).
func (t *Tree) Depth() int { return t.depth }

// Root returns the on-chip root digest.
func (t *Tree) Root() Digest { return t.root }

// Version returns the on-chip version (time stamp tag) of leaf idx.
func (t *Tree) Version(idx int) uint32 { return t.versions[idx] }

// CachedNodes returns how many verified digests the on-chip cache
// currently holds (diagnostics and tests).
func (t *Tree) CachedNodes() int { return t.fifoLen }

// OnChipBits returns the trusted state size for the area model: root plus
// version tags plus the verified-node cache.
func (t *Tree) OnChipBits() uint64 {
	return 128 + uint64(t.leaves)*32 + uint64(t.cfg.CacheSize)*(128+32)
}

// LeafIndex maps a protected address to its leaf index.
func (t *Tree) LeafIndex(addr uint32) (int, error) {
	if addr < t.cfg.DataBase || addr >= t.cfg.DataBase+t.cfg.DataSize {
		return 0, fmt.Errorf("hashtree: address %#x outside protected region", addr)
	}
	return int((addr - t.cfg.DataBase) / LeafSize), nil
}

// Node index scheme: heap order with the root at 1, children of n at 2n
// and 2n+1; leaves occupy [leaves, 2*leaves). Node n is stored at
// NodeBase + (n-1)*DigestSize.
func (t *Tree) nodeAddr(n int) uint32 {
	return t.cfg.NodeBase + uint32(n-1)*DigestSize
}

func (t *Tree) readNode(n int) Digest {
	var d Digest
	copy(d[:], t.cfg.Store.View(t.nodeAddr(n), DigestSize))
	return d
}

func (t *Tree) writeNode(n int, d Digest) {
	t.cfg.Store.Poke(t.nodeAddr(n), d[:])
}

// leafDigest recomputes the digest of leaf idx from external data and the
// on-chip address/version binding.
func (t *Tree) leafDigest(idx int) Digest {
	addr := t.cfg.DataBase + uint32(idx)*LeafSize
	return hashLeaf(t.cfg.Store.View(addr, LeafSize), addr, t.versions[idx])
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// Build recomputes every node from the current data contents and installs
// the resulting root. Called once at boot after the LCF initializes the
// protected region.
//
// The node array and root are a pure function of (DataBase, data bytes,
// versions) — NodeBase only places the array — so Build is memoised per
// process (buildMemo): a hit copies the remembered node array into the
// store with one Poke and installs the remembered root, exactly what the
// computation would have written. The computed path writes the array with
// one Poke too.
func (t *Tree) Build() {
	t.cacheReset()
	data := t.cfg.Store.View(t.cfg.DataBase, int(t.cfg.DataSize))
	if buildMemo.load(t, data) {
		return
	}
	nodes := make([]byte, NodesSize(t.cfg.DataSize))
	node := func(n int) *Digest { return (*Digest)(nodes[(n-1)*DigestSize:]) }
	for i := 0; i < t.leaves; i++ {
		*node(t.leaves + i) = t.leafDigest(i)
	}
	for n := t.leaves - 1; n >= 1; n-- {
		*node(n) = hashNode(node(2*n), node(2*n+1))
	}
	t.cfg.Store.Poke(t.cfg.NodeBase, nodes)
	t.root = *node(1)
	buildMemo.add(&builtTree{
		dataBase: t.cfg.DataBase,
		data:     bytes.Clone(data),
		versions: slices.Clone(t.versions),
		nodes:    nodes,
		root:     t.root,
	})
}

// buildMemoSize bounds the build memo: a process normally builds one
// kind of platform, and FIFO eviction keeps a stream of one-off trees
// (key rotations, tests) from growing it.
const buildMemoSize = 4

// builtTree is one remembered Build. Its buffers are private copies, read
// only under buildMemo's lock and never handed out, so no store aliases
// them.
type builtTree struct {
	dataBase uint32
	data     []byte
	versions []uint32
	nodes    []byte
	root     Digest
}

// buildMemo holds the most recent distinct builds, oldest first, for the
// whole process; the mutex serialises the concurrent platform builds of a
// sweep's workers. Like a sync.Pool it is invisible to results: a hit
// yields exactly the nodes and root the computation would.
var buildMemo treeMemo

type treeMemo struct {
	mu      sync.Mutex
	entries []*builtTree
}

// find returns the entry whose complete input equals (dataBase, data,
// versions), compared byte for byte. The caller holds m.mu.
func (m *treeMemo) find(dataBase uint32, data []byte, versions []uint32) *builtTree {
	for _, b := range m.entries {
		if b.dataBase == dataBase && bytes.Equal(b.data, data) && slices.Equal(b.versions, versions) {
			return b
		}
	}
	return nil
}

// load installs a remembered build of t's current input — node array
// into the store, root on chip — and reports whether there was one.
func (m *treeMemo) load(t *Tree, data []byte) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	b := m.find(t.cfg.DataBase, data, t.versions)
	if b != nil {
		t.cfg.Store.Poke(t.cfg.NodeBase, b.nodes)
		t.root = b.root
	}
	return b != nil
}

// add remembers b unless a concurrent Build got there first, evicting the
// oldest entry beyond buildMemoSize.
func (m *treeMemo) add(b *builtTree) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.find(b.dataBase, b.data, b.versions) != nil {
		return
	}
	if len(m.entries) == buildMemoSize {
		m.entries = append(m.entries[:0], m.entries[1:]...)
	}
	m.entries = append(m.entries, b)
}

// cacheReset empties the verified-node cache — by advancing the
// generation on the dense flavour, by clearing the map otherwise.
func (t *Tree) cacheReset() {
	t.fifoHead, t.fifoLen = 0, 0
	if t.cacheMap != nil {
		clear(t.cacheMap)
		return
	}
	t.cacheGen++
	if t.cacheGen == 0 { // generation wrapped: stale stamps could collide
		for i := range t.cacheStamp {
			t.cacheStamp[i] = 0
		}
		t.cacheGen = 1
	}
}

// cachePut installs a verified digest, evicting FIFO beyond CacheSize.
func (t *Tree) cachePut(n int, d Digest) {
	if t.cfg.CacheSize <= 0 {
		return
	}
	present := false
	if t.cacheMap != nil {
		_, present = t.cacheMap[int32(n)]
	} else {
		present = t.cacheStamp[n] == t.cacheGen
	}
	if !present {
		if t.fifoLen == t.cfg.CacheSize {
			victim := t.fifo[t.fifoHead]
			if t.cacheMap != nil {
				delete(t.cacheMap, victim)
			} else {
				t.cacheStamp[victim] = 0
			}
			t.fifoHead++
			if t.fifoHead == len(t.fifo) {
				t.fifoHead = 0
			}
			t.fifoLen--
		}
		tail := t.fifoHead + t.fifoLen
		if tail >= len(t.fifo) {
			tail -= len(t.fifo)
		}
		t.fifo[tail] = int32(n)
		t.fifoLen++
		if t.cacheMap == nil {
			t.cacheStamp[n] = t.cacheGen
		}
	}
	if t.cacheMap != nil {
		t.cacheMap[int32(n)] = d
	} else {
		t.cacheDig[n] = d
	}
}

// cacheGet returns the trusted digest for node n if present. The root is
// always "cached": it lives on-chip.
func (t *Tree) cacheGet(n int) (Digest, bool) {
	if n == 1 {
		return t.root, true
	}
	if t.cfg.CacheSize <= 0 {
		return Digest{}, false
	}
	if t.cacheMap != nil {
		d, ok := t.cacheMap[int32(n)]
		return d, ok
	}
	if t.cacheStamp[n] == t.cacheGen {
		return t.cacheDig[n], true
	}
	return Digest{}, false
}

// VerifyLeaf authenticates leaf idx against the on-chip root. It returns
// whether the leaf (and the path walked) is authentic and how many node
// hash computations were needed — the LCF converts that count into IC
// cycles.
func (t *Tree) VerifyLeaf(idx int) (ok bool, nodeChecks int) {
	if idx < 0 || idx >= t.leaves {
		return false, 0
	}
	d := t.leafDigest(idx)
	nodeChecks = 1
	t.NodeChecks++
	n := t.leaves + idx
	// Collect the walked nodes so they can be cache-installed on success.
	var verified [2*maxDepth + 2]pathStep
	verified[0] = pathStep{int32(n), d}
	cnt := 1
	for {
		if trusted, hit := t.cacheGet(n); hit {
			if trusted != d {
				return false, nodeChecks
			}
			if n != 1 {
				t.CacheHits++
			}
			for i := 0; i < cnt; i++ {
				t.cachePut(int(verified[i].node), verified[i].dig)
			}
			return true, nodeChecks
		}
		sib := n ^ 1
		sd := t.readNode(sib) // untrusted external read
		var parent Digest
		if n < sib { // n is the left child
			parent = hashNode(&d, &sd)
		} else {
			parent = hashNode(&sd, &d)
		}
		nodeChecks++
		t.NodeChecks++
		n >>= 1
		d = parent
		verified[cnt] = pathStep{int32(sib), sd}
		verified[cnt+1] = pathStep{int32(n), d}
		cnt += 2
	}
}

// UpdateLeaf re-authenticates the old contents of the path, bumps the
// leaf's version tag, recomputes the path and installs the new root. It
// must be called *after* the new data has been written to the store. It
// returns false when the pre-update verification fails (an attacker
// modified external state between accesses); the tree is left unchanged in
// that case. nodeOps counts hash computations for timing.
//
// Note the order: the LCF performs read-verify before accepting a write to
// a block it has not verified, so UpdateLeaf trusts the *sibling* path via
// the same verification walk, not the leaf data (which just changed). The
// sibling digests authenticated by that walk are reused directly when the
// path is rehashed — no second read of external memory for them.
func (t *Tree) UpdateLeaf(idx int) (ok bool, nodeOps int) {
	if idx < 0 || idx >= t.leaves {
		return false, 0
	}
	// Verify the sibling path using the stored leaf digest (pre-write
	// value is irrelevant; what matters is that the *siblings* we are
	// about to hash against are authentic). We walk with the stored leaf
	// node value.
	n := t.leaves + idx
	d := t.readNode(n)
	checks := 0
	var path [2*maxDepth + 2]pathStep
	path[0] = pathStep{int32(n), d}
	cnt := 1
	// sibs[l] is the authenticated sibling digest at level l of the walk,
	// reused by the rehash below instead of re-reading external memory.
	var sibs [maxDepth]Digest
	walked := 0
	for {
		if trusted, hit := t.cacheGet(n); hit {
			if trusted != d {
				return false, checks
			}
			break
		}
		sib := n ^ 1
		sd := t.readNode(sib)
		var parent Digest
		if n < sib {
			parent = hashNode(&d, &sd)
		} else {
			parent = hashNode(&sd, &d)
		}
		checks++
		t.NodeChecks++
		sibs[walked] = sd
		walked++
		n >>= 1
		d = parent
		path[cnt] = pathStep{int32(sib), sd}
		path[cnt+1] = pathStep{int32(n), d}
		cnt += 2
	}
	for i := 0; i < cnt; i++ {
		t.cachePut(int(path[i].node), path[i].dig)
	}

	// Authentic: bump version, rewrite the path bottom-up.
	t.versions[idx]++
	n = t.leaves + idx
	nd := t.leafDigest(idx)
	t.writeNode(n, nd)
	t.cachePut(n, nd)
	ops := checks + 1
	t.NodeUpdates++
	level := 0
	for n > 1 {
		sib := n ^ 1
		var sd Digest
		if level < walked {
			sd = sibs[level] // authenticated moments ago by the walk
		} else if trusted, hit := t.cacheGet(sib); hit {
			sd = trusted
		} else {
			// Known modeling limitation (pre-existing, tracked in
			// ROADMAP): above the walk's cache-hit break point an
			// uncached sibling is folded in from external memory
			// unauthenticated. Closing it means walking every update
			// to the root, which changes the modeled IC op counts —
			// a cycle-accounting change this host-speed path must not
			// make.
			sd = t.readNode(sib)
		}
		var parent Digest
		if n < sib {
			parent = hashNode(&nd, &sd)
		} else {
			parent = hashNode(&sd, &nd)
		}
		ops++
		t.NodeUpdates++
		n >>= 1
		level++
		nd = parent
		t.writeNode(n, nd)
		t.cachePut(n, nd)
	}
	t.root = nd
	return true, ops
}

// Diagnosis classifies why a leaf failed verification, so the LCF can
// attribute an alert to the right attack class.
type Diagnosis uint8

// Diagnosis values.
const (
	// DiagAuthentic: the leaf verifies; nothing to diagnose.
	DiagAuthentic Diagnosis = iota
	// DiagTamper: the external data no longer matches the stored leaf
	// digest for any plausible version — spoofed, relocated or corrupted
	// data.
	DiagTamper
	// DiagReplay: data and stored digest are internally consistent with a
	// *previous* version tag (or with the current one while the path is
	// stale) — a replayed memory image.
	DiagReplay
)

// String implements fmt.Stringer.
func (d Diagnosis) String() string {
	switch d {
	case DiagAuthentic:
		return "authentic"
	case DiagTamper:
		return "tamper"
	case DiagReplay:
		return "replay"
	default:
		return fmt.Sprintf("diagnosis(%d)", uint8(d))
	}
}

// diagnoseVersionWindow bounds how many historical version tags Diagnose
// tries when attributing a mismatch to a replay.
const diagnoseVersionWindow = 8

// Diagnose classifies a failed verification of leaf idx. It is a modeling
// aid for alert reporting (a hardware IC would simply flag the mismatch)
// and does not affect detection itself.
func (t *Tree) Diagnose(idx int) Diagnosis {
	if ok, _ := t.VerifyLeaf(idx); ok {
		return DiagAuthentic
	}
	stored := t.readNode(t.leaves + idx)
	if t.leafDigest(idx) == stored {
		// Data matches its stored digest at the current version, yet the
		// path to the root fails: stale internal nodes were replayed.
		return DiagReplay
	}
	// Try recent historical versions: a replayed image is consistent
	// under the version tag it was captured with.
	cur := t.versions[idx]
	saved := cur
	defer func() { t.versions[idx] = saved }()
	for back := uint32(1); back <= diagnoseVersionWindow && back <= cur; back++ {
		t.versions[idx] = cur - back
		if t.leafDigest(idx) == stored {
			return DiagReplay
		}
	}
	return DiagTamper
}

// VerifyAll walks every leaf (diagnostics / tests); it returns the index
// of the first corrupt leaf, or -1.
func (t *Tree) VerifyAll() int {
	for i := 0; i < t.leaves; i++ {
		if ok, _ := t.VerifyLeaf(i); !ok {
			return i
		}
	}
	return -1
}

// Equal reports whether two digests match (constant-time is irrelevant in
// a simulator; digests are fixed-size arrays, so this is plain equality).
func Equal(a, b Digest) bool { return a == b }
