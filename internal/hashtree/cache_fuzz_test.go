package hashtree

import (
	"testing"

	"repro/internal/mem"
)

// denseCache is the verified-node cache the open-addressed table replaced,
// kept as FuzzTreeCache's reference: arrays indexed by heap node number,
// 2*leaves entries each, where entry n is valid when stamp[n] == gen; a
// reset bumps the generation, an eviction zeroes the stamp, and a FIFO
// ring replays the insertion order.
type denseCache struct {
	size     int
	dig      []Digest
	stamp    []uint32
	gen      uint32
	fifo     []int32
	fifoHead int
	fifoLen  int
}

func newDenseCache(leaves, size int) *denseCache {
	return &denseCache{size: size, dig: make([]Digest, 2*leaves), stamp: make([]uint32, 2*leaves),
		gen: 1, fifo: make([]int32, size)}
}

func (c *denseCache) reset() {
	c.fifoHead, c.fifoLen = 0, 0
	c.gen++
	if c.gen == 0 {
		clear(c.stamp)
		c.gen = 1
	}
}

func (c *denseCache) put(n int, d Digest) {
	if c.stamp[n] != c.gen {
		if c.fifoLen == c.size {
			c.stamp[c.fifo[c.fifoHead]] = 0
			c.fifoHead = (c.fifoHead + 1) % len(c.fifo)
			c.fifoLen--
		}
		c.fifo[(c.fifoHead+c.fifoLen)%len(c.fifo)] = int32(n)
		c.fifoLen++
		c.stamp[n] = c.gen
	}
	c.dig[n] = d
}

func (c *denseCache) get(t *Tree, n int) (Digest, bool) {
	if n == 1 {
		return t.root, true
	}
	if c.stamp[n] == c.gen {
		return c.dig[n], true
	}
	return Digest{}, false
}

// refTree is a Tree whose walks go through a denseCache instead of its
// own table: refVerify and refUpdate are VerifyLeaf and UpdateLeaf with
// only the cache calls changed. The Tree's own table stays empty.
type refTree struct {
	*Tree
	c *denseCache
}

func (r refTree) build() {
	r.Build()
	r.c.reset()
}

func (r refTree) refVerify(idx int) (ok bool, nodeChecks int) {
	t := r.Tree
	d := t.leafDigest(idx)
	nodeChecks = 1
	t.NodeChecks++
	n := t.leaves + idx
	var verified [2*maxDepth + 2]pathStep
	verified[0] = pathStep{int32(n), d}
	cnt := 1
	for {
		if trusted, hit := r.c.get(t, n); hit {
			if trusted != d {
				return false, nodeChecks
			}
			if n != 1 {
				t.CacheHits++
			}
			for i := 0; i < cnt; i++ {
				r.c.put(int(verified[i].node), verified[i].dig)
			}
			return true, nodeChecks
		}
		sib := n ^ 1
		sd := t.readNode(sib)
		var parent Digest
		if n < sib {
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

func (r refTree) refUpdate(idx int) (ok bool, nodeOps int) {
	t := r.Tree
	n := t.leaves + idx
	d := t.readNode(n)
	checks := 0
	var path [2*maxDepth + 2]pathStep
	path[0] = pathStep{int32(n), d}
	cnt := 1
	var sibs [maxDepth]Digest
	walked := 0
	for {
		if trusted, hit := r.c.get(t, n); hit {
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
		r.c.put(int(path[i].node), path[i].dig)
	}
	t.versions[idx]++
	n = t.leaves + idx
	nd := t.leafDigest(idx)
	t.writeNode(n, nd)
	r.c.put(n, nd)
	ops := checks + 1
	t.NodeUpdates++
	level := 0
	for n > 1 {
		sib := n ^ 1
		var sd Digest
		if level < walked {
			sd = sibs[level]
		} else if trusted, hit := r.c.get(t, sib); hit {
			sd = trusted
		} else {
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
		r.c.put(n, nd)
	}
	t.root = nd
	return true, ops
}

// fuzzTree builds an 8-leaf tree like gapTree's, with the given cache size.
func fuzzTree(t *testing.T, cacheSize int) (*Tree, *mem.Store) {
	t.Helper()
	st := mem.NewStore(0x4000_0000, 0x1000)
	tr, err := New(Config{Store: st, DataBase: 0x4000_0000, DataSize: 8 * LeafSize,
		NodeBase: 0x4000_0800, CacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 8*LeafSize; i += 4 {
		st.WriteWord(0x4000_0000+i, 0xC0000000|i)
	}
	return tr, st
}

// Fuzz step opcodes: each step is an opcode byte and an argument byte.
const (
	stepVerify     = iota // verify leaf arg%8
	stepUpdate            // write arg into leaf arg%8, then update it
	stepTamperData        // flip bits of data byte arg (the region is 256 bytes)
	stepTamperNode        // flip bits of node-array byte arg%240 (15 nodes)
	stepBuild             // rebuild the tree, emptying the cache
	stepKinds
)

// FuzzTreeCache drives the tree with the open-addressed cache and the
// same tree with the dense reference cache through one schedule of
// verify, update, tamper and Build steps, on twin stores, and after every
// step requires the same answer, the same node counts, the same cache
// hits and the same number of cached nodes: the cache's hits and
// evictions, and so every modeled IC cycle, must not depend on its
// layout. The first input byte picks CacheSize 1-8. The seed is
// gap_test.go's schedule: a read of leaf 4 with a 2-entry cache, leaf 5's
// data and subtree rewritten, a read of leaf 5, an update of leaf 0 and
// leaf 5 read again.
func FuzzTreeCache(f *testing.F) {
	f.Add([]byte{1,
		stepVerify, 4,
		stepTamperData, 5*LeafSize + 3, stepTamperNode, 12 * DigestSize, stepTamperNode, 5 * DigestSize,
		stepTamperNode, 2 * DigestSize,
		stepVerify, 5,
		stepUpdate, 0,
		stepVerify, 5})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		size := int(in[0]%8) + 1
		tr, st := fuzzTree(t, size)
		refT, refSt := fuzzTree(t, size)
		ref := refTree{refT, newDenseCache(refT.leaves, size)}
		tr.Build()
		ref.build()
		data, nodes := tr.cfg.DataBase, tr.cfg.NodeBase
		for k := 1; k+1 < len(in); k += 2 {
			op, arg := in[k]%stepKinds, in[k+1]
			var ok, refOK bool
			var ops, refOps int
			switch op {
			case stepVerify:
				ok, ops = tr.VerifyLeaf(int(arg % 8))
				refOK, refOps = ref.refVerify(int(arg % 8))
			case stepUpdate:
				leaf := uint32(arg % 8)
				st.WriteWord(data+leaf*LeafSize, uint32(arg)<<8|uint32(k))
				refSt.WriteWord(data+leaf*LeafSize, uint32(arg)<<8|uint32(k))
				ok, ops = tr.UpdateLeaf(int(leaf))
				refOK, refOps = ref.refUpdate(int(leaf))
			case stepTamperData, stepTamperNode:
				addr := data + uint32(arg)
				if op == stepTamperNode {
					addr = nodes + uint32(arg)%(15*DigestSize)
				}
				b := st.Peek(addr, 1)[0] ^ (in[k] | 1)
				st.Poke(addr, []byte{b})
				refSt.Poke(addr, []byte{b})
			case stepBuild:
				tr.Build()
				ref.build()
			}
			if ok != refOK || ops != refOps || tr.NodeChecks != refT.NodeChecks ||
				tr.NodeUpdates != refT.NodeUpdates || tr.CacheHits != refT.CacheHits ||
				tr.CachedNodes() != ref.c.fifoLen || tr.Root() != refT.Root() {
				t.Fatalf("step %d (op %d, arg %d), cache size %d: ok %v/%v, ops %d/%d, checks %d/%d, "+
					"updates %d/%d, hits %d/%d, cached %d/%d, same root %v",
					k/2, op, arg, size, ok, refOK, ops, refOps, tr.NodeChecks, refT.NodeChecks,
					tr.NodeUpdates, refT.NodeUpdates, tr.CacheHits, refT.CacheHits,
					tr.CachedNodes(), ref.c.fifoLen, tr.Root() == refT.Root())
			}
		}
	})
}
