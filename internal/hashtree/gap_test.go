package hashtree

import (
	"testing"

	"repro/internal/mem"
)

// gapTree builds the smallest tree that exhibits the UpdateLeaf sibling
// gap: 8 leaves (depth 3, nodes 1..15 in heap order) and a 2-entry
// verified-node cache, so a single verification walk can leave exactly one
// upper-level ancestor trusted while its sibling has been FIFO-evicted.
func gapTree(t *testing.T) (*Tree, *mem.Store) {
	t.Helper()
	st := mem.NewStore(0x4000_0000, 0x1000)
	tr, err := New(Config{
		Store:     st,
		DataBase:  0x4000_0000,
		DataSize:  8 * LeafSize,
		NodeBase:  0x4000_0800,
		CacheSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 8*LeafSize; i += 4 {
		st.WriteWord(0x4000_0000+i, 0xC0000000|i)
	}
	tr.Build()
	return tr, st
}

// TestUpdateLeafForgedSiblingSubtree is the regression test for the known
// Integrity Core gap documented at the readNode fallback in
// (*Tree).UpdateLeaf and in ROADMAP.md: above the verification walk's
// cache-hit break point, an uncached sibling digest is folded into the new
// root straight from external (attacker-writable) memory, unauthenticated.
//
// The reproduction, concretely (8 leaves, cache capacity 2):
//
//  1. A benign verified read of leaf 4 walks nodes 12,13,6,7,3,2,1 and
//     cache-installs them in that order; FIFO capacity 2 keeps only
//     {2, root} — the victim path's top ancestor is trusted on-chip, its
//     sibling node 3 is not.
//  2. The attacker rewrites leaf 5's data in external memory and recomputes
//     the node-3 subtree (leaf digest 13, internal 6, subtree root 3) to
//     match. The hash is keyless and the version tags are observable (they
//     count writes), so every digest is attacker-computable. At this point
//     the forgery is still caught: VerifyLeaf(5) reaches the on-chip root
//     and fails.
//  3. A benign write + UpdateLeaf on unrelated leaf 0 walks 8->4, hits the
//     trusted node 2 and stops (walked=2 of depth 3). Rehashing the path,
//     level 2 needs sibling node 3: not in sibs[], not cached — so it is
//     read raw from external memory. The forged subtree digest is hashed
//     into the new root, and from then on the forged leaf 5 verifies as
//     authentic.
//
// The assertions below state the *fixed* behaviour (the forgery must never
// authenticate). They fail today — the benign update legitimizes the forged
// subtree — so the test is skipped until the fix lands. Closing the gap
// means walking every update to the root, which changes the modeled IC
// node-op counts (and hence golden cycle outputs), a calibration change
// that needs its own PR.
func TestUpdateLeafForgedSiblingSubtree(t *testing.T) {
	t.Skip("known IC gap (see ROADMAP.md and the readNode fallback in UpdateLeaf): " +
		"uncached sibling folded into the root unauthenticated; fix changes modeled IC op counts")

	tr, st := gapTree(t)

	// Step 1: benign verified read of leaf 4 seeds the cache with {2, root}.
	if ok, _ := tr.VerifyLeaf(4); !ok {
		t.Fatal("pristine leaf 4 failed verification")
	}
	if _, hit := tr.cacheGet(2); !hit {
		t.Fatal("precondition: victim-path ancestor node 2 must be cached")
	}
	if _, hit := tr.cacheGet(3); hit {
		t.Fatal("precondition: sibling node 3 must have been evicted")
	}

	// Step 2: forge leaf 5 and recompute its subtree consistently.
	leaf5 := tr.cfg.DataBase + 5*LeafSize
	forged := make([]byte, LeafSize)
	for i := range forged {
		forged[i] = byte(0xEE ^ i)
	}
	st.Poke(leaf5, forged)
	d13 := hashLeaf(st.Peek(leaf5, LeafSize), leaf5, tr.Version(5))
	st.Poke(tr.nodeAddr(13), d13[:])
	d12, d7 := tr.readNode(12), tr.readNode(7)
	d6 := hashNode(&d12, &d13)
	st.Poke(tr.nodeAddr(6), d6[:])
	d3 := hashNode(&d6, &d7)
	st.Poke(tr.nodeAddr(3), d3[:])

	if ok, _ := tr.VerifyLeaf(5); ok {
		t.Fatal("forged leaf 5 verified before the benign update: attack construction is wrong")
	}

	// Step 3: benign write + update on unrelated leaf 0.
	st.WriteWord(tr.cfg.DataBase, 0xBEEF)
	if ok, _ := tr.UpdateLeaf(0); !ok {
		// A fixed UpdateLeaf may instead refuse the update outright; that
		// also closes the gap.
		return
	}

	// Fixed behaviour: the forged subtree must still fail verification.
	if ok, _ := tr.VerifyLeaf(5); ok {
		t.Fatal("forged leaf 5 authenticates after a benign update on leaf 0: " +
			"UpdateLeaf folded the unauthenticated sibling node 3 into the root")
	}
}
