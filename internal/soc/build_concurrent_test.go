package soc_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/hashtree"
	"repro/internal/mem"
	"repro/internal/soc"
)

// scribble is a run's writes into the pages a distributed platform shares
// with the seal and build memos — both sealed zones and the node array,
// its partial last page included — through every store write path: Write,
// Poke and Fill. Each writer's bytes carry its own tag.
type scribble struct {
	addr uint32
	n    int
}

var scribbles = func() []scribble {
	nodesEnd := soc.NodeBase + hashtree.NodesSize(soc.SecureSize)
	return []scribble{
		{soc.SecureBase + 0x2004, 4},  // a word of the CM+IM zone
		{soc.CipherBase + 0x10ff, 18}, // across a page boundary of the CM-only zone
		{soc.NodeBase + 0x3000, 32},   // two node digests
		{nodesEnd - 16, 16},           // the last node, in the array's partial last page
		{soc.CipherBase + 0x7000, 64}, // a fill of the CM-only zone's last page
	}
}()

// write applies the scribbles tagged tag to st.
func write(st *mem.Store, tag byte) {
	for i, w := range scribbles {
		v := tag ^ byte(i)
		switch i % 3 {
		case 0:
			for k := 0; k < w.n; k += 4 {
				st.WriteWord(w.addr+uint32(k), uint32(v)*0x0101_0101)
			}
		case 1:
			st.Poke(w.addr, bytes.Repeat([]byte{v}, w.n))
		case 2:
			st.Fill(w.addr, w.n, v)
		}
	}
}

// scribbleFlat applies the scribbles tagged tag to a flat image of the
// DDR: what write leaves in a store that shares no page.
func scribbleFlat(flat []byte, tag byte) {
	for i, w := range scribbles {
		copy(flat[w.addr-soc.DDRBase:], bytes.Repeat([]byte{tag ^ byte(i)}, w.n))
	}
}

// TestConcurrentPairBuildsIdentical: sweep and daemon workers build
// distributed pairs concurrently, and every platform a process builds
// shares the pages of the LCF's sealed zones and of the tree's node array
// with the seal and build memos. Eight goroutines build pairs at once,
// racing on the memos (cold when this test runs alone), take their sealed
// image and then write into those pages. Every sealed image and root
// must equal the others, every platform must end up holding its sealed
// image plus its own writes and nothing of another's, and a pair built
// afterwards must still seal to the same image: no path writes a shared
// page in place. Run under -race -count=10 (make race runs it once).
func TestConcurrentPairBuildsIdentical(t *testing.T) {
	const n = 8
	pairs := make([]*soc.Pair, n)
	errs := make([]error, n)
	sealed := make([][]byte, n)
	var wg sync.WaitGroup
	for i := range pairs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := soc.NewPair(soc.Config{Protection: soc.Distributed})
			pairs[i], errs[i] = p, err
			if err != nil {
				return
			}
			sealed[i] = p.Attacked.DDR.Store().Peek(soc.DDRBase, soc.DDRSize)
			for _, s := range []*soc.System{p.Attacked, p.Twin} {
				write(s.DDR.Store(), byte(0x10*i+1))
			}
		}()
	}
	wg.Wait()
	for i := range pairs {
		if errs[i] != nil {
			t.Fatalf("pair %d: %v", i, errs[i])
		}
	}
	want, root := sealed[0], pairs[0].Attacked.LCF.Tree().Root()
	if bytes.Equal(want[soc.CipherBase-soc.DDRBase:][:64], make([]byte, 64)) {
		t.Fatal("the CM-only zone was left in plaintext")
	}
	for i, p := range pairs {
		if !bytes.Equal(sealed[i], want) {
			t.Fatalf("pair %d: sealed DDR image differs from pair 0's", i)
		}
		flat := bytes.Clone(want)
		scribbleFlat(flat, byte(0x10*i+1))
		for _, s := range []*soc.System{p.Attacked, p.Twin} {
			if !bytes.Equal(s.DDR.Store().Peek(soc.DDRBase, soc.DDRSize), flat) {
				t.Fatalf("pair %d: DDR differs from its sealed image plus its own writes", i)
			}
			if s.LCF.Tree().Root() != root {
				t.Fatalf("pair %d: tree root differs from pair 0's", i)
			}
		}
	}

	after, err := soc.NewPair(soc.Config{Protection: soc.Distributed})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*soc.System{after.Attacked, after.Twin} {
		if !bytes.Equal(s.DDR.Store().Peek(soc.DDRBase, soc.DDRSize), want) {
			t.Fatal("a pair built after the writes seals to another image: a write reached a memo's pages")
		}
		if bad := s.LCF.Tree().VerifyAll(); bad != -1 {
			t.Fatalf("a pair built after the writes fails verification at leaf %d", bad)
		}
	}
}
