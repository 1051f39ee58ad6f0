package soc_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/soc"
)

// TestConcurrentPairBuildsIdentical: sweep and daemon workers build
// distributed pairs concurrently, and the LCF's boot-time seal is
// memoised per process. Eight goroutines racing on the memo (cold when
// this file's tests run first in the package, as they do by file order)
// must all end up with the same sealed external memory and tree root.
// Run under -race (make race).
func TestConcurrentPairBuildsIdentical(t *testing.T) {
	const n = 8
	pairs := make([]*soc.Pair, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range pairs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pairs[i], errs[i] = soc.NewPair(soc.Config{Protection: soc.Distributed})
		}()
	}
	wg.Wait()
	var want []byte
	for i, p := range pairs {
		if errs[i] != nil {
			t.Fatalf("pair %d: %v", i, errs[i])
		}
		for _, s := range []*soc.System{p.Attacked, p.Twin} {
			img := s.DDR.Store().Peek(soc.DDRBase, soc.DDRSize)
			if want == nil {
				want = img
				if bytes.Equal(img[soc.CipherBase-soc.DDRBase:][:64], make([]byte, 64)) {
					t.Fatal("the CM-only zone was left in plaintext")
				}
			} else if !bytes.Equal(img, want) {
				t.Fatalf("pair %d: sealed DDR image differs from pair 0's", i)
			}
			if s.LCF.Tree().Root() != pairs[0].Attacked.LCF.Tree().Root() {
				t.Fatalf("pair %d: tree root differs from pair 0's", i)
			}
			if bad := s.LCF.Tree().VerifyAll(); bad != -1 {
				t.Fatalf("pair %d: leaf %d fails verification", i, bad)
			}
		}
	}
}
