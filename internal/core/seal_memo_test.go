package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bus"
	"repro/internal/mem"
)

// clearSealMemo empties the process-wide seal memo, so the next Seal
// enciphers its zones. (The tree half is hashtree's build memo, whose
// hit-equals-computation tests live in that package.)
func clearSealMemo() {
	sealMemo.mu.Lock()
	sealMemo.entries = nil
	sealMemo.mu.Unlock()
}

func sealMemoLen() int {
	sealMemo.mu.Lock()
	defer sealMemo.mu.Unlock()
	return len(sealMemo.entries)
}

// The platform's external-memory layout in miniature: a CM+IM zone, a
// CM-only zone and a pass-through zone, with the tree nodes outside all
// of them.
const (
	memoDDR    = 0x4000_0000
	memoSecure = memoDDR
	memoCipher = memoDDR + 0x2000
	memoPlain  = memoDDR + 0x4000
	memoNodes  = memoDDR + 0x8000
	memoZone   = 0x2000
)

var (
	memoKeyA = [16]byte{0x5E, 0xA1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	memoKeyB = [16]byte{0xC1, 0xF0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	memoKeyC = [16]byte{0x7A, 0x7E, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
)

// sealedMemoLCF seals a fresh DDR and returns the firewall and its store.
func sealedMemoLCF(t *testing.T) (*CipherFirewall, *mem.Store) {
	t.Helper()
	f, st := unsealedMemoLCF(t)
	f.Seal()
	return f, st
}

// unsealedMemoLCF is sealedMemoLCF before the Seal.
func unsealedMemoLCF(t *testing.T) (*CipherFirewall, *mem.Store) {
	t.Helper()
	ddr := mem.NewDDR("ddr", memoDDR, 0x10000)
	cm := MustConfig(
		Policy{SPI: 1, Zone: Zone{memoSecure, memoZone}, RWA: ReadWrite, ADF: AnyWidth, CM: true, IM: true, Key: memoKeyA},
		Policy{SPI: 2, Zone: Zone{memoCipher, memoZone}, RWA: ReadWrite, ADF: AnyWidth, CM: true, Key: memoKeyB},
		Policy{SPI: 3, Zone: Zone{memoPlain, memoZone}, RWA: ReadWrite, ADF: AnyWidth},
	)
	f, err := NewCipherFirewall(LCFConfig{IntegrityZone: Zone{memoSecure, memoZone}, NodeBase: memoNodes},
		ddr, ddr.Store(), cm, NewAlertLog())
	if err != nil {
		t.Fatal(err)
	}
	return f, ddr.Store()
}

// sameSealed requires two firewalls to hold identical external memory,
// store generation, root and version tags.
func sameSealed(t *testing.T, what string, a *CipherFirewall, sa *mem.Store, b *CipherFirewall, sb *mem.Store) {
	t.Helper()
	if !bytes.Equal(sa.Snapshot(), sb.Snapshot()) {
		t.Fatalf("%s: external memory differs", what)
	}
	if sa.Gen() != sb.Gen() {
		t.Fatalf("%s: store generation %d != %d", what, sa.Gen(), sb.Gen())
	}
	if a.Tree().Root() != b.Tree().Root() {
		t.Fatalf("%s: tree roots differ", what)
	}
	for i := 0; i < a.Tree().LeafCount(); i++ {
		if a.Tree().Version(i) != b.Tree().Version(i) {
			t.Fatalf("%s: leaf %d version %d != %d", what, i, a.Tree().Version(i), b.Tree().Version(i))
		}
	}
}

// TestSealMemoHitEqualsComputation: a Seal served from the memo leaves
// the external memory, generation, root and versions of a computed one,
// and a key rotation afterwards gives the same result on both.
func TestSealMemoHitEqualsComputation(t *testing.T) {
	clearSealMemo()
	cold, sc := sealedMemoLCF(t)
	if n := sealMemoLen(); n != 2 {
		t.Fatalf("memo holds %d zones after a computed Seal, want 2 (one per CM zone)", n)
	}
	if bytes.Equal(sc.Peek(memoCipher, 64), make([]byte, 64)) {
		t.Fatal("Seal left the CM-only zone in plaintext")
	}
	warm, sw := sealedMemoLCF(t)
	if n := sealMemoLen(); n != 2 {
		t.Fatalf("memo holds %d zones after a hit, want 2", n)
	}
	sameSealed(t, "seal", cold, sc, warm, sw)
	if bad := warm.Tree().VerifyAll(); bad != -1 {
		t.Fatalf("memo-sealed leaf %d fails verification", bad)
	}

	// A secured write bumps a version tag; the rotation's rebuild then
	// runs over non-zero versions on both platforms.
	for _, f := range []*CipherFirewall{cold, warm} {
		tx := &bus.Transaction{Master: "cpu0", Op: bus.Write, Addr: memoSecure + 0x40, Size: 4, Burst: 1, Data: []uint32{0xC0DE}}
		if _, resp := f.Access(0, tx); resp != bus.RespOK {
			t.Fatalf("secured write: %v", resp)
		}
		if err := f.RotateKey(1, memoKeyC); err != nil {
			t.Fatal(err)
		}
	}
	sameSealed(t, "rotate", cold, sc, warm, sw)
	if got := warm.PeekPlaintext(memoSecure+0x40, 4); !bytes.Equal(got, []byte{0xDE, 0xC0, 0, 0}) {
		t.Fatalf("rotated zone reads %x", got)
	}
}

// TestSealMemoMissesPreloadedImage: a preloaded plaintext image is a
// different input, so it is enciphered, not served from the memo, and it
// does not disturb the fresh platform's entry.
func TestSealMemoMissesPreloadedImage(t *testing.T) {
	clearSealMemo()
	fresh, sf := sealedMemoLCF(t)

	ddr := mem.NewDDR("ddr", memoDDR, 0x10000)
	ddr.Store().WriteWord(memoCipher+8, 0xB007_0008)
	cm := MustConfig(Policy{SPI: 2, Zone: Zone{memoCipher, memoZone}, RWA: ReadWrite, ADF: AnyWidth, CM: true, Key: memoKeyB})
	pre, err := NewCipherFirewall(LCFConfig{}, ddr, ddr.Store(), cm, NewAlertLog())
	if err != nil {
		t.Fatal(err)
	}
	pre.Seal()
	if n := sealMemoLen(); n != 3 {
		t.Fatalf("memo holds %d zones, want 3 (the preloaded image must miss)", n)
	}
	if got := pre.PeekPlaintext(memoCipher+8, 4); !bytes.Equal(got, []byte{0x08, 0x00, 0x07, 0xB0}) {
		t.Fatalf("preloaded image reads back %x", got)
	}
	if bytes.Equal(ddr.Store().Peek(memoCipher, memoZone), sf.Peek(memoCipher, memoZone)) {
		t.Fatal("preloaded image sealed to the fresh platform's ciphertext")
	}

	again, sa := sealedMemoLCF(t)
	sameSealed(t, "fresh after preload", fresh, sf, again, sa)
}

// TestSealMemoConcurrentFirstSeals: seals racing on an empty memo all
// leave the same external memory, and the memo keeps one entry per zone.
// Run under -race (make race).
func TestSealMemoConcurrentFirstSeals(t *testing.T) {
	clearSealMemo()
	const n = 8
	fws := make([]*CipherFirewall, n)
	stores := make([]*mem.Store, n)
	for i := range fws {
		fws[i], stores[i] = unsealedMemoLCF(t)
	}
	var wg sync.WaitGroup
	for _, f := range fws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Seal()
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		sameSealed(t, fmt.Sprintf("sealer %d", i), fws[0], stores[0], fws[i], stores[i])
	}
	if n := sealMemoLen(); n != 2 {
		t.Fatalf("memo holds %d zones for two inputs, want 2", n)
	}
}

// TestSealMemoBounded: the memo keeps at most sealMemoSize zones, evicting
// the oldest.
func TestSealMemoBounded(t *testing.T) {
	clearSealMemo()
	for i := 0; i <= sealMemoSize; i++ {
		ddr := mem.NewDDR("ddr", memoDDR, 0x10000)
		key := memoKeyB
		key[15] = byte(i)
		cm := MustConfig(Policy{SPI: 2, Zone: Zone{memoCipher, memoZone}, RWA: ReadWrite, ADF: AnyWidth, CM: true, Key: key})
		f, err := NewCipherFirewall(LCFConfig{}, ddr, ddr.Store(), cm, NewAlertLog())
		if err != nil {
			t.Fatal(err)
		}
		f.Seal()
	}
	if n := sealMemoLen(); n != sealMemoSize {
		t.Fatalf("memo holds %d zones, want %d", n, sealMemoSize)
	}
	sealMemo.mu.Lock()
	oldest := sealMemo.entries[0].key[15]
	sealMemo.mu.Unlock()
	if oldest != 1 {
		t.Fatalf("oldest remembered key has tag %d, want 1 (tag 0 evicted first)", oldest)
	}
}
