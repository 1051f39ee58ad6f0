package core

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestRWASemantics(t *testing.T) {
	cases := []struct {
		r     RWA
		read  bool
		write bool
	}{
		{Deny, false, false},
		{ReadOnly, true, false},
		{WriteOnly, false, true},
		{ReadWrite, true, true},
	}
	for _, c := range cases {
		if c.r.AllowsRead() != c.read || c.r.AllowsWrite() != c.write {
			t.Errorf("%v: read=%v write=%v", c.r, c.r.AllowsRead(), c.r.AllowsWrite())
		}
	}
}

func TestWidthMask(t *testing.T) {
	if !AnyWidth.Allows(1) || !AnyWidth.Allows(2) || !AnyWidth.Allows(4) {
		t.Fatal("AnyWidth rejects a legal width")
	}
	m := W32
	if m.Allows(1) || m.Allows(2) || !m.Allows(4) {
		t.Fatal("W32 semantics wrong")
	}
	if m.Allows(3) || m.Allows(8) {
		t.Fatal("invalid sizes accepted")
	}
	if (W8|W16).String() != "8/16b" || WidthMask(0).String() != "none" {
		t.Fatalf("String: %q %q", (W8 | W16).String(), WidthMask(0).String())
	}
}

func TestZoneContainsAndOverlaps(t *testing.T) {
	z := Zone{Base: 0x1000, Size: 0x100}
	if !z.Contains(0x1000, 4) || !z.Contains(0x10FC, 4) {
		t.Fatal("Contains rejects in-range access")
	}
	if z.Contains(0xFFC, 4) || z.Contains(0x10FE, 4) {
		t.Fatal("Contains accepts out-of-range access")
	}
	if !z.Overlaps(Zone{Base: 0x10FF, Size: 1}) || z.Overlaps(Zone{Base: 0x1100, Size: 1}) {
		t.Fatal("Overlaps boundary wrong")
	}
}

func TestConfigMemoryZoneViolation(t *testing.T) {
	cm := MustConfig(Policy{SPI: 1, Zone: Zone{0x1000, 0x100}, RWA: ReadWrite, ADF: AnyWidth})
	if _, v := cm.Check("cpu0", false, 0x2000, 4, 1); v != VZone {
		t.Fatalf("unmapped address: %v, want zone", v)
	}
	// Access straddling the zone boundary is a zone violation too.
	if _, v := cm.Check("cpu0", false, 0x10FC, 4, 2); v != VZone {
		t.Fatalf("straddling burst: %v, want zone", v)
	}
}

func TestConfigMemoryRWAViolations(t *testing.T) {
	cm := MustConfig(
		Policy{SPI: 1, Zone: Zone{0x1000, 0x100}, RWA: ReadOnly, ADF: AnyWidth},
		Policy{SPI: 2, Zone: Zone{0x2000, 0x100}, RWA: WriteOnly, ADF: AnyWidth},
	)
	if p, v := cm.Check("cpu0", true, 0x1000, 4, 1); v != VAccess || p.SPI != 1 {
		t.Fatalf("write to RO: %v SPI %d", v, p.SPI)
	}
	if _, v := cm.Check("cpu0", false, 0x1000, 4, 1); v != VNone {
		t.Fatalf("read from RO: %v", v)
	}
	if _, v := cm.Check("cpu0", false, 0x2000, 4, 1); v != VAccess {
		t.Fatalf("read from WO: %v", v)
	}
	if _, v := cm.Check("cpu0", true, 0x2000, 4, 1); v != VNone {
		t.Fatalf("write to WO: %v", v)
	}
}

func TestConfigMemoryADF(t *testing.T) {
	cm := MustConfig(Policy{SPI: 3, Zone: Zone{0, 0x100}, RWA: ReadWrite, ADF: W32})
	if _, v := cm.Check("x", true, 0x10, 1, 1); v != VFormat {
		t.Fatalf("byte into W32 zone: %v, want format", v)
	}
	if _, v := cm.Check("x", true, 0x10, 2, 1); v != VFormat {
		t.Fatalf("half into W32 zone: %v, want format", v)
	}
	if _, v := cm.Check("x", true, 0x10, 4, 1); v != VNone {
		t.Fatalf("word into W32 zone: %v", v)
	}
}

func TestConfigMemoryOrigins(t *testing.T) {
	cm := MustConfig(Policy{
		SPI: 4, Zone: Zone{0, 0x100}, RWA: ReadWrite, ADF: AnyWidth,
		Origins: []string{"cpu0", "dma"},
	})
	if _, v := cm.Check("cpu0", true, 0, 4, 1); v != VNone {
		t.Fatalf("allowed origin rejected: %v", v)
	}
	if _, v := cm.Check("cpu1", true, 0, 4, 1); v != VOrigin {
		t.Fatalf("foreign origin: %v, want origin", v)
	}
}

func TestConfigMemoryMostSpecificWins(t *testing.T) {
	cm := MustConfig(
		Policy{SPI: 10, Zone: Zone{0x0000, 0x1000}, RWA: ReadWrite, ADF: AnyWidth},
		Policy{SPI: 11, Zone: Zone{0x0800, 0x100}, RWA: ReadOnly, ADF: AnyWidth},
	)
	// Inside the small RO window, the specific rule wins.
	if p, v := cm.Check("x", true, 0x0810, 4, 1); v != VAccess || p.SPI != 11 {
		t.Fatalf("specific rule not applied: %v SPI %d", v, p.SPI)
	}
	// Outside it the broad rule allows writes.
	if _, v := cm.Check("x", true, 0x0700, 4, 1); v != VNone {
		t.Fatalf("broad rule: %v", v)
	}
}

func TestConfigMemoryOriginFallthrough(t *testing.T) {
	// A specific rule for dma only, plus a broad rule for everyone:
	// non-dma masters fall through to the broad rule.
	cm := MustConfig(
		Policy{SPI: 20, Zone: Zone{0x100, 0x10}, RWA: ReadWrite, ADF: AnyWidth, Origins: []string{"dma"}},
		Policy{SPI: 21, Zone: Zone{0x000, 0x1000}, RWA: ReadOnly, ADF: AnyWidth},
	)
	if p, v := cm.Check("dma", true, 0x100, 4, 1); v != VNone || p.SPI != 20 {
		t.Fatalf("dma: %v SPI %d", v, p.SPI)
	}
	if p, v := cm.Check("cpu0", false, 0x100, 4, 1); v != VNone || p.SPI != 21 {
		t.Fatalf("cpu0 read: %v SPI %d", v, p.SPI)
	}
	if _, v := cm.Check("cpu0", true, 0x100, 4, 1); v != VAccess {
		t.Fatalf("cpu0 write: %v, want access", v)
	}
}

func TestAddRemoveRules(t *testing.T) {
	cm := MustConfig()
	if cm.RuleCount() != 0 {
		t.Fatal("fresh config not empty")
	}
	if _, v := cm.Check("x", false, 0, 4, 1); v != VZone {
		t.Fatal("empty config must deny")
	}
	if err := cm.Add(Policy{SPI: 1, Zone: Zone{0, 0x100}, RWA: ReadWrite, ADF: AnyWidth}); err != nil {
		t.Fatal(err)
	}
	if _, v := cm.Check("x", false, 0, 4, 1); v != VNone {
		t.Fatal("added rule not effective")
	}
	if n := cm.Remove(1); n != 1 {
		t.Fatalf("Remove = %d, want 1", n)
	}
	if _, v := cm.Check("x", false, 0, 4, 1); v != VZone {
		t.Fatal("removed rule still effective")
	}
}

// Property: NewConfigMemory's one stable sort of the whole rule list gives
// the match order of adding the rules one at a time, where each Add
// re-sorts — smallest zone first, insertion order among equal sizes.
func TestConfigMemoryOneSortEqualsAdds(t *testing.T) {
	prop := func(sizes []uint8) bool {
		rules := make([]Policy, len(sizes))
		for i, sz := range sizes {
			rules[i] = Policy{SPI: uint32(i), Zone: Zone{uint32(i) * 0x100, 1 + uint32(sz%5)}, RWA: RWA(i % 4)}
		}
		built := MustConfig(rules...)
		added := MustConfig()
		for _, r := range rules {
			if err := added.Add(r); err != nil {
				return false
			}
		}
		got := built.Policies()
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.Zone.Size > b.Zone.Size || a.Zone.Size == b.Zone.Size && a.SPI > b.SPI {
				return false
			}
		}
		return reflect.DeepEqual(got, added.Policies())
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyZoneRejected(t *testing.T) {
	if _, err := NewConfigMemory(Policy{SPI: 1}); err == nil {
		t.Fatal("empty zone accepted")
	}
}

// Property: granting a wider RWA never turns an allowed access into a
// violation (monotonicity of rights).
func TestPolicyMonotonicityProperty(t *testing.T) {
	prop := func(addrRaw uint16, sizeRaw, burstRaw uint8, isWrite bool) bool {
		size := []int{1, 2, 4}[sizeRaw%3]
		burst := int(burstRaw%4) + 1
		addr := uint32(addrRaw) &^ uint32(size-1)
		weak := MustConfig(Policy{SPI: 1, Zone: Zone{0, 0x20000}, RWA: ReadOnly, ADF: AnyWidth})
		strong := MustConfig(Policy{SPI: 1, Zone: Zone{0, 0x20000}, RWA: ReadWrite, ADF: AnyWidth})
		_, vw := weak.Check("m", isWrite, addr, size, burst)
		_, vs := strong.Check("m", isWrite, addr, size, burst)
		if vw == VNone && vs != VNone {
			return false // widening rights revoked an access
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: a zone rule never authorizes an access outside its zone.
func TestNoAuthorityOutsideZoneProperty(t *testing.T) {
	cm := MustConfig(Policy{SPI: 1, Zone: Zone{0x4000, 0x1000}, RWA: ReadWrite, ADF: AnyWidth})
	prop := func(addr uint32, sizeRaw uint8) bool {
		size := []int{1, 2, 4}[sizeRaw%3]
		addr &^= uint32(size - 1)
		_, v := cm.Check("m", false, addr, size, 1)
		inside := addr >= 0x4000 && uint64(addr)+uint64(size) <= 0x5000
		if inside {
			return v == VNone
		}
		return v != VNone
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestViolationStrings(t *testing.T) {
	for v, want := range map[Violation]string{
		VNone: "none", VZone: "zone", VAccess: "access", VFormat: "format",
		VOrigin: "origin", VIntegrity: "integrity", VReplay: "replay",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), want)
		}
	}
}
