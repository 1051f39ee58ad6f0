// Package core implements the paper's contribution: distributed security
// enhancements for a bus-based MPSoC.
//
// Two kinds of interfaces exist, exactly as in Figure 1 of the paper:
//
//   - Local Firewall (LF): sits between an IP and the system bus. The
//     master-side form (LocalFirewall) wraps the IP's bus connection and
//     checks every outgoing transfer before it can reach the bus; the
//     slave-side form (SlaveFirewall) guards a bus target (shared memory,
//     dedicated IP registers) and checks every incoming transfer before it
//     can reach the IP. A violating transfer is discarded at the interface
//     and an alert is raised — it never propagates.
//
//   - Local Ciphering Firewall (LCF): guards the external memory. On top
//     of the LF rule check it provides confidentiality (AES-128, the
//     Confidentiality Core) and integrity/anti-replay/anti-relocation (hash
//     tree with on-chip root and version tags, the Integrity Core).
//
// Security Policies (SPs) live in on-chip Configuration Memories — trusted
// storage, not ciphered, per §IV-B of the paper.
package core

import (
	"cmp"
	"fmt"
	"slices"
)

// RWA is the Read/Write Access rule of a security policy (§IV-A).
type RWA uint8

// Access rules.
const (
	// Deny permits nothing (useful as an explicit tombstone rule).
	Deny RWA = iota
	// ReadOnly permits loads only.
	ReadOnly
	// WriteOnly permits stores only.
	WriteOnly
	// ReadWrite permits both directions.
	ReadWrite
)

// String implements fmt.Stringer.
func (r RWA) String() string {
	switch r {
	case Deny:
		return "deny"
	case ReadOnly:
		return "ro"
	case WriteOnly:
		return "wo"
	case ReadWrite:
		return "rw"
	default:
		return fmt.Sprintf("rwa(%d)", uint8(r))
	}
}

// AllowsRead reports whether loads are permitted.
func (r RWA) AllowsRead() bool { return r == ReadOnly || r == ReadWrite }

// AllowsWrite reports whether stores are permitted.
func (r RWA) AllowsWrite() bool { return r == WriteOnly || r == ReadWrite }

// WidthMask is the Allowed Data Format (ADF) of a policy: the set of
// access widths an IP may use in a zone (§IV-A: "8 up to 32 bits").
type WidthMask uint8

// Width bits.
const (
	W8  WidthMask = 1 << iota // byte accesses
	W16                       // halfword accesses
	W32                       // word accesses

	// AnyWidth permits all formats.
	AnyWidth = W8 | W16 | W32
)

// Allows reports whether an access of size bytes (1, 2, 4) is permitted.
func (m WidthMask) Allows(size int) bool {
	switch size {
	case 1:
		return m&W8 != 0
	case 2:
		return m&W16 != 0
	case 4:
		return m&W32 != 0
	default:
		return false
	}
}

// String implements fmt.Stringer.
func (m WidthMask) String() string {
	s := ""
	if m&W8 != 0 {
		s += "8"
	}
	if m&W16 != 0 {
		if s != "" {
			s += "/"
		}
		s += "16"
	}
	if m&W32 != 0 {
		if s != "" {
			s += "/"
		}
		s += "32"
	}
	if s == "" {
		return "none"
	}
	return s + "b"
}

// Zone is an address range [Base, Base+Size).
type Zone struct {
	Base uint32
	Size uint32
}

// Contains reports whether [addr, addr+n) is inside the zone.
func (z Zone) Contains(addr uint32, n uint32) bool {
	return addr >= z.Base && uint64(addr)+uint64(n) <= uint64(z.Base)+uint64(z.Size)
}

// Overlaps reports whether two zones intersect.
func (z Zone) Overlaps(o Zone) bool {
	return uint64(z.Base) < uint64(o.Base)+uint64(o.Size) &&
		uint64(o.Base) < uint64(z.Base)+uint64(z.Size)
}

// String implements fmt.Stringer.
func (z Zone) String() string {
	return fmt.Sprintf("[%#x,+%#x)", z.Base, z.Size)
}

// Policy is one security-policy entry (one rule) in a Configuration
// Memory. It carries every parameter from §IV-A of the paper; CM/IM/Key
// are meaningful only in the Local Ciphering Firewall.
type Policy struct {
	// SPI is the security-policy identifier.
	SPI uint32
	// Zone is the address range the rule covers.
	Zone Zone
	// RWA is the read/write access rule.
	RWA RWA
	// ADF is the allowed data format (access widths).
	ADF WidthMask
	// Origins restricts which masters the rule applies to (slave-side
	// firewalls). Empty means any master.
	Origins []string
	// Threads restricts which software contexts the rule applies to —
	// the paper's future-work "thread-specific security where each
	// thread has its own security level". Empty means any thread.
	Threads []uint32
	// CM enables the Confidentiality Core for the zone (LCF only).
	CM bool
	// IM enables the Integrity Core for the zone (LCF only).
	IM bool
	// Key is the AES-128 cryptographic key (CK) for the zone (LCF only,
	// used when CM is set).
	Key [16]byte
}

// appliesTo reports whether the rule covers this master.
func (p *Policy) appliesTo(master string) bool {
	if len(p.Origins) == 0 {
		return true
	}
	for _, o := range p.Origins {
		if o == master {
			return true
		}
	}
	return false
}

// appliesToThread reports whether the rule covers this software context.
func (p *Policy) appliesToThread(thread uint32) bool {
	if len(p.Threads) == 0 {
		return true
	}
	for _, t := range p.Threads {
		if t == thread {
			return true
		}
	}
	return false
}

// Violation classifies why a transfer was discarded. The zero value means
// the transfer is allowed.
type Violation uint8

// Violation kinds, mirroring the check modules inside the Security
// Builder.
const (
	// VNone: no violation.
	VNone Violation = iota
	// VZone: no policy covers the address range (unauthorized zone).
	VZone
	// VAccess: direction forbidden by the RWA rule.
	VAccess
	// VFormat: access width forbidden by the ADF rule.
	VFormat
	// VOrigin: the requesting master is not permitted by any covering
	// rule.
	VOrigin
	// VThread: rules cover the zone for this master, but none admits the
	// requesting software context.
	VThread
	// VIntegrity: the Integrity Core found external memory inauthentic
	// (spoofing, relocation or tampering).
	VIntegrity
	// VReplay: the Integrity Core attributed the mismatch to stale-but-
	// consistent state (replay of an old memory image).
	VReplay
)

// String implements fmt.Stringer.
func (v Violation) String() string {
	switch v {
	case VNone:
		return "none"
	case VZone:
		return "zone"
	case VAccess:
		return "access"
	case VFormat:
		return "format"
	case VOrigin:
		return "origin"
	case VThread:
		return "thread"
	case VIntegrity:
		return "integrity"
	case VReplay:
		return "replay"
	default:
		return fmt.Sprintf("violation(%d)", uint8(v))
	}
}

// ConfigMemory is the on-chip table of security policies of one firewall
// (§IV-B: "stored in on-chip memories ... trusted units"). Policies are
// matched most-specific-zone-first; everything not explicitly allowed is
// denied.
type ConfigMemory struct {
	policies []Policy
}

// NewConfigMemory builds a configuration memory from rules. It rejects
// rules with zero-size zones. The match order is the one Add would build
// rule by rule: one stable sort of the whole list orders equal zone sizes
// by insertion, as successive stable insertions do.
func NewConfigMemory(rules ...Policy) (*ConfigMemory, error) {
	for _, r := range rules {
		if err := checkRule(r); err != nil {
			return nil, err
		}
	}
	cm := &ConfigMemory{policies: slices.Clone(rules)}
	cm.sort()
	return cm, nil
}

// MustConfig is NewConfigMemory for statically known-good rule sets.
func MustConfig(rules ...Policy) *ConfigMemory {
	cm, err := NewConfigMemory(rules...)
	if err != nil {
		panic(err)
	}
	return cm
}

// Add appends a rule (reconfiguration of security services — the paper's
// stated perspective — amounts to Add/Remove at run time).
func (cm *ConfigMemory) Add(r Policy) error {
	if err := checkRule(r); err != nil {
		return err
	}
	cm.policies = append(cm.policies, r)
	cm.sort()
	return nil
}

// checkRule rejects a rule no configuration memory may hold.
func checkRule(r Policy) error {
	if r.Zone.Size == 0 {
		return fmt.Errorf("core: policy SPI %d has empty zone", r.SPI)
	}
	return nil
}

// sort puts the most-specific (smallest) zone first so overlapping rules
// behave predictably; stable to keep insertion order among equals.
func (cm *ConfigMemory) sort() {
	slices.SortStableFunc(cm.policies, func(a, b Policy) int {
		return cmp.Compare(a.Zone.Size, b.Zone.Size)
	})
}

// Remove deletes all rules with the given SPI and reports how many were
// removed.
func (cm *ConfigMemory) Remove(spi uint32) int {
	kept := cm.policies[:0]
	removed := 0
	for _, p := range cm.policies {
		if p.SPI == spi {
			removed++
			continue
		}
		kept = append(kept, p)
	}
	cm.policies = kept
	return removed
}

// SetKey replaces the cryptographic key of every rule with the given SPI
// and reports how many rules were updated (LCF key rotation).
func (cm *ConfigMemory) SetKey(spi uint32, key [16]byte) int {
	n := 0
	for i := range cm.policies {
		if cm.policies[i].SPI == spi {
			cm.policies[i].Key = key
			n++
		}
	}
	return n
}

// RuleCount returns the number of rules (drives the area model: the paper
// notes firewall cost scales with the number of monitored rules).
func (cm *ConfigMemory) RuleCount() int { return len(cm.policies) }

// Policies returns a copy of the rule set in match order.
func (cm *ConfigMemory) Policies() []Policy {
	return append([]Policy(nil), cm.policies...)
}

// Access describes one transfer for policy evaluation.
type Access struct {
	// Master is the issuing IP; Thread the software context tag.
	Master string
	Thread uint32
	// Write is the direction; Addr/Size/Burst the shape.
	Write bool
	Addr  uint32
	Size  int
	Burst int
}

// Check evaluates a transfer of `burst` beats of `size` bytes at addr by
// `master` with direction given by isWrite, under the default (zero)
// thread context. See CheckAccess.
func (cm *ConfigMemory) Check(master string, isWrite bool, addr uint32, size int, burst int) (Policy, Violation) {
	return cm.CheckAccess(Access{Master: master, Write: isWrite, Addr: addr, Size: size, Burst: burst})
}

// CheckAccess evaluates a transfer. It returns the matched policy (valid
// when the violation is VNone, VAccess or VFormat) and the violation
// class.
//
// Matching: the most specific rule whose zone covers the whole transfer
// and whose origin list admits the master decides. If rules cover the
// zone but none admits this master, the violation is VOrigin; if nothing
// covers the range at all, VZone.
//
// Origins and Threads compose differently, deliberately. An origin
// mismatch *falls through* to broader rules: origin lists route per-IP
// rules inside merged tables (slave-side firewalls, the centralized SEM),
// so a rule for the DMA simply does not apply to a CPU. A thread mismatch
// *fails closed* with VThread: a thread restriction is a security level
// on a zone, and falling through to a broader allow rule would silently
// defeat it.
func (cm *ConfigMemory) CheckAccess(a Access) (Policy, Violation) {
	n := uint32(a.Size) * uint32(a.Burst)
	zoneCovered := false
	for i := range cm.policies {
		p := &cm.policies[i]
		if !p.Zone.Contains(a.Addr, n) {
			continue
		}
		zoneCovered = true
		if !p.appliesTo(a.Master) {
			continue
		}
		if !p.appliesToThread(a.Thread) {
			return *p, VThread
		}
		if a.Write && !p.RWA.AllowsWrite() {
			return *p, VAccess
		}
		if !a.Write && !p.RWA.AllowsRead() {
			return *p, VAccess
		}
		if !p.ADF.Allows(a.Size) {
			return *p, VFormat
		}
		return *p, VNone
	}
	if zoneCovered {
		return Policy{}, VOrigin
	}
	return Policy{}, VZone
}
