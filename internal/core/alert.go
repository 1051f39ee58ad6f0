package core

import (
	"fmt"
	"math"

	"repro/internal/bus"
)

// accessOf lifts a bus transaction into a policy-evaluation Access.
func accessOf(tx *bus.Transaction) Access {
	return Access{
		Master: tx.Master,
		Thread: tx.Thread,
		Write:  tx.Op == bus.Write,
		Addr:   tx.Addr,
		Size:   tx.Size,
		Burst:  tx.Burst,
	}
}

// Alert is the structured form of the firewall_id / alert_signals /
// check_results wiring of Figure 1: one record per discarded transfer.
type Alert struct {
	// Cycle is when the violation was detected.
	Cycle uint64
	// FirewallID names the interface that raised the alert.
	FirewallID string
	// Master is the IP whose transfer was discarded.
	Master string
	// Thread is the software context the transfer carried.
	Thread uint32
	// SPI identifies the matched policy (0 when no rule matched).
	SPI uint32
	// Violation classifies the check that failed.
	Violation Violation
	// Op, Addr, Size describe the offending transfer.
	Op   bus.Op
	Addr uint32
	Size int
	// Detail carries module-specific context (e.g. the Integrity Core's
	// classification of a mismatch).
	Detail string
}

// String implements fmt.Stringer.
func (a Alert) String() string {
	s := fmt.Sprintf("cycle %d: %s blocked %s %s @%#x/%dB (%s",
		a.Cycle, a.FirewallID, a.Master, a.Op, a.Addr, a.Size, a.Violation)
	if a.Detail != "" {
		s += ": " + a.Detail
	}
	return s + ")"
}

// alertChunk is the capacity of one block of an AlertLog. An attacked run
// logs thousands of alerts; in fixed blocks that never move, an alert is
// stored once and never copied again as the log grows.
const alertChunk = 256

// alertEntry is one stored alert: 32 bytes and no pointers, so the blocks
// of a flood's log hold no work for the garbage collector. The three
// strings of an Alert are indices into the log's name table, and Size,
// a bus width, fits 32 bits.
type alertEntry struct {
	cycle                    uint64
	thread, spi, addr        uint32
	size                     int32
	firewall, master, detail uint16 // name-table indices of FirewallID, Master, Detail
	violation                Violation
	op                       bus.Op
}

// AlertLog collects alerts from every firewall in a platform. The
// simulation is single-threaded, so no locking is needed.
//
// Each alert is stored as a fixed 32-byte entry without pointers, in
// blocks of alertChunk entries: Cycle, Thread, SPI, Addr and Size, the
// Violation and Op bytes, and FirewallID, Master and Detail as 16-bit
// indices into a name table the log owns. The table is exact — equal
// strings get equal indices and every distinct string keeps its own — and
// small: a platform raises alerts under a few dozen names, its firewall
// ids, its master names and the Integrity Core's diagnoses.
type AlertLog struct {
	chunks []*[alertChunk]alertEntry // alert i is chunks[i/alertChunk][i%alertChunk]
	n      int

	// names[i-1] is the string of index i; index 0 is "". index finds a
	// string's index, and last caches each field's latest one, which a
	// flood repeats alert after alert.
	names []string
	index map[string]uint16
	last  [3]uint16

	subs []func(*Alert)
	cur  Alert // the alert subscribers are being handed
}

// NewAlertLog returns an empty log.
func NewAlertLog() *AlertLog { return &AlertLog{} }

// at returns the i-th entry in detection order.
func (l *AlertLog) at(i int) *alertEntry { return &l.chunks[i/alertChunk][i%alertChunk] }

// intern returns the name-table index of s, adding s on first sight;
// field selects the one-entry cache it consults first.
func (l *AlertLog) intern(s string, field int) uint16 {
	if s == "" {
		return 0
	}
	if i := l.last[field]; i != 0 && l.names[i-1] == s {
		return i
	}
	i, ok := l.index[s]
	if !ok {
		if len(l.names) == math.MaxUint16 {
			panic("core: more than 65535 distinct alert names")
		}
		if l.index == nil {
			l.index = make(map[string]uint16)
		}
		l.names = append(l.names, s)
		i = uint16(len(l.names))
		l.index[s] = i
	}
	l.last[field] = i
	return i
}

// name returns the string of name-table index i.
func (l *AlertLog) name(i uint16) string {
	if i == 0 {
		return ""
	}
	return l.names[i-1]
}

// alert expands entry e.
func (l *AlertLog) alert(e *alertEntry) Alert {
	return Alert{
		Cycle:      e.cycle,
		FirewallID: l.name(e.firewall),
		Master:     l.name(e.master),
		Thread:     e.thread,
		SPI:        e.spi,
		Violation:  e.violation,
		Op:         e.op,
		Addr:       e.addr,
		Size:       int(e.size),
		Detail:     l.name(e.detail),
	}
}

// Record appends an alert and notifies subscribers (reaction logic such as
// the quarantine Reactor). A subscriber must not record into the log that
// is notifying it.
func (l *AlertLog) Record(a Alert) {
	if int(int32(a.Size)) != a.Size {
		panic(fmt.Sprintf("core: alert size %d out of range", a.Size))
	}
	if l.n == len(l.chunks)*alertChunk {
		l.chunks = append(l.chunks, new([alertChunk]alertEntry))
	}
	*l.at(l.n) = alertEntry{
		cycle:     a.Cycle,
		thread:    a.Thread,
		spi:       a.SPI,
		addr:      a.Addr,
		size:      int32(a.Size),
		firewall:  l.intern(a.FirewallID, 0),
		master:    l.intern(a.Master, 1),
		detail:    l.intern(a.Detail, 2),
		violation: a.Violation,
		op:        a.Op,
	}
	l.n++
	if len(l.subs) == 0 {
		return
	}
	l.cur = a
	for _, fn := range l.subs {
		fn(&l.cur)
	}
}

// Subscribe registers fn to run on every future alert, in subscription
// order, synchronously at detection time. fn gets a pointer to the alert
// that is valid only for the duration of the call: the log reuses it for
// the next alert, so a subscriber that keeps an alert copies *a.
func (l *AlertLog) Subscribe(fn func(a *Alert)) {
	if fn == nil {
		panic("core: Subscribe(nil)")
	}
	l.subs = append(l.subs, fn)
}

// All returns copies of the alerts in detection order.
func (l *AlertLog) All() []Alert {
	if l.n == 0 {
		return nil
	}
	out := make([]Alert, l.n)
	for i := range out {
		out[i] = l.alert(l.at(i))
	}
	return out
}

// Len returns the number of alerts.
func (l *AlertLog) Len() int { return l.n }

// Reset clears the log. Its blocks and name table are kept for the alerts
// that follow.
func (l *AlertLog) Reset() { l.n = 0 }

// CountByViolation aggregates alert counts per violation class.
func (l *AlertLog) CountByViolation() map[Violation]int {
	m := make(map[Violation]int)
	for i := 0; i < l.n; i++ {
		m[l.at(i).violation]++
	}
	return m
}

// CountByFirewall aggregates alert counts per raising interface.
func (l *AlertLog) CountByFirewall() map[string]int {
	m := make(map[string]int)
	for i := 0; i < l.n; i++ {
		m[l.name(l.at(i).firewall)]++
	}
	return m
}

// First returns a copy of the earliest alert matching the filter (nil
// filter = any), or nil.
func (l *AlertLog) First(match func(Alert) bool) *Alert {
	for i := 0; i < l.n; i++ {
		if a := l.alert(l.at(i)); match == nil || match(a) {
			return &a
		}
	}
	return nil
}

// Since reports how many alerts were detected at or after the given cycle
// and a copy of the earliest of them in detection order (nil when there
// are none).
func (l *AlertLog) Since(cycle uint64) (n int, first *Alert) {
	for i := 0; i < l.n; i++ {
		if e := l.at(i); e.cycle >= cycle {
			if first == nil {
				a := l.alert(e)
				first = &a
			}
			n++
		}
	}
	return n, first
}
