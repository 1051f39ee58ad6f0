package core

import (
	"fmt"

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

// AlertLog collects alerts from every firewall in a platform. The
// simulation is single-threaded, so no locking is needed.
type AlertLog struct {
	chunks []*[alertChunk]Alert // alert i is chunks[i/alertChunk][i%alertChunk]
	n      int
	subs   []func(Alert)
}

// NewAlertLog returns an empty log.
func NewAlertLog() *AlertLog { return &AlertLog{} }

// at returns the i-th alert in detection order.
func (l *AlertLog) at(i int) *Alert { return &l.chunks[i/alertChunk][i%alertChunk] }

// Record appends an alert and notifies subscribers (reaction logic such as
// the quarantine Reactor).
func (l *AlertLog) Record(a Alert) {
	if l.n == len(l.chunks)*alertChunk {
		l.chunks = append(l.chunks, new([alertChunk]Alert))
	}
	*l.at(l.n) = a
	l.n++
	for _, fn := range l.subs {
		fn(a)
	}
}

// Subscribe registers fn to run on every future alert, in subscription
// order, synchronously at detection time.
func (l *AlertLog) Subscribe(fn func(Alert)) {
	if fn == nil {
		panic("core: Subscribe(nil)")
	}
	l.subs = append(l.subs, fn)
}

// All returns the alerts in detection order.
func (l *AlertLog) All() []Alert {
	if l.n == 0 {
		return nil
	}
	out := make([]Alert, 0, l.n)
	for _, c := range l.chunks {
		out = append(out, c[:min(alertChunk, l.n-len(out))]...)
		if len(out) == l.n {
			break
		}
	}
	return out
}

// Len returns the number of alerts.
func (l *AlertLog) Len() int { return l.n }

// Reset clears the log. Its blocks are kept for the alerts that follow.
func (l *AlertLog) Reset() { l.n = 0 }

// CountByViolation aggregates alert counts per violation class.
func (l *AlertLog) CountByViolation() map[Violation]int {
	m := make(map[Violation]int)
	for i := 0; i < l.n; i++ {
		m[l.at(i).Violation]++
	}
	return m
}

// CountByFirewall aggregates alert counts per raising interface.
func (l *AlertLog) CountByFirewall() map[string]int {
	m := make(map[string]int)
	for i := 0; i < l.n; i++ {
		m[l.at(i).FirewallID]++
	}
	return m
}

// First returns the earliest alert matching the filter (nil filter = any),
// or nil. The alert stays in place as later alerts are recorded, until a
// Reset.
func (l *AlertLog) First(match func(Alert) bool) *Alert {
	for i := 0; i < l.n; i++ {
		if a := l.at(i); match == nil || match(*a) {
			return a
		}
	}
	return nil
}

// Since reports how many alerts were detected at or after the given cycle
// and the earliest of them in detection order (nil when there are none),
// copying none.
func (l *AlertLog) Since(cycle uint64) (n int, first *Alert) {
	for i := 0; i < l.n; i++ {
		if a := l.at(i); a.Cycle >= cycle {
			if first == nil {
				first = a
			}
			n++
		}
	}
	return n, first
}
