package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/bus"
)

// chunkedLog records n alerts whose cycles rise by 3 (with a step back
// every 100th, so detection order and cycle order differ) and whose
// FirewallID numbers them.
func chunkedLog(n int) *AlertLog {
	l := NewAlertLog()
	for i := 0; i < n; i++ {
		c := uint64(10 + 3*i)
		if i%100 == 99 {
			c -= 250
		}
		l.Record(Alert{Cycle: c, SPI: uint32(i), FirewallID: "lf"})
	}
	return l
}

// TestAlertLogSinceMatchesFilter: on a log of several chunks, Since agrees
// with a filter over All() — the count and the first match in detection
// order — for cycles before, inside and after the log.
func TestAlertLogSinceMatchesFilter(t *testing.T) {
	l := chunkedLog(3*alertChunk + alertChunk/2)
	all := l.All()
	last := all[len(all)-1].Cycle
	for _, cycle := range []uint64{0, 10, 11, 400, 3*alertChunk*3 + 10, 3*alertChunk*3 + 11, last, last + 1, 1 << 40} {
		want, wantFirst := 0, -1
		for i, a := range all {
			if a.Cycle >= cycle {
				if wantFirst < 0 {
					wantFirst = i
				}
				want++
			}
		}
		n, first := l.Since(cycle)
		if n != want {
			t.Fatalf("Since(%d) counts %d alerts, filter %d", cycle, n, want)
		}
		if (first == nil) != (wantFirst < 0) || first != nil && *first != all[wantFirst] {
			t.Fatalf("Since(%d) first = %+v, filter's is alert %d", cycle, first, wantFirst)
		}
	}
}

// TestAlertLogAllKeepsOrderAcrossChunks: All returns every alert in
// detection order across chunk boundaries, also after a Reset reuses the
// chunks.
func TestAlertLogAllKeepsOrderAcrossChunks(t *testing.T) {
	l := chunkedLog(2*alertChunk + 1)
	for round := 0; round < 2; round++ {
		all := l.All()
		if len(all) != l.Len() || len(all) != 2*alertChunk+1 {
			t.Fatalf("round %d: All has %d alerts, Len %d", round, len(all), l.Len())
		}
		for i, a := range all {
			if a.SPI != uint32(i) {
				t.Fatalf("round %d: alert %d is the %d-th recorded", round, i, a.SPI)
			}
		}
		l.Reset()
		if l.Len() != 0 || l.All() != nil {
			t.Fatal("Reset left alerts behind")
		}
		for i := 0; i < 2*alertChunk+1; i++ {
			l.Record(Alert{SPI: uint32(i)})
		}
	}
}

// TestAlertLogFirstStaysValid: First returns a copy of the alert, which
// keeps that alert's value as the log grows by many chunks and after a
// Reset reuses them, and a write to which does not reach the log.
func TestAlertLogFirstStaysValid(t *testing.T) {
	l := NewAlertLog()
	l.Record(Alert{Cycle: 7, FirewallID: "lf-cpu0", Violation: VZone})
	a := l.First(nil)
	for i := 0; i < 5*alertChunk; i++ {
		l.Record(Alert{Cycle: uint64(8 + i), FirewallID: "lf-cpu1"})
	}
	if *a != *l.First(nil) || a.Cycle != 7 || a.FirewallID != "lf-cpu0" || a.Violation != VZone {
		t.Fatalf("First's alert changed as the log grew: %+v", a)
	}
	a.Cycle = 99
	if l.First(nil).Cycle != 7 {
		t.Fatal("a write to First's copy reached the log")
	}
	l.Reset()
	l.Record(Alert{Cycle: 1, FirewallID: "lf-dma"})
	if a.FirewallID != "lf-cpu0" {
		t.Fatalf("First's copy changed after a Reset: %+v", a)
	}
}

// TestAlertLogRoundTripsEveryField: the log hands back, from All, First,
// Since and to its subscribers, exactly the alerts recorded — every field,
// names among them. The name table stays exact past its one-entry caches:
// alerts alternate between hundreds of distinct firewall, master and
// detail strings, some of them equal strings built separately.
func TestAlertLogRoundTripsEveryField(t *testing.T) {
	l := NewAlertLog()
	var seen []Alert
	l.Subscribe(func(a *Alert) { seen = append(seen, *a) })
	var want []Alert
	for i := 0; i < 3*alertChunk; i++ {
		a := Alert{
			Cycle:      uint64(i) * 1000003,
			FirewallID: fmt.Sprintf("fw-%d", i%300),
			Master:     fmt.Sprintf("m%d", i%7),
			Thread:     uint32(i * 31),
			SPI:        uint32(i % 5),
			Violation:  Violation(i % 7),
			Op:         bus.Op(i % 2),
			Addr:       uint32(i) * 0x9E37_79B9,
			Size:       []int{1, 2, 4}[i%3],
		}
		if i%4 == 1 {
			a.Detail = fmt.Sprintf("diagnosis %d", i%3)
		}
		want = append(want, a)
		l.Record(a)
	}
	if got := l.All(); !slices.Equal(got, want) {
		t.Fatal("All differs from the recorded alerts")
	}
	if !slices.Equal(seen, want) {
		t.Fatal("the subscriber saw alerts other than the recorded ones")
	}
	if a := l.First(func(a Alert) bool { return a.FirewallID == "fw-299" }); a == nil || *a != want[299] {
		t.Fatalf("First(fw-299) = %+v, want %+v", a, want[299])
	}
	if n, first := l.Since(want[500].Cycle); n != len(want)-500 || *first != want[500] {
		t.Fatalf("Since = %d, %+v; want %d, %+v", n, first, len(want)-500, want[500])
	}
	if got := l.CountByFirewall()["fw-7"]; got != 3 {
		t.Fatalf("CountByFirewall[fw-7] = %d, want 3", got)
	}
	if n := len(l.names); n != 300+7+3 {
		t.Fatalf("name table holds %d names, want %d distinct ones", n, 300+7+3)
	}
}

// TestAlertLogRecordAllocatesPerChunk: recording n alerts allocates the
// log, one chunk per alertChunk alerts, the doublings of the chunk table
// and the name table, and at most 40 bytes per alert: an entry is 32
// bytes, stored once and never copied to a larger array. Handing an alert
// to subscribers allocates nothing.
func TestAlertLogRecordAllocatesPerChunk(t *testing.T) {
	const chunks = 40
	const n = chunks * alertChunk
	if size := unsafe.Sizeof(alertEntry{}); size != 32 {
		t.Fatalf("an alert entry is %d bytes, want 32", size)
	}
	a := Alert{Cycle: 1, FirewallID: "lf-cpu0", Master: "cpu0", Detail: "zone"}
	record := func() {
		l := NewAlertLog()
		l.Subscribe(func(a *Alert) { alertSink = a.Cycle })
		for i := 0; i < n; i++ {
			l.Record(a)
		}
	}
	// The name table is a map and its bucket plus a slice grown to three
	// names; the subscriber list is one more.
	const nameTable, subs = 2 + 3, 1
	allocs := testing.AllocsPerRun(5, record)
	if max := float64(2 + chunks + bits.Len(chunks) + nameTable + subs); allocs < chunks || allocs > max {
		t.Fatalf("recording %d alerts allocates %v times, want %d..%v", n, allocs, chunks, max)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	record()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 40*n {
		t.Fatalf("recording %d alerts allocates %d bytes (%.1f per alert), want at most 40 per alert", n, got, float64(got)/n)
	}
}

var alertSink uint64
