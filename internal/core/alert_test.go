package core

import (
	"math/bits"
	"runtime"
	"testing"
	"unsafe"
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

// TestAlertLogFirstStaysValid: a *Alert from First still points at that
// alert after the log grows by many chunks.
func TestAlertLogFirstStaysValid(t *testing.T) {
	l := NewAlertLog()
	l.Record(Alert{Cycle: 7, FirewallID: "lf-cpu0", Violation: VZone})
	a := l.First(nil)
	for i := 0; i < 5*alertChunk; i++ {
		l.Record(Alert{Cycle: uint64(8 + i), FirewallID: "lf-cpu1"})
	}
	if a != l.First(nil) || a.Cycle != 7 || a.FirewallID != "lf-cpu0" || a.Violation != VZone {
		t.Fatalf("First's alert moved or changed: %+v", a)
	}
}

// TestAlertLogRecordAllocatesPerChunk: recording n alerts allocates the
// log, one chunk per alertChunk alerts and the doublings of the chunk
// table, and about the bytes of the alerts themselves — a stored alert is
// never copied to a larger array.
func TestAlertLogRecordAllocatesPerChunk(t *testing.T) {
	const chunks = 40
	const n = chunks * alertChunk
	a := Alert{Cycle: 1, FirewallID: "lf-cpu0", Master: "cpu0", Detail: "zone"}
	allocs := testing.AllocsPerRun(5, func() {
		l := NewAlertLog()
		for i := 0; i < n; i++ {
			l.Record(a)
		}
	})
	if max := float64(2 + chunks + bits.Len(chunks)); allocs < chunks || allocs > max {
		t.Fatalf("recording %d alerts allocates %v times, want %d..%v", n, allocs, chunks, max)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l := NewAlertLog()
	for i := 0; i < n; i++ {
		l.Record(a)
	}
	runtime.ReadMemStats(&after)
	if got, stored := after.TotalAlloc-before.TotalAlloc, uint64(n)*uint64(unsafe.Sizeof(a)); got > stored+stored/8 {
		t.Fatalf("recording %d alerts allocates %d bytes, want about the %d they hold", n, got, stored)
	}
}
