package sim

import (
	"runtime"
	"slices"
	"testing"
)

// TestPendingStopHonoredByRun: a Stop requested between runs (e.g. from an
// event that fired at the tail of a previous Run) must make the next Run
// return immediately instead of being silently reset.
func TestPendingStopHonoredByRun(t *testing.T) {
	e := NewEngine(DefaultFrequency)
	e.Stop()
	if got := e.Run(10); got != 0 {
		t.Fatalf("Run after pending Stop executed %d cycles, want 0", got)
	}
	// The pending stop is consumed: the next run proceeds normally.
	if got := e.Run(10); got != 10 {
		t.Fatalf("Run after consumed stop executed %d cycles, want 10", got)
	}
}

// TestStopAtTailOfRunHonoredByNextRun: a Stop fired during the final cycle
// of a Run cannot end that run any earlier, so it must stay pending and
// stop the next one.
func TestStopAtTailOfRunHonoredByNextRun(t *testing.T) {
	e := NewEngine(DefaultFrequency)
	e.Schedule(4, func(uint64) { e.Stop() }) // fires during cycle 4, the last of Run(5)
	if got := e.Run(5); got != 5 {
		t.Fatalf("first Run executed %d cycles, want 5", got)
	}
	if got := e.Run(100); got != 0 {
		t.Fatalf("Run after tail-of-run Stop executed %d cycles, want 0", got)
	}
	if got := e.Run(3); got != 3 {
		t.Fatalf("Run after consumed stop executed %d cycles, want 3", got)
	}
}

// TestPendingStopHonoredByRunUntil mirrors the Run case for RunUntil.
func TestPendingStopHonoredByRunUntil(t *testing.T) {
	e := NewEngine(DefaultFrequency)
	e.Stop()
	cycles, ok := e.RunUntil(func() bool { return false }, 100)
	if cycles != 0 || ok {
		t.Fatalf("RunUntil after pending Stop = (%d,%v), want (0,false)", cycles, ok)
	}
	cycles, ok = e.RunUntil(func() bool { return e.Now() >= 7 }, 100)
	if !ok || cycles != 7 {
		t.Fatalf("RunUntil after consumed stop = (%d,%v), want (7,true)", cycles, ok)
	}
}

// TestSameCycleFIFOProperty: for a random schedule spanning thousands of
// cycles, in which fired events schedule further events (zero-delay ones
// included), every event fires at its cycle and the firing sequence is
// ordered by cycle and, within a cycle, by schedule call. The skipping
// twin and the per-cycle reference must fire the same sequence.
func TestSameCycleFIFOProperty(t *testing.T) {
	type rec struct {
		cycle uint64
		call  int // schedule-call order
	}
	run := func(tw *twin) []rec {
		e := tw.e
		r := NewRNG(2024)
		var got []rec
		calls := 0
		var schedule func(depth int)
		schedule = func(depth int) {
			d := uint64(r.Intn(5000))
			if r.Intn(4) == 0 {
				d = uint64(r.Intn(3)) // crowd a few cycles
			}
			want := rec{e.Now() + d, calls}
			calls++
			e.Schedule(d, func(now uint64) {
				if now != want.cycle {
					t.Fatalf("event for cycle %d fired at %d", want.cycle, now)
				}
				got = append(got, want)
				if depth < 3 && r.Intn(2) == 0 {
					schedule(depth + 1)
				}
			})
		}
		for i := 0; i < 500; i++ {
			schedule(0)
		}
		e.Run(30_000)
		if e.Pending() != 0 || len(got) != calls {
			t.Fatalf("fired %d of %d events, %d pending", len(got), calls, e.Pending())
		}
		return got
	}
	skip, ref := newTwins(1)
	got := run(skip)
	if !slices.IsSortedFunc(got, func(a, b rec) int {
		if a.cycle != b.cycle {
			return int(a.cycle) - int(b.cycle)
		}
		return a.call - b.call
	}) {
		t.Fatal("events fired out of (cycle, schedule order)")
	}
	if refGot := run(ref); !slices.Equal(got, refGot) {
		t.Fatal("skipping engine fired a different sequence from the per-cycle reference")
	}
	if skip.e.Elided() == 0 {
		t.Fatal("the skipping engine stepped every cycle: the test is vacuous")
	}
}

// TestScheduleArgDeliversArgument covers the allocation-free callback form.
func TestScheduleArgDeliversArgument(t *testing.T) {
	e := NewEngine(DefaultFrequency)
	type payload struct{ v int }
	p := &payload{v: 41}
	e.ScheduleArg(3, func(now uint64, arg any) {
		arg.(*payload).v++
	}, p)
	e.Run(5)
	if p.v != 42 {
		t.Fatalf("arg payload = %d, want 42", p.v)
	}
}

// TestSteadyStateSchedulingAllocFree: after warm-up, Schedule/fire must not
// allocate: the heap keeps its capacity.
func TestSteadyStateSchedulingAllocFree(t *testing.T) {
	e := NewEngine(DefaultFrequency)
	fn := func(uint64) {}
	afn := func(uint64, any) {}
	step := func() {
		e.Schedule(2, fn)
		e.ScheduleArg(3, afn, e)
		e.ScheduleArg(5000, afn, e)
		e.Run(4)
	}
	for i := 0; i < 2000; i++ { // warm the heap to its steady depth
		step()
	}
	avg := testing.AllocsPerRun(200, step)
	if avg != 0 {
		t.Fatalf("steady-state scheduling allocates %.1f objects/run, want 0", avg)
	}
}

// TestPendingCountsScheduledEvents: Pending counts every scheduled event
// not yet fired, near or far, including those scheduled by firing events,
// and excludes an event while it fires.
func TestPendingCountsScheduledEvents(t *testing.T) {
	e := NewEngine(DefaultFrequency)
	fn := func(uint64) {}
	e.Schedule(0, fn)
	e.Schedule(1, fn)
	e.ScheduleArg(1, func(uint64, any) {}, nil)
	e.ScheduleAt(5000, fn)
	inside := -1
	e.Schedule(2, func(uint64) {
		inside = e.Pending()
		e.Schedule(0, fn)
	})
	if e.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", e.Pending())
	}
	e.Run(2)
	if e.Pending() != 2 {
		t.Fatalf("Pending after two cycles = %d, want 2", e.Pending())
	}
	e.Run(1)
	if inside != 1 || e.Pending() != 1 {
		t.Fatalf("Pending inside the event = %d and after it = %d, want 1 and 1", inside, e.Pending())
	}
	e.Drain(10_000)
	if e.Pending() != 0 || e.Now() != 5001 {
		t.Fatalf("after Drain Pending = %d at cycle %d, want 0 at 5001", e.Pending(), e.Now())
	}
}

var engineSink *Engine

// TestNewEngineIsSmall: a fresh engine allocates under 1 KiB. An engine is
// built for every platform of every record, and its queue holds a handful
// of events, so it must not preallocate queue storage.
func TestNewEngineIsSmall(t *testing.T) {
	const n = 1000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		engineSink = NewEngine(DefaultFrequency)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 1024 {
		t.Fatalf("NewEngine allocates %d bytes, want < 1024", per)
	}
}
