package sim

import (
	"slices"
	"strconv"
	"testing"
)

// napper is a scripted Sleeper: it needs a tick at each cycle in due
// (ascending) and sleeps otherwise. It logs the ticks it needed and counts
// the cycles it slept through, ticked or skipped, the way a stalled core
// counts stall cycles. onTick, when set, runs inside every needed tick.
type napper struct {
	due    []uint64
	log    []uint64
	idle   uint64
	onTick func(now uint64)
}

func (n *napper) Tick(now uint64) {
	if len(n.due) == 0 || n.due[0] != now {
		n.idle++
		return
	}
	n.due = n.due[1:]
	n.log = append(n.log, now)
	if n.onTick != nil {
		n.onTick(now)
	}
}

// NextTick reports a missed due cycle as due now, which stops skipping
// but leaves the miss in the log for the test to see.
func (n *napper) NextTick(now uint64) uint64 {
	if len(n.due) == 0 {
		return Never
	}
	return n.due[0]
}

func (n *napper) Skip(k uint64) { n.idle += k }

// twin is one engine with its napper and a log of (cycle, label) event
// firings. Every contract test drives a skipping twin and a per-cycle
// reference twin (a plain ticker turns skipping off) through the same
// calls and requires identical observations.
type twin struct {
	e     *Engine
	n     *napper
	fired []string
}

func newTwins(due ...uint64) (skip, ref *twin) {
	mk := func(perCycle bool) *twin {
		tw := &twin{e: NewEngine(DefaultFrequency), n: &napper{due: slices.Clone(due)}}
		tw.e.AddTicker(tw.n)
		if perCycle {
			tw.e.AddTicker(TickFunc(func(uint64) {}))
		}
		return tw
	}
	return mk(false), mk(true)
}

// at schedules a labelled event at an absolute cycle.
func (tw *twin) at(cycle uint64, label string) {
	tw.e.ScheduleAt(cycle, func(now uint64) { tw.fired = append(tw.fired, label+"@"+itoa(now)) })
}

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }

// same fails unless both twins observed the same history, and the
// skipping twin actually skipped.
func same(t *testing.T, skip, ref *twin) {
	t.Helper()
	if skip.e.Now() != ref.e.Now() {
		t.Fatalf("Now = %d, reference %d", skip.e.Now(), ref.e.Now())
	}
	if !slices.Equal(skip.n.log, ref.n.log) || skip.n.idle != ref.n.idle {
		t.Fatalf("sleeper ticks %v idle %d, reference %v idle %d",
			skip.n.log, skip.n.idle, ref.n.log, ref.n.idle)
	}
	if !slices.Equal(skip.fired, ref.fired) {
		t.Fatalf("events fired %v, reference %v", skip.fired, ref.fired)
	}
	if ref.e.Elided() != 0 {
		t.Fatalf("per-cycle reference elided %d cycles", ref.e.Elided())
	}
	if skip.e.Elided() == 0 {
		t.Fatal("skipping engine stepped every cycle: the test is vacuous")
	}
}

func TestSkipKeepsRunBudgetsExact(t *testing.T) {
	skip, ref := newTwins(5, 3000, 3001)
	for _, tw := range []*twin{skip, ref} {
		if got := tw.e.Run(10); got != 10 {
			t.Fatalf("Run(10) = %d", got)
		}
		if c, ok := tw.e.RunUntil(func() bool { return false }, 2000); c != 2000 || ok {
			t.Fatalf("RunUntil(false, 2000) = (%d,%v)", c, ok)
		}
		if got := tw.e.Run(5000); got != 5000 {
			t.Fatalf("Run(5000) = %d", got)
		}
		done := false
		tw.e.ScheduleAt(9000, func(uint64) { done = true })
		if c, ok := tw.e.RunUntil(func() bool { return done }, 100_000); c != 9000-7010+1 || !ok {
			t.Fatalf("RunUntil(done) = (%d,%v), want (%d,true)", c, ok, 9000-7010+1)
		}
	}
	same(t, skip, ref)
	if skip.e.Now() != 9001 {
		t.Fatalf("Now = %d, want 9001", skip.e.Now())
	}
}

func TestSkipHonorsStop(t *testing.T) {
	skip, ref := newTwins()
	for _, tw := range []*twin{skip, ref} {
		e := tw.e
		e.Stop()
		if got := e.Run(100); got != 0 {
			t.Fatalf("Run after pending Stop = %d, want 0", got)
		}
		e.ScheduleAt(2500, func(uint64) { e.Stop() })
		if got := e.Run(10_000); got != 2501 {
			t.Fatalf("Run stopped after %d cycles, want 2501", got)
		}
		// A stop in the last cycle of a run stays pending.
		e.ScheduleAt(e.Now()+1999, func(uint64) { e.Stop() })
		if got := e.Run(2000); got != 2000 {
			t.Fatalf("Run = %d, want 2000", got)
		}
		if c, ok := e.RunUntil(func() bool { return false }, 50); c != 0 || ok {
			t.Fatalf("RunUntil after tail Stop = (%d,%v), want (0,false)", c, ok)
		}
	}
	same(t, skip, ref)
}

// TestSkipFiresFarEventsInOrder: with every ticker asleep the engine jumps
// straight to an event parked in the far heap, fires it at its exact
// cycle, and keeps same-cycle FIFO order with ring events scheduled for
// that cycle later.
func TestSkipFiresFarEventsInOrder(t *testing.T) {
	const x = 5*ringWindow + 3
	skip, ref := newTwins()
	for _, tw := range []*twin{skip, ref} {
		tw.at(x, "far0") // beyond the ring: far heap
		tw.at(x, "far1")
		tw.at(2*ringWindow+1, "mid") // also far when scheduled
		tw.e.Run(x - ringWindow/2)   // x is now inside the ring window
		tw.at(x, "near0")
		tw.e.ScheduleAt(x, func(now uint64) {
			tw.fired = append(tw.fired, "near1@"+itoa(now))
			tw.e.Schedule(0, func(now uint64) { tw.fired = append(tw.fired, "zero@"+itoa(now)) })
		})
		tw.e.Run(2 * ringWindow)
	}
	same(t, skip, ref)
	want := []string{"mid@2049", "far0@5123", "far1@5123", "near0@5123", "near1@5123", "zero@5123"}
	if !slices.Equal(skip.fired, want) {
		t.Fatalf("fired %v, want %v", skip.fired, want)
	}
}

// TestSkipStopsAtRingEvents: the next event in the calendar ring bounds a
// jump, including one scheduled for the very next cycle.
func TestSkipStopsAtRingEvents(t *testing.T) {
	skip, ref := newTwins()
	for _, tw := range []*twin{skip, ref} {
		tw.e.Run(10)
		tw.at(700, "ring")
		tw.e.ScheduleAt(300, func(now uint64) {
			tw.fired = append(tw.fired, "a@"+itoa(now))
			tw.e.Schedule(1, func(now uint64) { tw.fired = append(tw.fired, "next@"+itoa(now)) })
		})
		tw.e.Run(2000)
	}
	same(t, skip, ref)
	if want := []string{"a@300", "next@301", "ring@700"}; !slices.Equal(skip.fired, want) {
		t.Fatalf("fired %v, want %v", skip.fired, want)
	}
}

// TestSkipSeesStateChangedBetweenRuns: a sleeper woken between two runs
// (a program load, a bus submit) is ticked on the next cycle.
func TestSkipSeesStateChangedBetweenRuns(t *testing.T) {
	skip, ref := newTwins()
	for _, tw := range []*twin{skip, ref} {
		tw.e.Run(500)
		tw.n.due = append(tw.n.due, tw.e.Now())
		tw.e.Run(10)
		tw.n.due = append(tw.n.due, tw.e.Now()+1, tw.e.Now()+2000)
		tw.e.Run(3000)
	}
	same(t, skip, ref)
	if want := []uint64{500, 511, 2510}; !slices.Equal(skip.n.log, want) {
		t.Fatalf("ticks %v, want %v", skip.n.log, want)
	}
}

// TestSkipReadsWakeAfterZeroLatencyEvents: a sleeper whose tick hands work
// to a zero-latency event, which in turn gives the sleeper its next wake
// cycle, must be asked after that event fired, not during its own tick.
func TestSkipReadsWakeAfterZeroLatencyEvents(t *testing.T) {
	skip, ref := newTwins(7)
	for _, tw := range []*twin{skip, ref} {
		n, e := tw.n, tw.e
		n.onTick = func(now uint64) {
			if now > 3000 {
				return
			}
			e.Schedule(0, func(now uint64) { n.due = append(n.due, now+1+now%700) })
		}
		e.RunUntil(func() bool { return false }, 5000)
	}
	same(t, skip, ref)
	if want := []uint64{7, 15, 31, 63, 127, 255, 511, 1023, 1347, 1995, 2591, 3083}; !slices.Equal(skip.n.log, want) {
		t.Fatalf("ticks %v, want %v", skip.n.log, want)
	}
}

// TestSkipHint: Wake holds the engine on the per-cycle path until the
// matching Doze.
func TestSkipHint(t *testing.T) {
	e := NewEngine(DefaultFrequency)
	n := &napper{}
	e.AddTicker(n)
	e.Wake()
	e.Run(100)
	if e.Elided() != 0 {
		t.Fatalf("engine skipped %d cycles while a sleeper was awake", e.Elided())
	}
	e.Doze()
	e.Run(100)
	if e.Elided() != 99 || n.idle != 200 {
		t.Fatalf("Elided = %d, idle = %d; want 99 and 200", e.Elided(), n.idle)
	}
}

// TestSkipPathAllocFree: jumping over quiescent cycles, including to
// far-heap events that re-arm themselves, allocates nothing.
func TestSkipPathAllocFree(t *testing.T) {
	e := NewEngine(DefaultFrequency)
	e.AddTicker(&napper{})
	type timer struct{ fires int }
	tm := &timer{}
	var rearm func(now uint64, arg any)
	rearm = func(now uint64, arg any) {
		arg.(*timer).fires++
		e.ScheduleArg(1500, rearm, arg)
	}
	e.ScheduleArg(1500, rearm, tm)
	e.ScheduleArg(40, rearm, tm)
	e.Run(20_000) // warm the far heap and ring buckets
	if avg := testing.AllocsPerRun(100, func() { e.Run(10_000) }); avg != 0 {
		t.Fatalf("skip path allocates %.1f objects per run, want 0", avg)
	}
	if e.Elided() == 0 || tm.fires == 0 {
		t.Fatalf("elided %d cycles, %d timer fires: the test is vacuous", e.Elided(), tm.fires)
	}
}
