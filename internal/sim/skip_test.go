package sim

import (
	"slices"
	"strconv"
	"testing"
)

// napper is a scripted ticker: it is due on each cycle in due (ascending)
// and asleep otherwise, and it tells its engine so with WakeAt and Sleep.
// It logs the cycles it was ticked on while due and counts the calls on
// cycles it was not: the per-cycle reference makes those, a skipping
// engine must not. onTick, when set, runs inside every due tick.
type napper struct {
	e      *Engine
	id     int
	due    []uint64
	log    []uint64
	asleep uint64
	onTick func(now uint64)
}

func newNapper(e *Engine) *napper {
	n := &napper{e: e}
	n.id = e.AddTicker(n)
	return n
}

// add makes the napper due on further cycles. A cycle already passed is
// due from the napper's next turn, which the log shows.
func (n *napper) add(cycles ...uint64) {
	n.due = append(n.due, cycles...)
	slices.Sort(n.due)
	n.arm()
}

func (n *napper) arm() {
	if len(n.due) == 0 {
		n.e.Sleep(n.id)
		return
	}
	n.e.WakeAt(n.id, n.due[0])
}

func (n *napper) Tick(now uint64) {
	if len(n.due) == 0 || n.due[0] > now {
		n.asleep++
		return
	}
	n.due = slices.Delete(n.due, 0, 1) // in place: keeps the capacity
	n.log = append(n.log, now)
	n.arm()
	if n.onTick != nil {
		n.onTick(now)
	}
}

// twin is one engine with its nappers and a log of (label@cycle) event
// firings. Every contract test drives a skipping twin and a per-cycle
// reference twin (a TickFunc makes its engine tick every ticker on every
// cycle and skip nothing) through the same calls and requires identical
// observations.
type twin struct {
	e     *Engine
	ns    []*napper
	fired []string
}

// newTwins returns a skipping twin and a per-cycle reference twin, each
// with k sleeping nappers registered in the same order.
func newTwins(k int) (skip, ref *twin) {
	mk := func(perCycle bool) *twin {
		tw := &twin{e: NewEngine(DefaultFrequency)}
		for i := 0; i < k; i++ {
			tw.ns = append(tw.ns, newNapper(tw.e))
		}
		if perCycle {
			tw.e.AddTicker(TickFunc(func(uint64) {}))
		}
		return tw
	}
	return mk(false), mk(true)
}

// at schedules a labelled event at an absolute cycle; do, when set, runs
// inside it.
func (tw *twin) at(cycle uint64, label string, do ...func(now uint64)) {
	tw.e.ScheduleAt(cycle, func(now uint64) {
		tw.fired = append(tw.fired, label+"@"+itoa(now))
		for _, f := range do {
			f(now)
		}
	})
}

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }

// same fails unless both twins observed the same history, the skipping
// twin actually skipped and never ticked a sleeping napper, and the
// reference ticked the sleeping ones on every cycle.
func same(t *testing.T, skip, ref *twin) {
	t.Helper()
	if skip.e.Now() != ref.e.Now() {
		t.Fatalf("Now = %d, reference %d", skip.e.Now(), ref.e.Now())
	}
	for i, n := range skip.ns {
		r := ref.ns[i]
		if !slices.Equal(n.log, r.log) {
			t.Fatalf("napper %d ticked at %v, reference %v", i, n.log, r.log)
		}
		if n.asleep != 0 {
			t.Fatalf("napper %d was ticked %d times while asleep", i, n.asleep)
		}
		if r.asleep+uint64(len(r.log)) != ref.e.Now() {
			t.Fatalf("reference ticked napper %d on %d of %d cycles", i, r.asleep+uint64(len(r.log)), ref.e.Now())
		}
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
	skip, ref := newTwins(1)
	for _, tw := range []*twin{skip, ref} {
		tw.ns[0].add(5, 3000, 3001)
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
	skip, ref := newTwins(1)
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
		// A ticker's stop ends the run after its cycle too.
		tw.ns[0].add(e.Now() + 700)
		tw.ns[0].onTick = func(uint64) { e.Stop() }
		if got := e.Run(10_000); got != 701 {
			t.Fatalf("Run stopped by a ticker after %d cycles, want 701", got)
		}
	}
	same(t, skip, ref)
}

// TestSkipStopsAtEarliest: a jump ends at the earliest of the next event,
// the earliest due cycle and the end of the budget, and there is no jump
// while an event or a ticker is due now.
func TestSkipStopsAtEarliest(t *testing.T) {
	cases := []struct {
		name          string
		event, due    uint64 // 0: none
		budget, wantN uint64
	}{
		{"event", 600, 1000, 10_000, 100},
		{"due", 1000, 600, 10_000, 100},
		{"budget", 1000, 600, 50, 50},
		{"event-now", 500, 1000, 10_000, 0},
		{"due-now", 1000, 500, 10_000, 0},
		{"nothing", 0, 0, 10_000, 10_000},
	}
	for _, c := range cases {
		e := NewEngine(DefaultFrequency)
		n := newNapper(e)
		e.Run(500)
		if c.event != 0 {
			e.ScheduleAt(c.event, func(uint64) {})
		}
		if c.due != 0 {
			n.add(c.due)
		}
		if got := e.skip(c.budget); got != c.wantN || e.Now() != 500+c.wantN || e.Elided() != 500+c.wantN {
			t.Errorf("%s: skip = %d to cycle %d (%d elided), want %d to %d", c.name,
				got, e.Now(), e.Elided(), c.wantN, 500+c.wantN)
		}
	}
}

// TestWakeRulesWithinACycle: a ticker woken by an event before the ticks,
// or by the Tick of an earlier-registered ticker, is ticked in that cycle;
// one woken after its turn — by a later ticker, by itself, or by an event
// its cycle's ticks scheduled — is ticked from the next cycle.
func TestWakeRulesWithinACycle(t *testing.T) {
	skip, ref := newTwins(3)
	for _, tw := range []*twin{skip, ref} {
		a, b, c := tw.ns[0], tw.ns[1], tw.ns[2]
		tw.at(700, "event", func(now uint64) { b.add(now) })
		a.add(1500)
		a.onTick = func(now uint64) {
			switch now {
			case 1500:
				c.add(now) // later in the cycle: ticked now
			case 3000:
				a.add(now) // itself, after its turn: next cycle
			}
		}
		c.onTick = func(now uint64) {
			switch now {
			case 1500:
				a.add(now) // before it in the cycle: next cycle
			case 2000:
				tw.e.Schedule(0, func(now uint64) { tw.fired = append(tw.fired, "zero@"+itoa(now)); b.add(now) })
			}
		}
		c.add(2000)
		a.add(3000)
		tw.e.Run(4000)
	}
	same(t, skip, ref)
	if a, b, c := skip.ns[0].log, skip.ns[1].log, skip.ns[2].log; !slices.Equal(a, []uint64{1500, 1501, 3000, 3001}) ||
		!slices.Equal(b, []uint64{700, 2001}) || !slices.Equal(c, []uint64{1500, 2000}) {
		t.Fatalf("ticks a %v b %v c %v", a, b, c)
	}
}

// TestNextTurn: the cycle a wake can first tick a ticker on is the current
// one until its turn in the step has passed, and the next one after.
func TestNextTurn(t *testing.T) {
	e := NewEngine(DefaultFrequency)
	a, b := newNapper(e), newNapper(e)
	var got []uint64
	turns := func(uint64) { got = append(got, e.NextTurn(a.id), e.NextTurn(b.id)) }
	e.Run(10)
	turns(0) // between runs
	e.ScheduleAt(20, turns)
	a.add(20)
	a.onTick = func(now uint64) {
		turns(now)
		e.Schedule(0, turns) // after the ticks
	}
	e.Run(20)
	if want := []uint64{10, 10, 20, 20, 21, 20, 21, 21}; !slices.Equal(got, want) {
		t.Fatalf("NextTurn (a, b) between runs, before, in a's tick and after the ticks = %v, want %v", got, want)
	}
}

// TestSkipSeesStateChangedBetweenRuns: a ticker woken between two runs (a
// program load, a bus submit) is ticked on the first cycle of the next.
func TestSkipSeesStateChangedBetweenRuns(t *testing.T) {
	skip, ref := newTwins(1)
	for _, tw := range []*twin{skip, ref} {
		tw.e.Run(500)
		tw.ns[0].add(tw.e.Now())
		tw.e.Run(10)
		tw.ns[0].add(tw.e.Now()+1, tw.e.Now()+2000)
		tw.e.Run(3000)
	}
	same(t, skip, ref)
	if want := []uint64{500, 511, 2510}; !slices.Equal(skip.ns[0].log, want) {
		t.Fatalf("ticks %v, want %v", skip.ns[0].log, want)
	}
}

// TestSkipSeesWakeFromZeroLatencyEvents: a ticker whose tick hands work to
// a zero-latency event, which in turn gives the ticker its next due cycle,
// is woken after its turn and ticked on that cycle.
func TestSkipSeesWakeFromZeroLatencyEvents(t *testing.T) {
	skip, ref := newTwins(1)
	for _, tw := range []*twin{skip, ref} {
		n, e := tw.ns[0], tw.e
		n.add(7)
		n.onTick = func(now uint64) {
			if now > 3000 {
				return
			}
			e.Schedule(0, func(now uint64) { n.add(now + 1 + now%700) })
		}
		e.RunUntil(func() bool { return false }, 5000)
	}
	same(t, skip, ref)
	if want := []uint64{7, 15, 31, 63, 127, 255, 511, 1023, 1347, 1995, 2591, 3083}; !slices.Equal(skip.ns[0].log, want) {
		t.Fatalf("ticks %v, want %v", skip.ns[0].log, want)
	}
}

// TestSkipPathAllocFree: jumping over quiescent cycles to events that
// re-arm themselves, and waking a ticker from them, allocates nothing.
func TestSkipPathAllocFree(t *testing.T) {
	e := NewEngine(DefaultFrequency)
	n := newNapper(e)
	n.due = make([]uint64, 0, 64)
	n.log = make([]uint64, 0, 64)
	ticks := 0
	n.onTick = func(uint64) { ticks++ }
	type timer struct{ fires int }
	tm := &timer{}
	var rearm func(now uint64, arg any)
	rearm = func(now uint64, arg any) {
		arg.(*timer).fires++
		n.log = n.log[:0]
		n.add(now + 3)
		e.ScheduleArg(1500, rearm, arg)
	}
	e.ScheduleArg(1500, rearm, tm)
	e.ScheduleArg(40, rearm, tm)
	e.Run(20_000) // warm the heap
	if avg := testing.AllocsPerRun(100, func() { e.Run(10_000) }); avg != 0 {
		t.Fatalf("skip path allocates %.1f objects per run, want 0", avg)
	}
	if e.Elided() == 0 || tm.fires == 0 || ticks == 0 {
		t.Fatalf("elided %d cycles, %d timer fires, %d ticks: the test is vacuous", e.Elided(), tm.fires, ticks)
	}
}
