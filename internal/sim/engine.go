// Package sim provides the deterministic cycle-driven simulation engine that
// every hardware model in this repository runs on.
//
// The engine advances a global cycle counter. Work is expressed two ways:
//
//   - Tickers: components registered with AddTicker are called once per
//     stepped cycle, in registration order. This models always-on
//     synchronous logic (CPU cores, bus arbiters).
//   - Events: one-shot callbacks scheduled at an absolute or relative cycle.
//     Events scheduled for the same cycle fire in scheduling order, giving
//     bit-identical runs for identical inputs.
//
// Within one cycle the engine first fires all events due at that cycle, then
// ticks every registered Ticker. Events scheduled by a ticker for the
// current cycle run before the cycle ends (after all tickers), so a
// component may hand work to another component with zero-cycle latency when
// modeling combinational paths.
//
// # Quiescent cycles
//
// A stalled platform spends most of its cycles waiting: a core blocked on
// a secured off-chip access sits through the whole SB/DDR/IC/CC pipeline
// with nothing to do. Run and RunUntil jump over such cycles instead of
// stepping them. A ticker that implements Sleeper says, between cycles,
// when it next needs a tick; when no event is due and every ticker sleeps,
// the engine moves the clock straight to the earliest of the next event,
// the earliest ticker wake-up and the end of the call's budget, and
// credits the elided cycles to each sleeper in bulk (Sleeper.Skip). No
// simulated state other than those credits changes in an elided cycle, so
// results are cycle-for-cycle those of stepping every cycle.
//
// A ticker that is not a Sleeper (a TickFunc, say) is called every cycle
// and disables skipping for its engine; an engine without tickers steps
// every cycle too. Those are the per-cycle reference the equivalence tests
// compare against. Step and Drain always advance exactly one cycle at a
// time.
//
// # Event queue implementation
//
// The queue is a bucketed calendar queue: a fixed ring of per-cycle event
// slices covers the near-future window [now, now+ringWindow), and a binary
// heap holds the (rare) events scheduled further out. Scheduling into the
// ring is an append into the bucket for that cycle; firing walks the
// current bucket in append order. Bucket slices and the far heap keep
// their capacity across cycles, so steady-state Schedule/fire does zero
// heap allocations. ScheduleArg additionally lets hot callers pass a
// pre-bound callback plus a pointer argument instead of allocating a fresh
// closure per event.
//
// Determinism contract: same-cycle events fire in schedule order, across
// the ring/heap boundary too. An event for cycle X only lands in the far
// heap while X >= now+ringWindow, i.e. strictly before any event for X can
// land in the ring (which requires X < now+ringWindow and the clock never
// runs backwards), so every heap-resident event for a cycle was scheduled
// before every ring-resident event for the same cycle. Firing heap events
// first (in cycle, then schedule order) therefore preserves global FIFO
// order within a cycle. A jump over quiescent cycles stops at the next
// event and only moves the clock forward, so it never passes an event and
// the argument holds across jumps.
package sim

import (
	"fmt"
	"math"
)

// Ticker is synchronous logic evaluated once per cycle.
type Ticker interface {
	// Tick is called once per stepped cycle with the current cycle
	// number. A ticker that cannot sleep (is not a Sleeper) is called
	// exactly once per simulated cycle, since its engine never skips.
	Tick(now uint64)
}

// Never is the wake-up cycle of a Sleeper that only an event can wake.
const Never = math.MaxUint64

// Sleeper is a Ticker that can report the cycles it would sleep through,
// which lets the engine jump over them.
type Sleeper interface {
	Ticker
	// NextTick returns the first cycle at or after now whose Tick may
	// change state beyond what Skip accounts for, assuming no event
	// fires before then, or Never when only an event can wake the
	// sleeper. The engine asks only between cycles, after every event
	// of the previous cycle has fired, so the answer must be computed
	// from current state rather than remembered from the last Tick.
	NextTick(now uint64) uint64
	// Skip stands in for n consecutive Tick calls that the engine
	// elided because no event was due and every ticker slept through
	// them: it applies whatever those ticks would have counted.
	Skip(n uint64)
}

// TickFunc adapts a plain function to the Ticker interface.
type TickFunc func(now uint64)

// Tick implements Ticker.
func (f TickFunc) Tick(now uint64) { f(now) }

// ringWindow is the calendar-queue near-future window in cycles. Must be a
// power of two. Events at least this far ahead overflow into the far heap.
const ringWindow = 1024

// event is one scheduled callback: either a plain closure (fn) or a
// pre-bound callback with its argument (afn, arg) for allocation-free
// scheduling on hot paths.
type event struct {
	fn  func(now uint64)
	afn func(now uint64, arg any)
	arg any
}

func (ev *event) fire(now uint64) {
	if ev.fn != nil {
		ev.fn(now)
		return
	}
	ev.afn(now, ev.arg)
}

// farEvent is an event beyond the ring window, ordered by (cycle, seq).
type farEvent struct {
	cycle uint64
	seq   uint64
	ev    event
}

// Engine is the cycle-driven simulation kernel. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now      uint64
	seq      uint64
	tickers  []Ticker
	sleepers []Sleeper // the tickers that implement Sleeper

	// awake counts reasons to step the next cycle without looking for a
	// jump: tickers that declared themselves awake (Wake/Doze), plain
	// Tickers (permanently), and, until the first AddTicker, the empty
	// ticker list. Run and RunUntil try to skip only while it is zero, so
	// an active cycle pays one comparison. It is only a hint: whether a
	// cycle can be skipped is always decided by asking every Sleeper.
	awake  int
	elided uint64 // cycles jumped over rather than stepped

	// Calendar queue: ring[c & (ringWindow-1)] buckets events due at
	// cycle c within the near window; far holds everything else as a
	// binary min-heap on (cycle, seq). fireIdx is the firing cursor into
	// the current cycle's bucket (events appended mid-fire are seen
	// because the loop re-reads the bucket length). pending counts all
	// scheduled, not-yet-fired events across both structures.
	ring    [ringWindow][]event
	fireIdx int
	far     []farEvent
	pending int

	freq    Frequency
	stopped bool
}

// NewEngine returns an engine whose clock runs at the given frequency.
// The frequency only affects cycle-to-wall-time conversions; simulation
// semantics are purely cycle-based.
func NewEngine(freq Frequency) *Engine {
	if freq <= 0 {
		freq = DefaultFrequency
	}
	return &Engine{freq: freq, awake: 1}
}

// Now returns the current cycle number.
func (e *Engine) Now() uint64 { return e.now }

// Frequency returns the simulated clock frequency.
func (e *Engine) Frequency() Frequency { return e.freq }

// Elided returns how many cycles Run and RunUntil jumped over instead of
// stepping; Now() - Elided() were stepped.
func (e *Engine) Elided() uint64 { return e.elided }

// AddTicker registers t to be ticked once per cycle. Tickers run in
// registration order after all events due in the cycle have fired. A
// ticker that does not implement Sleeper is ticked every cycle and turns
// cycle skipping off for this engine.
func (e *Engine) AddTicker(t Ticker) {
	if t == nil {
		panic("sim: AddTicker(nil)")
	}
	if len(e.tickers) == 0 {
		e.awake-- // the ticker list is no longer empty
	}
	e.tickers = append(e.tickers, t)
	if s, ok := t.(Sleeper); ok {
		e.sleepers = append(e.sleepers, s)
	} else {
		e.awake++
	}
}

// Wake and Doze keep the engine's count of sleepers that are awake: a
// Sleeper calls Wake when it starts needing every cycle and Doze when it
// stops, one Doze per Wake. While any sleeper is awake, the engine steps
// without asking the sleepers for their next tick, which keeps busy
// cycles as cheap as they are without skipping. The count is only a
// hint: a sleeper that never calls them is asked whenever the others are
// all asleep, and NextTick alone decides whether cycles are skipped.
func (e *Engine) Wake() { e.awake++ }

// Doze is the counterpart of Wake.
func (e *Engine) Doze() { e.awake-- }

// Schedule runs fn after delay cycles (delay 0 means later in the current
// cycle if the engine is mid-step, otherwise at the current cycle).
func (e *Engine) Schedule(delay uint64, fn func(now uint64)) {
	e.scheduleEvent(e.now+delay, event{fn: fn})
}

// ScheduleAt runs fn at absolute cycle. Scheduling in the past panics: it
// indicates a causality bug in a hardware model.
func (e *Engine) ScheduleAt(cycle uint64, fn func(now uint64)) {
	e.scheduleEvent(cycle, event{fn: fn})
}

// ScheduleArg runs fn(now, arg) after delay cycles. It is the
// allocation-free form of Schedule for hot paths: the caller passes a
// long-lived callback (package function or a closure created once at
// construction) and threads per-event state through arg, typically a
// pointer, instead of capturing it in a fresh closure per event.
func (e *Engine) ScheduleArg(delay uint64, fn func(now uint64, arg any), arg any) {
	e.scheduleEvent(e.now+delay, event{afn: fn, arg: arg})
}

// ScheduleArgAt is ScheduleArg at an absolute cycle.
func (e *Engine) ScheduleArgAt(cycle uint64, fn func(now uint64, arg any), arg any) {
	e.scheduleEvent(cycle, event{afn: fn, arg: arg})
}

func (e *Engine) scheduleEvent(cycle uint64, ev event) {
	if ev.fn == nil && ev.afn == nil {
		panic("sim: schedule with nil callback")
	}
	if cycle < e.now {
		panic(fmt.Sprintf("sim: schedule at cycle %d in the past (now=%d)", cycle, e.now))
	}
	e.pending++
	if cycle < e.now+ringWindow {
		i := cycle & (ringWindow - 1)
		e.ring[i] = append(e.ring[i], ev)
		return
	}
	e.seq++
	e.farPush(farEvent{cycle: cycle, seq: e.seq, ev: ev})
}

// Stop requests that the current (or next) Run/RunUntil call return after
// the current cycle completes. A stop with no run in progress stays
// pending and is honored by the next Run/RunUntil, which returns
// immediately without stepping.
func (e *Engine) Stop() { e.stopped = true }

// Step advances the simulation by exactly one cycle: fire due events, then
// tick every ticker, then fire any events those tickers scheduled for the
// same cycle, then advance the clock.
func (e *Engine) Step() {
	e.fireDue()
	for _, t := range e.tickers {
		t.Tick(e.now)
	}
	e.fireDue() // zero-latency events scheduled during ticking
	i := e.now & (ringWindow - 1)
	e.ring[i] = e.ring[i][:0]
	e.fireIdx = 0
	e.now++
}

func (e *Engine) fireDue() {
	// Far events first: they were necessarily scheduled before any
	// ring-resident event for this cycle (see the package comment), and a
	// firing callback cannot add new far events due this cycle (that
	// would need cycle <= now < now+ringWindow, which lands in the ring).
	for len(e.far) > 0 && e.far[0].cycle <= e.now {
		fe := e.farPop()
		e.pending--
		fe.ev.fire(e.now)
	}
	slot := &e.ring[e.now&(ringWindow-1)]
	for e.fireIdx < len(*slot) {
		ev := (*slot)[e.fireIdx]
		(*slot)[e.fireIdx] = event{} // drop references once fired
		e.fireIdx++
		e.pending--
		ev.fire(e.now)
	}
}

// farPush and farPop maintain the far-future binary min-heap ordered by
// (cycle, seq), without container/heap's interface boxing.
func (e *Engine) farPush(fe farEvent) {
	e.far = append(e.far, fe)
	i := len(e.far) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !farLess(e.far[i], e.far[parent]) {
			break
		}
		e.far[i], e.far[parent] = e.far[parent], e.far[i]
		i = parent
	}
}

func (e *Engine) farPop() farEvent {
	top := e.far[0]
	n := len(e.far) - 1
	e.far[0] = e.far[n]
	e.far[n] = farEvent{}
	e.far = e.far[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && farLess(e.far[l], e.far[small]) {
			small = l
		}
		if r < n && farLess(e.far[r], e.far[small]) {
			small = r
		}
		if small == i {
			break
		}
		e.far[i], e.far[small] = e.far[small], e.far[i]
		i = small
	}
	return top
}

func farLess(a, b farEvent) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

// Run advances the simulation by n cycles (or until Stop is called) and
// returns the number of cycles actually executed, stepped or skipped (see
// the package comment). A stop requested before Run is entered (for
// example by an event that fired at the tail of a previous Run) is
// honored: Run consumes it and returns 0 immediately.
func (e *Engine) Run(n uint64) uint64 {
	if e.stopped {
		e.stopped = false
		return 0
	}
	var done uint64
	for done < n {
		if e.stopped {
			e.stopped = false // honored: this run ends early
			return done
		}
		if e.awake == 0 && done > 0 {
			if done += e.skip(n - done); done == n {
				break
			}
		}
		e.Step()
		done++
	}
	// A stop that fired during the final step stays pending: the run did
	// not end because of it, so the next Run/RunUntil must honor it.
	return done
}

// RunUntil steps the engine until cond returns true, Stop is called, or max
// cycles elapse. It returns the number of cycles executed and whether cond
// was satisfied. cond is evaluated before each stepped cycle, so a
// condition that is already true costs zero cycles. It is not evaluated
// inside skipped cycles, so it must depend only on simulated state that a
// skipped cycle cannot change — halt and completion flags, not Now or the
// cores' cycle counters. A stop pending from before the call is consumed
// and returns (0, false) without stepping; as with Run, a stop that fires
// during the final step stays pending for the next call.
func (e *Engine) RunUntil(cond func() bool, max uint64) (cycles uint64, ok bool) {
	if e.stopped {
		e.stopped = false
		return 0, false
	}
	for cycles = 0; cycles < max; cycles++ {
		if cond() {
			return cycles, true
		}
		if e.stopped {
			e.stopped = false
			return cycles, false
		}
		if e.awake == 0 && cycles > 0 {
			if cycles += e.skip(max - cycles); cycles == max {
				break
			}
		}
		e.Step()
	}
	return cycles, cond()
}

// skip jumps the clock over the cycles from now on, at most budget of
// them, in which no event is due and every ticker sleeps, credits them to
// the sleepers, and returns how many it jumped. Run and RunUntil call it
// only between cycles and only after stepping at least one cycle in the
// call, so every event of the previous cycle has fired and the sleepers
// report their state as the cycle left it.
func (e *Engine) skip(budget uint64) uint64 {
	if len(e.ring[e.now&(ringWindow-1)]) > 0 {
		return 0 // an event is due this cycle
	}
	end := e.now + budget
	if end < e.now {
		end = Never
	}
	for _, s := range e.sleepers {
		if w := s.NextTick(e.now); w < end {
			if w <= e.now {
				return 0
			}
			end = w
		}
	}
	if len(e.far) > 0 && e.far[0].cycle < end {
		end = e.far[0].cycle
	}
	if e.pending > len(e.far) {
		// Ring events all lie in [now, now+ringWindow); bucket c holds
		// only events for cycle c, so the first non-empty one is the
		// next ring event.
		for c := e.now + 1; c < end && c < e.now+ringWindow; c++ {
			if len(e.ring[c&(ringWindow-1)]) > 0 {
				end = c
				break
			}
		}
	}
	if end <= e.now {
		return 0
	}
	n := end - e.now
	for _, s := range e.sleepers {
		s.Skip(n)
	}
	e.now = end
	e.elided += n
	return n
}

// Drain runs until the event queue is empty or max cycles elapse. It steps
// every cycle, ticking every ticker; Drain is intended for tests of pure
// event logic.
func (e *Engine) Drain(max uint64) uint64 {
	var done uint64
	for done < max && e.pending > 0 {
		e.Step()
		done++
	}
	return done
}

// Pending returns the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return e.pending }

// Elapsed converts the current cycle count to simulated wall time in
// seconds.
func (e *Engine) Elapsed() float64 { return float64(e.now) / float64(e.freq) }

// CyclesToSeconds converts a cycle count to simulated seconds at the engine
// frequency.
func (e *Engine) CyclesToSeconds(cycles uint64) float64 {
	return float64(cycles) / float64(e.freq)
}

// ThroughputMbps converts "bits moved in cycles" into megabits per second
// at the engine frequency. It returns +Inf for zero cycles so callers can
// detect degenerate measurements.
func (e *Engine) ThroughputMbps(bits, cycles uint64) float64 {
	if cycles == 0 {
		return math.Inf(1)
	}
	seconds := float64(cycles) / float64(e.freq)
	return float64(bits) / seconds / 1e6
}
