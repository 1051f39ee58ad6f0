// Package sim provides the deterministic cycle-driven simulation engine that
// every hardware model in this repository runs on.
//
// The engine advances a global cycle counter. Work is expressed two ways:
//
//   - Tickers: synchronous logic registered with AddTicker (CPU cores, the
//     bus arbiter, the DMA engine). A ticker tells the engine on which
//     cycles it is due, and is ticked on each of them, in registration
//     order.
//   - Events: one-shot callbacks scheduled at an absolute or relative cycle.
//     Events scheduled for the same cycle fire in scheduling order, giving
//     bit-identical runs for identical inputs.
//
// Within one cycle the engine first fires all events due at that cycle, then
// ticks the due tickers, then fires the events those ticks scheduled for the
// current cycle, so a component may hand work to another component with
// zero-cycle latency when modeling combinational paths.
//
// # Due tickers
//
// A ticker pushes its own schedule: WakeAt makes it due on every cycle from
// a given one on, and Sleep takes it off until the next WakeAt. A component
// calls them on its own transitions — a core stalling on the bus sleeps and
// its completion event wakes it — so a cycle costs one call per ticker that
// has work, not one per registered ticker. Wakes inside a cycle follow the
// rules of ticking every ticker every cycle: a ticker woken by an event
// before the ticks, or by the Tick of a ticker registered before it, is
// ticked in that cycle, and one woken after its own turn is ticked from the
// next. NextTurn names that cycle, which lets a component count cycles as
// intervals opened and closed on its transitions instead of one per tick.
//
// # Quiescent cycles
//
// A stalled platform spends most of its cycles waiting: a core blocked on
// a secured off-chip access sits through the whole SB/DDR/IC/CC pipeline
// with nothing to do. Run and RunUntil jump over cycles in which no ticker
// and no event is due: the clock moves straight to the earliest of the next
// event, the earliest due cycle and the end of the call's budget. Nothing
// happens in such a cycle, so results are cycle-for-cycle those of stepping
// every cycle.
//
// A TickFunc cannot say when it is due, so it is ticked every cycle, and
// registering one turns its engine into the per-cycle reference the
// equivalence tests compare against: from then on Step ticks every ticker
// on every cycle, due or not, and nothing is skipped. A ticker's Tick must
// therefore do nothing on a cycle it is not due. An engine without tickers
// steps every cycle too. Step and Drain always advance exactly one cycle.
//
// # Event queue
//
// Events wait in one binary min-heap ordered by (cycle, seq), where seq
// counts Schedule calls, so events due in the same cycle fire in schedule
// order by construction. A platform has a handful of events pending at a
// time, so the heap stays a few entries deep, and it keeps its capacity:
// steady-state scheduling allocates nothing. ScheduleArg additionally lets
// hot callers pass a pre-bound callback plus a pointer argument instead of
// allocating a fresh closure per event.
package sim

import (
	"fmt"
	"math"
)

// Ticker is synchronous logic evaluated on the cycles it is due.
type Ticker interface {
	// Tick is called once per stepped cycle on which the ticker is due,
	// with the current cycle number. On the per-cycle reference (see
	// TickFunc) it is called on every cycle, so it must do nothing on a
	// cycle the ticker is not due.
	Tick(now uint64)
}

// TickFunc adapts a plain function to the Ticker interface. It is due on
// every cycle, and registering one makes its engine tick every ticker on
// every cycle without skipping (the per-cycle reference).
type TickFunc func(now uint64)

// Tick implements Ticker.
func (f TickFunc) Tick(now uint64) { f(now) }

// never is the due cycle of a sleeping ticker.
const never = math.MaxUint64

// event is one scheduled callback with its argument, ordered in the heap by
// (cycle, seq).
type event struct {
	cycle uint64
	seq   uint64
	fn    func(now uint64, arg any)
	arg   any
}

func (a *event) before(b *event) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

// callFunc fires a plain Schedule callback, carried as the event argument
// (a func value converts to an interface without allocating).
func callFunc(now uint64, arg any) { arg.(func(uint64))(now) }

// Engine is the cycle-driven simulation kernel. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now    uint64
	seq    uint64
	events []event // binary min-heap on (cycle, seq)

	tickers []Ticker
	due     []uint64 // per ticker: the cycle it is due from, or never
	turn    int      // tickers[:turn] have had their turn in the current Step, whenever a callback runs
	plain   bool     // a TickFunc is registered: tick all, every cycle
	elided  uint64   // cycles jumped over rather than stepped

	// nextDue is at most the earliest due cycle of any ticker: Step sets
	// it to the minimum it sees as the tickers take their turns, and
	// WakeAt lowers it. A Sleep after the ticker's turn can leave it
	// early, which costs one stepped cycle with nothing due, never a
	// missed tick. It lets Run and RunUntil tell a busy cycle with one
	// comparison.
	nextDue uint64

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
	return &Engine{freq: freq, nextDue: never}
}

// Now returns the current cycle number.
func (e *Engine) Now() uint64 { return e.now }

// Frequency returns the simulated clock frequency.
func (e *Engine) Frequency() Frequency { return e.freq }

// Elided returns how many cycles Run and RunUntil jumped over instead of
// stepping; Now() - Elided() were stepped.
func (e *Engine) Elided() uint64 { return e.elided }

// AddTicker registers t and returns its id for WakeAt, Sleep and NextTurn.
// t starts asleep. Tickers run in registration order after all events due
// in the cycle have fired. A TickFunc is ticked every cycle and turns this
// engine into the per-cycle reference (see the package comment).
func (e *Engine) AddTicker(t Ticker) int {
	if t == nil {
		panic("sim: AddTicker(nil)")
	}
	if _, ok := t.(TickFunc); ok {
		e.plain = true
	}
	e.tickers = append(e.tickers, t)
	e.due = append(e.due, never)
	return len(e.tickers) - 1
}

// WakeAt makes ticker id due on every cycle from cycle on, until it sleeps
// or is woken for another cycle. A cycle not in the future means from the
// ticker's next turn (see NextTurn).
func (e *Engine) WakeAt(id int, cycle uint64) {
	e.due[id] = cycle
	if cycle < e.nextDue {
		e.nextDue = cycle
	}
}

// Sleep takes ticker id off the cycles it is due until the next WakeAt.
func (e *Engine) Sleep(id int) { e.due[id] = never }

// NextTurn returns the cycle of ticker id's next turn: the current cycle,
// or the next one once the ticker's turn in the current Step has passed
// (during its own Tick, in a later ticker's Tick, or in an event fired
// after the ticks). It is the first cycle a wake now can tick it on.
func (e *Engine) NextTurn(id int) uint64 {
	if id < e.turn {
		return e.now + 1
	}
	return e.now
}

// Schedule runs fn after delay cycles (delay 0 means later in the current
// cycle if the engine is mid-step, otherwise at the current cycle).
func (e *Engine) Schedule(delay uint64, fn func(now uint64)) {
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute cycle. Scheduling in the past panics: it
// indicates a causality bug in a hardware model.
func (e *Engine) ScheduleAt(cycle uint64, fn func(now uint64)) {
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	e.ScheduleArgAt(cycle, callFunc, fn)
}

// ScheduleArg runs fn(now, arg) after delay cycles. It is the
// allocation-free form of Schedule for hot paths: the caller passes a
// long-lived callback (package function or a closure created once at
// construction) and threads per-event state through arg, typically a
// pointer, instead of capturing it in a fresh closure per event.
func (e *Engine) ScheduleArg(delay uint64, fn func(now uint64, arg any), arg any) {
	e.ScheduleArgAt(e.now+delay, fn, arg)
}

// ScheduleArgAt is ScheduleArg at an absolute cycle.
func (e *Engine) ScheduleArgAt(cycle uint64, fn func(now uint64, arg any), arg any) {
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	if cycle < e.now {
		panic(fmt.Sprintf("sim: schedule at cycle %d in the past (now=%d)", cycle, e.now))
	}
	e.seq++
	e.events = append(e.events, event{cycle: cycle, seq: e.seq, fn: fn, arg: arg})
	h := e.events
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop references once fired
	h = h[:n]
	e.events = h
	for i := 0; ; {
		small, l, r := i, 2*i+1, 2*i+2
		if l < n && h[l].before(&h[small]) {
			small = l
		}
		if r < n && h[r].before(&h[small]) {
			small = r
		}
		if small == i {
			return top
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// Stop requests that the current (or next) Run/RunUntil call return after
// the current cycle completes. A stop with no run in progress stays
// pending and is honored by the next Run/RunUntil, which returns
// immediately without stepping.
func (e *Engine) Stop() { e.stopped = true }

// Step advances the simulation by exactly one cycle: fire due events, then
// tick the due tickers (every ticker on the per-cycle reference), then fire
// any events those ticks scheduled for the same cycle, then advance the
// clock.
func (e *Engine) Step() {
	e.fireDue()
	now, all := e.now, e.plain
	e.nextDue = never // WakeAt during the ticks lowers it again
	next := uint64(never)
	for i := 0; i < len(e.tickers); i++ {
		d := e.due[i]
		if d <= now || all {
			e.turn = i + 1
			e.tickers[i].Tick(now)
			d = e.due[i]
		}
		next = min(next, d)
	}
	e.nextDue = min(e.nextDue, next)
	e.turn = len(e.tickers)
	e.fireDue() // zero-latency events scheduled during ticking
	e.turn = 0
	e.now++
}

func (e *Engine) fireDue() {
	for len(e.events) > 0 && e.events[0].cycle <= e.now {
		ev := e.pop()
		ev.fn(e.now, ev.arg)
	}
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
		if e.nextDue > e.now {
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
		if e.nextDue > e.now {
			if cycles += e.skip(max - cycles); cycles == max {
				break
			}
		}
		e.Step()
	}
	return cycles, cond()
}

// skip jumps the clock over the cycles from now on, at most budget of
// them, in which no ticker and no event is due, and returns how many it
// jumped. Run and RunUntil call it only between cycles.
func (e *Engine) skip(budget uint64) uint64 {
	if e.plain || len(e.tickers) == 0 {
		return 0
	}
	end := e.now + budget
	if end < e.now {
		end = never
	}
	end = min(end, e.nextDue)
	if len(e.events) > 0 && e.events[0].cycle < end {
		end = e.events[0].cycle
	}
	if end <= e.now {
		return 0
	}
	n := end - e.now
	e.now = end
	e.elided += n
	return n
}

// Drain runs until the event queue is empty or max cycles elapse. It steps
// every cycle, ticking the due tickers; Drain is intended for tests of pure
// event logic.
func (e *Engine) Drain(max uint64) uint64 {
	var done uint64
	for done < max && len(e.events) > 0 {
		e.Step()
		done++
	}
	return done
}

// Pending returns the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return len(e.events) }

// Elapsed converts the current cycle count to simulated wall time in
// seconds.
func (e *Engine) Elapsed() float64 { return float64(e.now) / float64(e.freq) }

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
