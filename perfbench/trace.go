package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// span is one timed call into a layer's public function.
type span struct {
	Name string
	// Job is the job the call worked for.
	Job int
	// Parent is the index of the enclosing span, or -1 at top level.
	Parent     int
	Start, End time.Duration // on the tracer's clock
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps the spans of one single-goroutine replay in memory. A nil
// tracer records nothing, so the untraced replay runs the same code.
//
// The tracer's clock runs only between resume and pause, so the traced job
// replays form one timeline and the work done between them (the untraced
// replays and the probes) is cut out of it.
type tracer struct {
	spans []span
	open  []int
	job   int
	// elapsed is the clock's reading at the last pause; while the clock
	// runs, it advances from resumed.
	elapsed time.Duration
	resumed time.Time
	running bool
}

// newTracer returns a tracer whose clock is paused at zero.
func newTracer() *tracer { return &tracer{} }

// now reads the tracer's clock.
func (t *tracer) now() time.Duration {
	if t.running {
		return t.elapsed + time.Since(t.resumed)
	}
	return t.elapsed
}

// resume starts the clock.
func (t *tracer) resume() {
	t.resumed, t.running = time.Now(), true
}

// pause stops the clock.
func (t *tracer) pause() {
	t.elapsed, t.running = t.now(), false
}

// setJob tags the spans that follow with a job.
func (t *tracer) setJob(job int) {
	if t != nil {
		t.job = job
	}
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Job: t.job, Parent: parent, Start: t.now()})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes the innermost open span, which begin returned as i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// account attributes a traced run's wall time to span names.
type account struct {
	Wall time.Duration
	// Self is, per span name, the summed span durations minus the time
	// their child spans cover.
	Self map[string]time.Duration
	// Total is, per span name, the summed span durations.
	Total map[string]time.Duration
	Count map[string]int
	// Unaccounted is the wall time no top-level span covers. The self
	// times plus Unaccounted equal Wall exactly.
	Unaccounted time.Duration
}

// account computes the self-time account of the spans over wall.
func (t *tracer) account(wall time.Duration) account {
	a := account{Wall: wall, Self: map[string]time.Duration{}, Total: map[string]time.Duration{}, Count: map[string]int{}}
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.dur()
		}
	}
	var top time.Duration
	for i, s := range t.spans {
		a.Self[s.Name] += s.dur() - children[i]
		a.Total[s.Name] += s.dur()
		a.Count[s.Name]++
		if s.Parent < 0 {
			top += s.dur()
		}
	}
	a.Unaccounted = wall - top
	return a
}

// durations lists every duration of the named spans, in trace order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// checkNesting reports the first span that is not contained in its parent
// or that overlaps its predecessor at the same depth.
func (t *tracer) checkNesting() error {
	lastEnd := map[int]time.Duration{} // per parent: end of the previous child
	for i, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d (%s) opens before its parent %d", i, s.Name, s.Parent)
		}
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %d (%s) escapes its parent %d (%s)", i, s.Name, s.Parent, p.Name)
			}
		}
		if s.Start < lastEnd[s.Parent] {
			return fmt.Errorf("span %d (%s) overlaps its previous sibling", i, s.Name)
		}
		lastEnd[s.Parent] = s.End
	}
	return nil
}

// chromeEvent is one trace_event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as a Chrome trace_event JSON document, which
// Perfetto and chrome://tracing load: one complete ("X") event per span on a
// single thread, timestamps in microseconds on the tracer's clock.
func (t *tracer) writeChrome(w io.Writer, process string, meta map[string]any) error {
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": process}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "replay"}},
	}
	for i, s := range t.spans {
		dur := float64(s.dur()) / 1e3
		layer, _, _ := strings.Cut(s.Name, ".")
		events = append(events, chromeEvent{
			Name: s.Name, Cat: layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: &dur, Pid: 1, Tid: 1,
			Args: map[string]any{"job": s.Job, "span": i, "parent": s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent  `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData,omitempty"`
	}{events, "ms", meta})
}
