package sweep

import (
	"context"
	"encoding/json"
	"io"
	"runtime"
	"sync"
)

// This file is the record-type-agnostic streaming core shared by the
// benign scenario sweep (RunResult) and the attack campaign
// (campaign.Record): a worker pool over n indexed jobs, a credit-gated
// index-ordered reorder buffer, and deterministic weighted sharding.

// Slice returns the grid indices this shard owns, balancing the given
// per-index weights across the shard set: walking the grid in order, each
// index goes to the shard with the least accumulated weight so far (ties
// to the lowest shard number). With uniform weights this reduces to exact
// round-robin (i % Count == Index); with cost estimates attached — say,
// centralized grid points weighing ~3x — it keeps multi-process wall-clock
// balanced instead of handing one process all the slow points. nil weights
// means uniform; otherwise len(weights) must be n (non-positive entries
// count as 1). The assignment depends only on (n, weights, Count), so
// every shard of a partition computes the same global layout.
func (s Shard) Slice(n int, weights []float64) []int {
	s = s.normalized()
	load := make([]float64, s.Count)
	var out []int
	for i := 0; i < n; i++ {
		min := 0
		for j := 1; j < s.Count; j++ {
			if load[j] < load[min] {
				min = j
			}
		}
		w := 1.0
		if weights != nil && weights[i] > 0 {
			w = weights[i]
		}
		load[min] += w
		if min == s.Index {
			out = append(out, i)
		}
	}
	return out
}

// EmitJSONL returns an emit callback rendering each record as one compact
// JSON object per line — the shared JSONL encoding of the benign sweep and
// the attack campaign, so the per-line contract lives in one place.
func EmitJSONL[R any](w io.Writer) func(R) error {
	return func(r R) error {
		data, err := json.Marshal(r)
		if err != nil {
			return err
		}
		_, err = w.Write(append(data, '\n'))
		return err
	}
}

// indexed pairs a completed record with its global grid index for the
// reorder buffer.
type indexed[R any] struct {
	i int
	r R
}

// Stream executes this shard's portion of n indexed jobs on a pool of
// workers (GOMAXPROCS when workers <= 0) and calls emit once per job, in
// ascending global index order, from the calling goroutine. run(i) must be
// self-contained (no shared mutable state across jobs) and is expected to
// stamp its own record with i. Jobs completing out of order wait in a
// reorder buffer bounded at 2x the worker count: dispatch is credit-gated,
// so a slow job at the head of the grid stalls the workers rather than
// letting completed jobs pile up — the full grid is never buffered, which
// is what lets streams cover arbitrarily large grids.
//
// An error from emit cancels the stream: no further jobs are dispatched
// (in-flight jobs finish and are discarded) and Stream returns that error,
// so a dead output sink does not burn the rest of the grid.
func Stream[R any](n int, sh Shard, weights []float64, workers int, run func(i int) R, emit func(R) error) error {
	return StreamContext(context.Background(), n, sh, weights, workers, run, emit)
}

// StreamContext is Stream with cancellation: when ctx is canceled, no
// further jobs are dispatched, in-flight jobs finish and are discarded,
// every worker goroutine exits, and the call returns ctx's error (unless
// emit already failed — the first cause wins). This is what lets a serving
// process abandon a grid the moment its client disconnects without
// leaking workers or records.
//
// A record leaves as soon as it is next in grid order: a worker that hands
// a result over lets the reorder loop run before it starts its next point,
// so emission does not wait until the credits run out.
func StreamContext[R any](ctx context.Context, n int, sh Shard, weights []float64, workers int, run func(i int) R, emit func(R) error) error {
	if err := sh.Validate(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	idxs := sh.Slice(n, weights)
	if len(idxs) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(idxs) {
		workers = len(idxs)
	}

	// Dispatch credits bound completed-but-not-yet-emitted jobs: each
	// dispatched index holds one credit until its result is emitted in
	// order, so at most `window` results ever wait in the reorder buffer
	// or the results channel.
	window := 2 * workers
	credits := make(chan struct{}, window)
	for j := 0; j < window; j++ {
		credits <- struct{}{}
	}

	jobs := make(chan int)
	results := make(chan indexed[R], workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results <- indexed[R]{i: i, r: run(i)}
				// The send readies the reorder loop on this worker's
				// processor, where it would wait until some worker
				// blocks (with every processor busy, when the credits
				// run out), so records would leave in bursts. Yield
				// once so it emits before this worker's next point.
				runtime.Gosched()
			}
		}()
	}
	go func() {
		defer close(jobs)
		for _, i := range idxs {
			select {
			case <-credits:
			case <-stop:
				return
			case <-ctx.Done():
				return
			}
			select {
			case jobs <- i:
			case <-stop:
				return
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Index-ordered reorder buffer: emit strictly in grid order so every
	// downstream encoding is independent of scheduling. The loop always
	// drains the results channel so every worker goroutine exits; the
	// first failure — emit error or context cancellation — wins.
	pending := make(map[int]R, window)
	next := 0
	var streamErr error
	cancel := func(err error) {
		if streamErr == nil {
			streamErr = err
			close(stop)
		}
	}
	for res := range results {
		if streamErr != nil {
			continue // draining in-flight jobs after cancellation
		}
		if err := ctx.Err(); err != nil {
			cancel(err)
			continue
		}
		pending[res.i] = res.r
		for next < len(idxs) {
			rdy, ok := pending[idxs[next]]
			if !ok {
				break
			}
			// emit may have canceled the context (client disconnect
			// observed mid-write): stop before the next record rather
			// than draining the reorder buffer to a dead sink.
			if err := ctx.Err(); err != nil {
				cancel(err)
				break
			}
			delete(pending, idxs[next])
			next++
			if err := emit(rdy); err != nil {
				cancel(err)
				break
			}
			credits <- struct{}{}
		}
	}
	if streamErr == nil {
		// The cancellation can land during the emit of the last in-flight
		// record: the dispatcher quits on ctx.Done before handing out the
		// next job, results drains clean, and no later receive re-checks
		// the context. The contract is that a canceled ctx yields its
		// error, so check once more after the drain.
		streamErr = ctx.Err()
	}
	return streamErr
}
