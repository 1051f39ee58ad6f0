package sweep_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sweep"
)

// TestStreamContextCancelStopsDispatch: canceling the context must stop
// new dispatch, let in-flight jobs drain, and return ctx's error — the
// disconnect path of the campaign service.
func TestStreamContextCancelStopsDispatch(t *testing.T) {
	const n = 64
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	var emitted int
	err := sweep.StreamContext(ctx, n, sweep.Shard{}, nil, 2, func(i int) int {
		ran.Add(1)
		return i
	}, func(i int) error {
		emitted++
		if emitted == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Dispatch is credit-gated at 2x workers, so after the cancel at the
	// third emission at most window+emitted more jobs can ever have been
	// dispatched — nowhere near the full grid.
	if got := ran.Load(); got >= n {
		t.Fatalf("cancellation did not stop dispatch: %d of %d jobs ran", got, n)
	}
	if emitted != 3 {
		t.Fatalf("emitted %d records after cancellation, want exactly 3", emitted)
	}
}

// TestStreamContextPreCanceled: a context that is already dead must not
// run anything.
func TestStreamContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := sweep.StreamContext(ctx, 8, sweep.Shard{}, nil, 2,
		func(i int) int { ran.Add(1); return i },
		func(int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d jobs ran under a pre-canceled context", ran.Load())
	}
}

// waitForGoroutines polls until the goroutine count returns to within
// slack of the baseline (the runtime needs a moment to retire exiting
// goroutines).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamContextNoGoroutineLeak: every cancellation path — mid-stream
// cancel, pre-cancel, emit error — must retire all worker goroutines.
func TestStreamContextNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine() + 2 // tolerate unrelated runtime churn
	for name, run := range map[string]func() error{
		"cancel": func() error {
			ctx, cancel := context.WithCancel(context.Background())
			return sweep.StreamContext(ctx, 32, sweep.Shard{}, nil, 4,
				func(i int) int { return i },
				func(i int) error {
					if i == 1 {
						cancel()
					}
					return nil
				})
		},
		"emit error": func() error {
			return sweep.StreamContext(context.Background(), 32, sweep.Shard{}, nil, 4,
				func(i int) int { return i },
				func(i int) error { return errors.New("sink died") })
		},
		"clean finish": func() error {
			return sweep.StreamContext(context.Background(), 32, sweep.Shard{}, nil, 4,
				func(i int) int { return i },
				func(int) error { return nil })
		},
	} {
		err := run()
		if name != "clean finish" && err == nil {
			t.Fatalf("%s: expected an error", name)
		}
		if name == "clean finish" && err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		waitForGoroutines(t, baseline)
	}
}

// TestEachContextCancel: the config-level wrapper forwards the context.
func TestEachContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs := []sweep.Config{{Workload: "stream", NumCores: 1, Accesses: 1, MaxCycles: 1000}}
	err := sweep.EachContext(ctx, cfgs, sweep.Shard{}, 1, func(sweep.RunResult) error {
		t.Fatal("emit called under a canceled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStreamDoesNotStarveEmitter: with one processor and points that never
// block, the reorder loop still emits each record soon after it is next in
// grid order — record i before point i+3 starts — instead of when the
// workers run out of credits and block. Not parallel: it sets GOMAXPROCS.
func TestStreamDoesNotStarveEmitter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 8
	var seq atomic.Int64
	var started, emitted, work [n]int64
	err := sweep.Stream(n, sweep.Shard{}, nil, 2, func(i int) int {
		started[i] = seq.Add(1)
		x := int64(i)
		for k := 0; k < 200_000; k++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		work[i] = x // keeps the spin live
		return i
	}, func(i int) error {
		emitted[i] = seq.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+3 < n; i++ {
		if emitted[i] > started[i+3] {
			t.Errorf("record %d emitted at step %d, after point %d started at step %d (starts %v, emits %v)",
				i, emitted[i], i+3, started[i+3], started, emitted)
		}
	}
}
