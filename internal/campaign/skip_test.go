package campaign

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/attack"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/soc"
)

// perCyclePair builds the twin pair with a no-op TickFunc on both engines.
// A TickFunc turns cycle skipping off and makes the engine tick every
// ticker on every cycle, due or asleep, so the pair steps every cycle with
// full per-cycle semantics: the reference the skipping engine must match.
func perCyclePair(cfg soc.Config) (*soc.Pair, error) {
	p, err := soc.NewPair(cfg)
	if err != nil {
		return nil, err
	}
	noop := sim.TickFunc(func(uint64) {})
	p.Attacked.Eng.AddTicker(noop)
	p.Twin.Eng.AddTicker(noop)
	return p, nil
}

// runEncoded runs one grid point traced and returns the record JSON and
// the Chrome trace bytes.
func runEncoded(t *testing.T, cfg Config, newPair func(soc.Config) (*soc.Pair, error)) (rec, trace []byte) {
	t.Helper()
	tr := obs.New(4096)
	r := runOne(cfg, tr, newPair)
	rec, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf, r.Name); err != nil {
		t.Fatal(err)
	}
	return rec, buf.Bytes()
}

// equivalenceGrid is every scenario against every protection under no,
// internal and external-memory background load, with recovery off and
// with staged recovery on. The clear delay schedules the supervisor's
// release events 1,500 cycles ahead, across many skipped stalls.
func equivalenceGrid() []Config {
	prots := []soc.Protection{soc.Distributed, soc.Centralized, soc.Unprotected}
	bgs := []string{"none", "stream", "secure-stream", "secure-scrub", "cipher-mix"}
	grid := Grid(attack.Names(), prots, []int{3}, bgs, 32, 2, 100, 300_000)
	staged := WithRecovery(Grid(attack.Names(), prots, []int{3}, bgs, 32, 2, 100, 300_000),
		recovery.Params{QuarantineThreshold: recovery.DefaultThreshold, Staged: true, ClearDelay: 1500})
	return append(grid, staged...)
}

// TestSkippingMatchesPerCycleStepping: skipping quiescent cycles must not
// move a single simulated cycle, and ticking only the due tickers must
// not miss a tick. Every grid point runs twice, once on the normal engines
// and once stepping every cycle with every ticker ticked, and the two runs
// must emit byte-identical records and identical traces.
func TestSkippingMatchesPerCycleStepping(t *testing.T) {
	for _, cfg := range equivalenceGrid() {
		name := cfg.Name()
		if cfg.Recovery.Enabled() {
			name += "/recovery"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rec, trace := runEncoded(t, cfg, soc.NewPair)
			refRec, refTrace := runEncoded(t, cfg, perCyclePair)
			if !bytes.Equal(rec, refRec) {
				t.Fatalf("record differs from per-cycle stepping:\n got %s\nwant %s", rec, refRec)
			}
			if !bytes.Equal(trace, refTrace) {
				t.Fatalf("trace differs from per-cycle stepping:\n got %s\nwant %s", trace, refTrace)
			}
		})
	}
}

// elidedShare runs one grid point on pairs from newPair and returns the
// share of both engines' cycles that were skipped rather than stepped.
func elidedShare(t *testing.T, cfg Config, newPair func(soc.Config) (*soc.Pair, error)) float64 {
	t.Helper()
	var pair *soc.Pair
	r := runOne(cfg, nil, func(c soc.Config) (*soc.Pair, error) {
		p, err := newPair(c)
		pair = p
		return p, err
	})
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	var elided, total uint64
	for _, s := range []*soc.System{pair.Attacked, pair.Twin} {
		elided += s.Eng.Elided()
		total += s.Eng.Now()
	}
	return float64(elided) / float64(total)
}

// TestSecureScrubMostlySkipped: on the distributed platform a secure-scrub
// background spends nearly all its time stalled in the LCF pipeline, so
// the engines must jump over at least 80% of the run's cycles, while the
// per-cycle reference the equivalence test compares against skips none.
func TestSecureScrubMostlySkipped(t *testing.T) {
	cfg := Config{Scenario: "tamper", Protection: soc.Distributed, Background: "secure-scrub",
		Accesses: 48, InjectDelay: 100}
	share := elidedShare(t, cfg, soc.NewPair)
	t.Logf("elided %.1f%% of cycles", 100*share)
	if share < 0.8 {
		t.Fatalf("elided share %.3f, want >= 0.8", share)
	}
	if ref := elidedShare(t, cfg, perCyclePair); ref != 0 {
		t.Fatalf("per-cycle reference elided share %.3f, want 0", ref)
	}
}
