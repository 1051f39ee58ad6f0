// Package campaign runs the injectable attack scenarios of internal/attack
// as a full sweep axis: a grid of scenario x protection x core-count x
// background-workload, where every grid point boots a platform, streams
// benign traffic on the non-attacker cores, injects the attack at a
// deterministic cycle, and reports containment the way the benign sweep
// reports performance — one structured Record per run, with the same
// per-core and per-firewall snapshots, streamed as JSONL or CSV through
// internal/sweep's credit-bounded reorder buffer, or rendered as the
// paper's detection matrix (WriteTable). That is what the paper's §III–§V
// argument actually claims: the distributed firewalls detect and contain
// attacks *under concurrent load*, not on an idle platform. RunOne is the
// one path every attack runs through; a grid point whose background is
// "none" fires its attack on an otherwise idle platform.
//
// Every run is really a twin run (soc.Pair): the attacked platform and an
// attack-free twin execute identically — same setup, same background
// kernels, same cycle count at injection time — so the background
// traffic's slowdown attributes the bystander cost of the attack to the
// attack alone. Records are deterministic, so campaign streams are
// byte-identical across worker counts and across -shard i/n +
// sweep.Merge, exactly like benign sweeps.
package campaign

import (
	"context"
	"fmt"
	"math"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/soc"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Default per-run parameters, applied by Normalize when a Config leaves
// the corresponding field zero.
const (
	DefaultBackground  = "stream"
	DefaultAccesses    = 128
	DefaultCompute     = 4
	DefaultInjectDelay = 500
	DefaultMaxCycles   = 2_000_000
)

// Config is one campaign grid point: which attack, against which platform,
// under which benign background load.
type Config struct {
	// Scenario names the attack (attack.Names).
	Scenario string `json:"scenario"`
	// Protection selects the security architecture.
	Protection soc.Protection `json:"-"`
	// NumCores is the processor count (soc default when zero).
	NumCores int `json:"num_cores"`
	// Background is the benign kernel streamed on every core the scenario
	// does not reserve (BackgroundNames, or none): stream/mix/memcopy on
	// internal BRAM, or the external-memory set — secure-stream and
	// secure-scrub through the CM+IM zone, cipher-mix through the CM-only
	// zone — which routes benign traffic through the Local Ciphering
	// Firewall so it contends with the attack inside the CC/IC pipeline.
	Background string `json:"background"`
	// Accesses and Compute parameterize the background kernel.
	Accesses int `json:"accesses"`
	Compute  int `json:"compute"`
	// InjectDelay is how many cycles after the background starts the
	// attack fires. Fixed per grid point, so injection lands at the same
	// absolute cycle on the attacked platform and its twin. Zero selects
	// DefaultInjectDelay (use 1 to fire effectively at background start);
	// it must be shorter than the background's runtime or the run is
	// refused.
	InjectDelay uint64 `json:"inject_delay"`
	// MaxCycles bounds the post-injection measured window.
	MaxCycles uint64 `json:"max_cycles"`
	// Recovery, when enabled, drives the run through the third campaign
	// phase: the quarantine Reactor is armed on distributed platforms, a
	// deterministic supervisor releases quarantined masters after
	// Recovery.ClearDelay (optionally staged), and background throughput
	// is sampled in lockstep windows against the twin so the record
	// prices react latency, quarantine duration and recovery time. Shared
	// across the grid like Accesses/Compute — it is not a grid axis.
	Recovery recovery.Params `json:"-"`
}

// Normalize fills defaulted fields in place and returns the config.
func (c Config) Normalize() Config {
	if c.NumCores == 0 {
		c.NumCores = 3
	}
	if c.Background == "" {
		c.Background = DefaultBackground
	}
	if c.Accesses == 0 {
		c.Accesses = DefaultAccesses
	}
	if c.Compute == 0 {
		c.Compute = DefaultCompute
	}
	if c.InjectDelay == 0 {
		c.InjectDelay = DefaultInjectDelay
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = DefaultMaxCycles
	}
	c.Recovery = c.Recovery.Normalize()
	return c
}

// Name is the grid point's stable identifier.
func (c Config) Name() string {
	c = c.Normalize()
	return fmt.Sprintf("%s/%s/%s/c%d", c.Scenario, c.Protection, c.Background, c.NumCores)
}

// Weight estimates the grid point's relative cost for shard balancing: the
// protection factor of the benign sweep, doubled for the DoS flood (its
// attacker never halts, so the attacked half runs the background out on a
// congested bus), doubled again for external-memory backgrounds (every
// benign access crosses the LCF's crypto pipeline).
func (c Config) Weight() float64 {
	w := sweep.Config{Protection: c.Protection}.Weight()
	if c.Scenario == "dos-flood" {
		w *= 2
	}
	if BackgroundExternal(c.Background) {
		w *= 2
	}
	return w
}

// Weights maps Config.Weight over a grid, in the form sweep.Shard.Slice
// and sweep.Stream consume.
func Weights(cfgs []Config) []float64 {
	w := make([]float64, len(cfgs))
	for i, c := range cfgs {
		w[i] = c.Weight()
	}
	return w
}

// Grid builds the cross product of the campaign axes in deterministic
// order (scenario outermost, background innermost). Shared parameters
// apply to every point; zero values select the defaults.
func Grid(scenarios []string, prots []soc.Protection, coreCounts []int, backgrounds []string, accesses, compute int, injectDelay, maxCycles uint64) []Config {
	var grid []Config
	for _, sc := range scenarios {
		for _, p := range prots {
			for _, n := range coreCounts {
				for _, bg := range backgrounds {
					grid = append(grid, Config{
						Scenario:    sc,
						Protection:  p,
						NumCores:    n,
						Background:  bg,
						Accesses:    accesses,
						Compute:     compute,
						InjectDelay: injectDelay,
						MaxCycles:   maxCycles,
					}.Normalize())
				}
			}
		}
	}
	return grid
}

// WithRecovery returns the grid with the reaction-and-recovery phase
// enabled on every point (Grid keeps its axis-only signature; recovery
// parameters are shared run plumbing, like Accesses).
func WithRecovery(cfgs []Config, p recovery.Params) []Config {
	out := append([]Config(nil), cfgs...)
	for i := range out {
		out[i].Recovery = p.Normalize()
	}
	return out
}

// Record is the outcome of one campaign run: the grid position, the
// containment verdict with per-firewall attribution, the twin-run
// economics, and the same per-core / per-firewall breakdowns the benign
// sweep reports. Every field derives from the deterministic simulation, so
// identical configs yield identical records.
type Record struct {
	// Index is the run's global grid position — global even in sharded
	// campaigns, which is what lets sweep.Merge reconstruct the unsharded
	// stream.
	Index      int    `json:"index"`
	Name       string `json:"name"`
	Scenario   string `json:"scenario"`
	Protection string `json:"protection"`
	Background string `json:"background"`
	NumCores   int    `json:"num_cores"`

	// Detected: at least one firewall alert attributable to the attack;
	// DetectedBy names the enforcement point that raised the first one and
	// Violation its class. DetectLatency is cycles from injection to that
	// alert.
	Detected      bool   `json:"detected"`
	DetectedBy    string `json:"detected_by,omitempty"`
	Violation     string `json:"violation,omitempty"`
	DetectLatency uint64 `json:"detect_latency"`
	// Contained: the attacker's goal failed. Goal carries the scenario's
	// measurement behind the verdict.
	Contained bool   `json:"contained"`
	Goal      string `json:"goal,omitempty"`

	// InjectCycle is the absolute cycle the attack fired. AttackCycles and
	// TwinCycles are the background traffic's duration (from background
	// start to last background core halting) on the attacked platform and
	// its attack-free twin; Slowdown is their ratio (0 when no background
	// ran). Completed reports both windows finished within MaxCycles.
	InjectCycle  uint64  `json:"inject_cycle"`
	AttackCycles uint64  `json:"attack_cycles"`
	TwinCycles   uint64  `json:"twin_cycles"`
	Slowdown     float64 `json:"slowdown"`
	Completed    bool    `json:"completed"`
	Alerts       int     `json:"alerts"`

	// Reaction & recovery: present only when Config.Recovery was enabled
	// (RecoveryOn). ReactLatency is first alert → deny-all written;
	// QuarantinedCycles totals locked-out cycles (staged probation
	// included); Recovered/RecoveryCycles report background throughput
	// returning to within epsilon of the twin's after the (last) release.
	// Platforms that cannot quarantine — the centralized baseline, the
	// unprotected one — carry RecoveryOn with everything else zero: the
	// measured absence of reaction.
	RecoveryOn        bool              `json:"recovery,omitempty"`
	ReactLatency      uint64            `json:"react_latency,omitempty"`
	QuarantineCycle   uint64            `json:"quarantine_cycle,omitempty"`
	ReleaseCycle      uint64            `json:"release_cycle,omitempty"`
	QuarantinedCycles uint64            `json:"quarantined_cycles,omitempty"`
	RecoveryCycles    uint64            `json:"recovery_cycles,omitempty"`
	Recovered         bool              `json:"recovered,omitempty"`
	Quarantines       uint64            `json:"quarantines,omitempty"`
	TwinRate          float64           `json:"twin_rate,omitempty"`
	Windows           []recovery.Sample `json:"windows,omitempty"`

	// Cores and Firewalls snapshot the attacked platform after the
	// verdict, exactly like the benign sweep's RunResult.
	Cores     []soc.CoreStat  `json:"cores,omitempty"`
	Firewalls []core.Snapshot `json:"firewalls,omitempty"`

	Err string `json:"error,omitempty"`
}

// Background kernels run in a per-core slice of shared BRAM well clear of
// the scratch addresses the scenarios probe (dma-hijack checks BRAM word
// 0, burst-flood stores at BRAMBase+0x3800). External-memory
// backgrounds get per-core slices of the DDR's protected zones instead,
// above the first leaves the memory-attack scenarios target
// (tamper/replay/relocate/spoof probe SecureBase+0x40..0x400, the cipher
// probe CipherBase+0x40).
const (
	bgBase = soc.BRAMBase + 0x4000
	bgSpan = uint32(0x800)

	extBgSecure = soc.SecureBase + 0x1000
	extBgCipher = soc.CipherBase + 0x1000
	extBgSpan   = uint32(0x400) // 16 cores x 1 KiB fits either 32 KiB zone
)

// BackgroundNames lists the accepted benign kernels, internal first.
func BackgroundNames() []string {
	return []string{"stream", "mix", "memcopy", "secure-stream", "secure-scrub", "cipher-mix"}
}

// BackgroundExternal reports whether the named background runs in external
// memory, i.e. routes its traffic through the Local Ciphering Firewall on
// protected platforms.
func BackgroundExternal(name string) bool {
	switch name {
	case "secure-stream", "secure-scrub", "cipher-mix":
		return true
	}
	return false
}

// backgroundCores returns the cores carrying benign load: everything the
// scenario did not reserve.
func backgroundCores(n int, reserved []int) []int {
	taken := make(map[int]bool, len(reserved))
	for _, r := range reserved {
		taken[r] = true
	}
	var out []int
	for i := 0; i < n; i++ {
		if !taken[i] {
			out = append(out, i)
		}
	}
	return out
}

// backgroundSource is the single source of truth for the benign kernel
// set: it assembles the named kernel for the given core's BRAM slice (and
// thereby validates the name, core or no core).
func backgroundSource(name string, core int, accesses, compute int) (string, error) {
	base := bgBase + uint32(core)*bgSpan
	switch name {
	case "mix":
		return workload.Mix(base, bgSpan, 4, accesses, compute), nil
	case "stream":
		words := accesses
		if max := int(bgSpan / 4); words > max {
			words = max
		}
		return workload.Stream(base, words, 4, 0), nil
	case "memcopy":
		words := accesses
		if max := int(bgSpan / 8); words > max {
			words = max
		}
		return workload.MemCopy(base, base+bgSpan/2, words), nil
	case "secure-stream":
		ext := extBgSecure + uint32(core)*extBgSpan
		words := accesses
		if max := int(extBgSpan / 4); words > max {
			words = max
		}
		return workload.Stream(ext, words, 4, 0), nil
	case "secure-scrub":
		ext := extBgSecure + uint32(core)*extBgSpan
		words := accesses
		if max := int(extBgSpan / 4); words > max {
			words = max
		}
		return workload.Scrub(ext, words, 4), nil
	case "cipher-mix":
		ext := extBgCipher + uint32(core)*extBgSpan
		return workload.Mix(ext, extBgSpan, 4, accesses, compute), nil
	default:
		return "", fmt.Errorf("campaign: unknown background %q (want one of %v or none)", name, BackgroundNames())
	}
}

// loadBackground loads the named benign kernel onto each listed core.
// soc's Load revives the halted cores, so the background starts at the
// cycle it is loaded.
func loadBackground(s *soc.System, name string, cores []int, accesses, compute int) error {
	for _, i := range cores {
		src, err := backgroundSource(name, i, accesses, compute)
		if err != nil {
			return err
		}
		if err := s.Load(i, src); err != nil {
			return err
		}
	}
	return nil
}

// RunOne executes a single campaign grid point: boot the twin pair, run
// the scenario's setup on both, start the background, inject on the
// attacked half at the deterministic cycle, measure both background
// windows, and classify. The caller owns Index; RunOne leaves it zero.
func RunOne(cfg Config) Record {
	return RunOneTrace(cfg, nil)
}

// RunOneTrace is RunOne with an incident tracer attached to the attacked
// platform: alerts, reactor transitions, the injection marker, recovery
// throughput windows, core halts and quarantine spans land in tr as the
// run executes. A nil tracer is RunOne exactly — no subscriptions, no
// extra work on the hot path.
func RunOneTrace(cfg Config, tr *obs.Tracer) Record {
	return runOne(cfg, tr, soc.NewPair)
}

// runOne is RunOneTrace with the pair constructor as a parameter, so the
// package's tests can run a grid point on platforms they instrument.
func runOne(cfg Config, tr *obs.Tracer, newPair func(soc.Config) (*soc.Pair, error)) Record {
	cfg = cfg.Normalize()
	rec := Record{
		Name:       cfg.Name(),
		Scenario:   cfg.Scenario,
		Protection: cfg.Protection.String(),
		Background: cfg.Background,
		NumCores:   cfg.NumCores,
	}
	fail := func(err error) Record {
		rec.Err = err.Error()
		return rec
	}

	// Each half of the pair needs its own scenario instance: Setup binds
	// per-run state (probe masters, memory snapshots) to its platform.
	scAtk, err := attack.New(cfg.Scenario)
	if err != nil {
		return fail(err)
	}
	scTwin, _ := attack.New(cfg.Scenario)
	if cfg.NumCores < scAtk.MinCores() {
		return fail(fmt.Errorf("campaign: %s needs >= %d cores, have %d",
			cfg.Scenario, scAtk.MinCores(), cfg.NumCores))
	}
	if cfg.Background != "none" {
		// Validate the kernel name up front (even when the scenario
		// reserves every core and nothing would be loaded).
		if _, err := backgroundSource(cfg.Background, 0, cfg.Accesses, cfg.Compute); err != nil {
			return fail(err)
		}
	}

	socCfg := soc.Config{Protection: cfg.Protection, NumCores: cfg.NumCores}
	if cfg.Recovery.Enabled() {
		// Arm the quarantine Reactor (distributed platforms only; the
		// baselines ignore the knob — their inability to react is the
		// result). Both halves get identical configs so the pair stays
		// cycle-identical up to injection.
		socCfg.QuarantineThreshold = cfg.Recovery.QuarantineThreshold
		socCfg.QuarantineWindow = cfg.Recovery.QuarantineWindow
	}
	pair, err := newPair(socCfg)
	if err != nil {
		return fail(err)
	}
	// The tracer watches the attacked half only; the twin is the
	// counterfactual baseline, not a timeline of interest.
	obs.Attach(tr, pair.Attacked)
	var sup *recovery.Supervisor
	if cfg.Recovery.Enabled() {
		rec.RecoveryOn = true
		sup = recovery.Attach(pair.Attacked, cfg.Recovery)
	}
	bg := backgroundCores(cfg.NumCores, scAtk.Reserved(cfg.NumCores))

	// Identical pre-attack phase on both halves: quiesce the cores, run
	// the scenario's setup (victim writes on a quiet platform), start the
	// background. Determinism makes both engines land on the same cycle.
	prep := func(s *soc.System, sc attack.Scenario) error {
		s.HaltIdleCores()
		if err := sc.Setup(s); err != nil {
			return err
		}
		if cfg.Background != "none" {
			return loadBackground(s, cfg.Background, bg, cfg.Accesses, cfg.Compute)
		}
		return nil
	}
	if err := prep(pair.Attacked, scAtk); err != nil {
		return fail(err)
	}
	if err := prep(pair.Twin, scTwin); err != nil {
		return fail(err)
	}
	start := pair.Attacked.Eng.Now()
	if twinStart := pair.Twin.Eng.Now(); twinStart != start {
		return fail(fmt.Errorf("campaign: twin diverged before injection (%d vs %d)", twinStart, start))
	}

	injectAt := start + cfg.InjectDelay
	pair.Attacked.RunToCycle(injectAt)
	pair.Twin.RunToCycle(injectAt)
	rec.InjectCycle = injectAt
	if cfg.Background != "none" && len(bg) > 0 && pair.Attacked.CoresHalted(bg...) {
		// The background ran out before the attack fired: the record
		// would claim containment of an attack nothing witnessed (and the
		// slowdown would be a meaningless 1.0). Refuse rather than
		// mislead — the caller must shorten -inject-delay or lengthen the
		// background.
		return fail(fmt.Errorf("campaign: background finished before injection at cycle %d (inject delay %d too long for %s/%d accesses)",
			injectAt, cfg.InjectDelay, cfg.Background, cfg.Accesses))
	}
	tr.Emit(obs.Event{Kind: obs.KindInject, Cycle: injectAt,
		Track: obs.TrackAttack, Name: "inject", Arg: cfg.Scenario})
	if err := scAtk.Inject(pair.Attacked); err != nil {
		return fail(err)
	}

	switch {
	case cfg.Background == "none" || len(bg) == 0:
		// Quiet grid point: no bystanders to measure. Run the attacked
		// half out (hijacked programs execute; never-halting floods are
		// budget-bounded) so the verdict judges the attack's full effect
		// on an idle platform; the twin stays parked at the injection
		// cycle.
		// Completed stays honest: a flood that spins to the budget is a
		// truncated window, not a finished one. The supervisor's release
		// events still fire inside the run, so the reactor stamps are
		// harvested even without a throughput timeline.
		_, rec.Completed = pair.Attacked.Run(cfg.MaxCycles)
		if cfg.Recovery.Enabled() {
			rec.applyRecovery(recovery.Summarize(pair.Attacked))
		}
	case cfg.Recovery.Enabled():
		// Third phase: lockstep sampling windows drive both halves,
		// the supervisor releases on schedule, and the report prices the
		// whole incident. Windowed stepping stops each half at exactly
		// the cycle the plain RunUntilCores path would, so the twin-run
		// economics below stay comparable across modes.
		rep := recovery.Measure(pair, bg, cfg.MaxCycles, cfg.Recovery)
		rec.Completed = rep.Completed
		rec.applyRecovery(rep)
		rec.AttackCycles = pair.Attacked.Eng.Now() - start
		rec.TwinCycles = pair.Twin.Eng.Now() - start
		if rec.TwinCycles > 0 {
			rec.Slowdown = float64(rec.AttackCycles) / float64(rec.TwinCycles)
		}
	default:
		// Measured window: from background start until the background
		// cores halt on each half (never-halting attackers are excluded
		// from the halt condition by construction).
		_, okA := pair.Attacked.RunUntilCores(cfg.MaxCycles, bg...)
		_, okT := pair.Twin.RunUntilCores(cfg.MaxCycles, bg...)
		rec.Completed = okA && okT
		rec.AttackCycles = pair.Attacked.Eng.Now() - start
		rec.TwinCycles = pair.Twin.Eng.Now() - start
		if rec.TwinCycles > 0 {
			rec.Slowdown = float64(rec.AttackCycles) / float64(rec.TwinCycles)
		}
	}
	if sup != nil && sup.Err != nil {
		return fail(sup.Err)
	}

	v := scAtk.Verify(pair.Attacked, rec.Slowdown)
	if v.Err != nil {
		return fail(v.Err)
	}
	rec.Contained = !v.GoalMet
	rec.Goal = v.Notes

	n, first := pair.Attacked.Alerts.Since(injectAt)
	rec.Alerts = n
	if first != nil {
		rec.Detected = true
		rec.DetectedBy = first.FirewallID
		rec.Violation = first.Violation.String()
		rec.DetectLatency = first.Cycle - injectAt
	}
	rec.Cores = pair.Attacked.CoreStats()
	rec.Firewalls = pair.Attacked.FirewallStats()
	for _, s := range rec.Windows {
		tr.Emit(obs.Event{Kind: obs.KindWindow, Cycle: s.End,
			Value: ratioMilli(s.Ratio), Track: obs.TrackThroughput, Name: "window"})
	}
	obs.Harvest(tr, pair.Attacked)
	return rec
}

// ratioMilli fixes a throughput ratio into thousandths for the trace's
// counter track.
func ratioMilli(v float64) uint64 {
	if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return uint64(math.Round(v * 1000))
}

// applyRecovery copies the incident bill into the record.
func (r *Record) applyRecovery(rep recovery.Report) {
	r.ReactLatency = rep.ReactLatency
	r.QuarantineCycle = rep.QuarantineCycle
	r.ReleaseCycle = rep.ReleaseCycle
	r.QuarantinedCycles = rep.QuarantinedCycles
	r.RecoveryCycles = rep.RecoveryCycles
	r.Recovered = rep.Recovered
	r.Quarantines = rep.Quarantines
	r.TwinRate = rep.TwinRate
	r.Windows = rep.Windows
}

// Each executes this shard's portion of the grid on a worker pool and
// calls emit once per run in ascending global grid index order — the
// campaign instantiation of sweep.Stream, with cost-aware shard slicing
// (Weights). See sweep.Stream for the reorder-buffer and cancellation
// contract.
func Each(cfgs []Config, sh sweep.Shard, workers int, emit func(Record) error) error {
	return EachContext(context.Background(), cfgs, sh, workers, emit)
}

// EachContext is Each with cancellation — see sweep.StreamContext for the
// contract a canceled context buys.
func EachContext(ctx context.Context, cfgs []Config, sh sweep.Shard, workers int, emit func(Record) error) error {
	return sweep.StreamContext(ctx, len(cfgs), sh, Weights(cfgs), workers, func(i int) Record {
		r := RunOne(cfgs[i])
		r.Index = i
		return r
	}, emit)
}

// traced pairs a record with its run's tracer for the reorder pipeline.
type traced struct {
	rec Record
	tr  *obs.Tracer
}

// EachTrace is EachContext with a fresh bounded tracer per run (limit
// events each; a non-positive limit disables tracing and passes nil
// tracers). Tracers ride the same index-ordered reorder pipeline as their
// records, so emit sees run i's record and trace together, in ascending
// global grid order — which is what makes a whole campaign's concatenated
// trace byte-identical across worker counts.
func EachTrace(ctx context.Context, cfgs []Config, sh sweep.Shard, workers, limit int, emit func(Record, *obs.Tracer) error) error {
	return sweep.StreamContext(ctx, len(cfgs), sh, Weights(cfgs), workers, func(i int) traced {
		tr := obs.New(limit)
		r := RunOneTrace(cfgs[i], tr)
		r.Index = i
		return traced{rec: r, tr: tr}
	}, func(t traced) error {
		return emit(t.rec, t.tr)
	})
}
