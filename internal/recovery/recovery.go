// Package recovery is the incident-lifecycle engine: it drives a platform
// through the third phase of an attack campaign — after inject and detect
// comes *react and recover* — and prices every leg of the incident.
//
// The paper's stated future work is "reconfiguration of security services
// (i.e. modification of security policies) to counter some attacks".
// internal/core's Reactor implements the reconfiguration itself (deny-all
// quarantine of a misbehaving master, reversible via Release); this
// package adds the two things a reconfiguration claim needs to be
// measurable:
//
//   - A deterministic supervisor model (Supervisor): after a configurable
//     clear-delay it releases the quarantined master, either in one step
//     or staged — first re-admitting only the integrity-monitored memory
//     zones (where any further misbehaviour is provable), with a single
//     probation violation slamming the door again, then restoring the
//     full policy after a stage delay. Every action is an engine event at
//     a deterministic cycle, so campaign streams stay byte-identical
//     across workers and shards.
//
//   - A lockstep throughput meter (Measure): the attacked platform and
//     its attack-free twin advance through fixed sampling windows, and
//     the background cores' instruction rate per window — normalized to
//     the twin's steady-state rate — yields a timeline of bystander cost
//     around inject, quarantine and release. A run has *recovered* when,
//     after the release, a window's rate is back within epsilon of the
//     twin's.
//
// Together with the Reactor's cycle stamps this turns each campaign
// record into a full incident bill: detect latency (inject → first
// alert), react latency (first alert → deny-all written), quarantine
// duration, bystander cost while quarantined, and recovery time back to
// twin throughput.
package recovery

import (
	"repro/internal/core"
	"repro/internal/soc"
)

// Default supervisor/meter parameters, applied by Normalize.
const (
	DefaultClearDelay   = 4000
	DefaultStageDelay   = 1000
	DefaultSampleWindow = 250
	DefaultEpsilon      = 0.1
	DefaultThreshold    = 3
)

// Params configures the reaction-and-recovery phase of a run: the
// quarantine trigger (wired into soc.Config), the supervisor's release
// schedule, and the throughput meter.
type Params struct {
	// QuarantineThreshold is the violation count that trips quarantine;
	// zero disables the whole phase (the zero Params value means "off").
	QuarantineThreshold int `json:"quarantine_threshold"`
	// QuarantineWindow is the reactor's sliding alert window in cycles
	// (0 = ever).
	QuarantineWindow uint64 `json:"quarantine_window,omitempty"`
	// ClearDelay is how many cycles after a quarantine the supervisor
	// clears the incident and begins re-admission.
	ClearDelay uint64 `json:"clear_delay"`
	// Staged selects two-step re-admission: integrity-monitored zones
	// first (probation), full policy StageDelay later.
	Staged bool `json:"staged,omitempty"`
	// StageDelay is the probation length before the full restore.
	StageDelay uint64 `json:"stage_delay,omitempty"`
	// SampleWindow is the throughput sampling window in cycles.
	SampleWindow uint64 `json:"sample_window"`
	// Epsilon is the recovery tolerance: a post-release window whose
	// background rate is at least (1-Epsilon) of the twin's steady-state
	// rate counts as recovered.
	Epsilon float64 `json:"epsilon"`
}

// Enabled reports whether the reaction-and-recovery phase is on.
func (p Params) Enabled() bool { return p.QuarantineThreshold > 0 }

// Normalize fills defaulted fields in place and returns the params.
// A disabled Params stays disabled.
func (p Params) Normalize() Params {
	if !p.Enabled() {
		return p
	}
	if p.ClearDelay == 0 {
		p.ClearDelay = DefaultClearDelay
	}
	if p.StageDelay == 0 {
		p.StageDelay = DefaultStageDelay
	}
	if p.SampleWindow == 0 {
		p.SampleWindow = DefaultSampleWindow
	}
	if p.Epsilon == 0 {
		p.Epsilon = DefaultEpsilon
	}
	return p
}

// IMZoneOnly is the default staged-re-admission filter: it admits the
// policies whose zones overlap the integrity-monitored (CM+IM) external
// memory region — the one place a re-admitted master cannot cheat
// undetected, since every read is verified against the on-chip tree root.
func IMZoneOnly(p core.Policy) bool {
	return p.Zone.Overlaps(core.Zone{Base: soc.SecureBase, Size: soc.SecureSize})
}

// Supervisor is the deterministic incident-response model: it subscribes
// to the platform reactor's quarantine notifications and schedules the
// release(s) as engine events. All state is per-platform and all actions
// fire at cycles fully determined by the quarantine cycle and the Params,
// so runs remain reproducible.
type Supervisor struct {
	Params

	// StageAllow filters the policies restored by a staged release
	// (default IMZoneOnly).
	StageAllow func(core.Policy) bool

	// Releases counts completed full releases; StagedReleases counts
	// stage-1 (probation) restores.
	Releases       uint64
	StagedReleases uint64
	// Err records the first release error (impossible with well-formed
	// policies; surfaced rather than swallowed).
	Err error

	sys *soc.System
	gen map[string]uint64 // per-master quarantine generation, to drop stale events
}

// Attach wires a supervisor to the platform. On platforms without a
// reactor (no quarantine threshold, or a non-distributed architecture) it
// attaches nothing and the supervisor never acts — which is exactly the
// centralized baseline's story: detection without reaction.
func Attach(s *soc.System, p Params) *Supervisor {
	sup := &Supervisor{
		Params:     p.Normalize(),
		StageAllow: IMZoneOnly,
		sys:        s,
		gen:        make(map[string]uint64),
	}
	if s.Reactor != nil {
		s.Reactor.OnEvent(sup.onEvent)
	}
	return sup
}

// onEvent runs synchronously on every reactor transition and acts on the
// ones that write a deny-all policy — the initial threshold trip and every
// probation re-quarantine. Each trigger advances the master's generation
// so release events scheduled for superseded incidents turn into no-ops.
func (sup *Supervisor) onEvent(e core.ReactorEvent) {
	if e.Kind != core.EventQuarantine && e.Kind != core.EventRequarantine {
		return
	}
	sup.gen[e.Master]++
	g := sup.gen[e.Master]
	sup.sys.Eng.ScheduleAt(e.Cycle+sup.ClearDelay, func(now uint64) {
		sup.clear(e.Master, g, now)
	})
}

// clear is the supervisor's incident-cleared action: full release, or
// stage 1 of the staged form.
func (sup *Supervisor) clear(master string, g uint64, now uint64) {
	r := sup.sys.Reactor
	if sup.gen[master] != g || !r.Quarantined(master) {
		return // superseded by a re-quarantine, or already released
	}
	if !sup.Staged {
		sup.finish(master, g)
		return
	}
	if err := r.ReleaseStaged(master, sup.StageAllow); err != nil {
		sup.fail(err)
		return
	}
	sup.StagedReleases++
	sup.sys.Eng.ScheduleAt(now+sup.StageDelay, func(uint64) {
		if sup.gen[master] != g || !r.Probation(master) {
			return // probation violated: a re-quarantine took over
		}
		sup.finish(master, g)
	})
}

// finish restores the full policy.
func (sup *Supervisor) finish(master string, g uint64) {
	if sup.gen[master] != g {
		return
	}
	if err := sup.sys.Reactor.Release(master); err != nil {
		sup.fail(err)
		return
	}
	sup.Releases++
}

func (sup *Supervisor) fail(err error) {
	if sup.Err == nil {
		sup.Err = err
	}
}
