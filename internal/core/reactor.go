package core

import "fmt"

// Reactor implements the paper's stated future work: "reconfiguration of
// security services (i.e. modification of security policies) to counter
// some attacks". It watches the alert stream and, when one IP accumulates
// violations faster than a budget allows, rewrites that IP's security
// policy to deny everything — quarantining the compromised IP inside its
// own interface, including zones it was previously allowed to touch (a
// hijacked IP's *legal* traffic is exfiltration surface too).
//
// Quarantine is reversible, in one step or two. Release restores the full
// saved policy, modeling a supervisor clearing the incident. ReleaseStaged
// models cautious re-admission: only a supervisor-chosen subset of the
// saved rules (canonically the integrity-monitored memory zones, where any
// misbehaviour is provable) is restored, and the master enters probation —
// a single further violation re-quarantines it immediately, with no
// threshold grace.
//
// Every transition is stamped with its cycle (QuarantineStamp), so the
// incident-lifecycle engine in internal/recovery can price time-to-
// quarantine, quarantine duration and time-to-recovery without scraping
// the alert log.
type Reactor struct {
	// Threshold is the number of violations within Window that triggers
	// quarantine.
	Threshold int
	// Window is the sliding time window in cycles. Zero means "ever".
	Window uint64

	// Clock, when set, supplies the current cycle for Release stamps
	// (quarantine stamps come from the triggering alert itself).
	// soc.New wires it to the engine clock.
	Clock func() uint64
	// observers receive every lifecycle transition (OnEvent). The hook is
	// multicast: the recovery supervisor schedules releases from the
	// quarantine kinds, and tracing watches the same stream without
	// displacing that control loop.
	observers []func(ReactorEvent)

	guarded   map[string]*ConfigMemory
	history   map[string][]uint64 // violation cycles per master, capped at Threshold
	saved     map[string][]Policy // policies stashed at quarantine time
	probation map[string]bool     // staged re-admission in progress
	open      map[string]int      // index into stamps of the unresolved incident

	stamps []QuarantineStamp

	// Quarantines counts trigger events, including probation
	// re-quarantines (for reports).
	Quarantines uint64
}

// QuarantineStamp records the cycle boundaries of one quarantine incident
// — one continuous Quarantined() span. A probation re-quarantine belongs
// to the same incident (the stamp keeps the original FirstAlert and
// QuarantinedAt; StagedAt resets until a staged release sticks); only a
// fresh quarantine after a full release opens a new stamp.
type QuarantineStamp struct {
	// Master is the quarantined IP.
	Master string `json:"master"`
	// FirstAlert is the earliest violation cycle in the window that
	// tripped the threshold.
	FirstAlert uint64 `json:"first_alert"`
	// QuarantinedAt is the cycle the deny-all policy was written.
	QuarantinedAt uint64 `json:"quarantined_at"`
	// StagedAt is the cycle a partial (staged) restore began; zero when
	// the incident was released in one step.
	StagedAt uint64 `json:"staged_at,omitempty"`
	// ReleasedAt is the cycle the full policy was restored; zero while the
	// master is still quarantined (or on probation).
	ReleasedAt uint64 `json:"released_at,omitempty"`
}

// ReactorEvent is one lifecycle transition, delivered synchronously to
// OnEvent observers at the cycle it happens.
type ReactorEvent struct {
	// Kind is the transition: "quarantine" (threshold trip),
	// "requarantine" (probation violation), "staged-release" (partial
	// restore, probation begins) or "release" (full restore, incident
	// closed).
	Kind string
	// Master is the IP the transition concerns.
	Master string
	// Cycle is when it happened (the triggering alert's cycle for the
	// quarantine kinds, the reactor clock for the release kinds).
	Cycle uint64
}

// Reactor lifecycle transition kinds (ReactorEvent.Kind).
const (
	EventQuarantine    = "quarantine"
	EventRequarantine  = "requarantine"
	EventStagedRelease = "staged-release"
	EventRelease       = "release"
)

// OnEvent registers an observer for every lifecycle transition. Observers
// run synchronously in registration order, after the transition's policy
// rewrite.
func (r *Reactor) OnEvent(fn func(ReactorEvent)) {
	if fn == nil {
		panic("core: OnEvent(nil)")
	}
	r.observers = append(r.observers, fn)
}

// notify fans a transition out to the observers.
func (r *Reactor) notify(kind, master string, cycle uint64) {
	for _, fn := range r.observers {
		fn(ReactorEvent{Kind: kind, Master: master, Cycle: cycle})
	}
}

// NewReactor subscribes a reactor to the alert log. Call Guard to place
// firewalls under its control.
func NewReactor(log *AlertLog, threshold int, window uint64) *Reactor {
	if threshold < 1 {
		threshold = 1
	}
	r := &Reactor{
		Threshold: threshold,
		Window:    window,
		guarded:   make(map[string]*ConfigMemory),
		history:   make(map[string][]uint64),
		saved:     make(map[string][]Policy),
		probation: make(map[string]bool),
		open:      make(map[string]int),
	}
	log.Subscribe(r.onAlert)
	return r
}

// Guard registers the configuration memory enforcing policy for the given
// master (its master-side Local Firewall). Alerts raised *about* that
// master anywhere in the system count toward its violation budget; the
// quarantine is applied at the source interface.
func (r *Reactor) Guard(master string, cm *ConfigMemory) {
	r.guarded[master] = cm
}

// Quarantined reports whether the master is currently locked out (fully,
// or partially re-admitted on probation).
func (r *Reactor) Quarantined(master string) bool {
	_, q := r.saved[master]
	return q
}

// Probation reports whether the master is in staged re-admission: part of
// its policy restored, zero tolerance for further violations.
func (r *Reactor) Probation(master string) bool { return r.probation[master] }

// HistoryLen reports how many violation cycles are currently retained for
// the master. The reactor prunes on append and caps retention at
// Threshold, so this never exceeds the trigger budget — the introspection
// hook for the no-unbounded-growth invariant.
func (r *Reactor) HistoryLen(master string) int { return len(r.history[master]) }

// RecoverySnapshot returns the quarantine/release cycle stamps of every
// incident so far, in trigger order.
func (r *Reactor) RecoverySnapshot() []QuarantineStamp {
	return append([]QuarantineStamp(nil), r.stamps...)
}

// SavedPolicies returns a copy of the rules stashed when the master was
// quarantined — what Release will restore — or nil when the master is not
// quarantined. Introspection hook for internal/modelcheck: the checker
// compares the live Configuration Memory against this set to prove that
// staged re-admission never restores more than the supervisor allowed and
// that a full Release restores exactly the pre-incident policy.
func (r *Reactor) SavedPolicies(master string) []Policy {
	rules, ok := r.saved[master]
	if !ok {
		return nil
	}
	return append([]Policy(nil), rules...)
}

// OpenIncident returns the stamp of the master's unresolved incident (the
// one a probation violation re-quarantines into) and whether one is open.
// Introspection hook for internal/modelcheck: invariant (c) — a staged
// master that violates is re-quarantined within the *same* incident —
// is checked by asserting the open stamp index does not change across the
// violation.
func (r *Reactor) OpenIncident(master string) (stamp QuarantineStamp, index int, ok bool) {
	i, ok := r.open[master]
	if !ok {
		return QuarantineStamp{}, -1, false
	}
	return r.stamps[i], i, true
}

func (r *Reactor) now() uint64 {
	if r.Clock != nil {
		return r.Clock()
	}
	return 0
}

// Release restores the master's full pre-quarantine policy and closes the
// incident. It returns an error if the master is not quarantined.
func (r *Reactor) Release(master string) error {
	rules, ok := r.saved[master]
	if !ok {
		return fmt.Errorf("core: %q is not quarantined", master)
	}
	cm := r.guarded[master]
	for _, p := range cm.Policies() {
		cm.Remove(p.SPI)
	}
	for _, p := range rules {
		if err := cm.Add(p); err != nil {
			return err
		}
	}
	delete(r.saved, master)
	delete(r.probation, master)
	r.history[master] = nil
	if i, ok := r.open[master]; ok {
		r.stamps[i].ReleasedAt = r.now()
		delete(r.open, master)
	}
	r.notify(EventRelease, master, r.now())
	return nil
}

// ReleaseStaged begins staged re-admission: every saved rule admitted by
// allow is restored, the rest stay revoked, and the master enters
// probation — its next violation re-quarantines it immediately. The
// incident stays open (Quarantined remains true) until Release restores
// the full policy. A nil allow admits nothing (pure probation).
func (r *Reactor) ReleaseStaged(master string, allow func(Policy) bool) error {
	rules, ok := r.saved[master]
	if !ok {
		return fmt.Errorf("core: %q is not quarantined", master)
	}
	cm := r.guarded[master]
	for _, p := range cm.Policies() {
		cm.Remove(p.SPI)
	}
	for _, p := range rules {
		if allow != nil && allow(p) {
			if err := cm.Add(p); err != nil {
				return err
			}
		}
	}
	r.probation[master] = true
	if i, ok := r.open[master]; ok && r.stamps[i].StagedAt == 0 {
		r.stamps[i].StagedAt = r.now()
	}
	r.notify(EventStagedRelease, master, r.now())
	return nil
}

// quarantine rewrites the master's policy to deny-all, stamps the
// incident, and notifies the observers. firstAlert is the earliest
// violation cycle attributed to the incident.
func (r *Reactor) quarantine(master string, cm *ConfigMemory, firstAlert, cycle uint64) {
	if _, open := r.open[master]; !open {
		// Re-quarantine from probation keeps the original saved rules: the
		// configuration memory currently holds only the partial stage-1
		// set, and the pre-incident policy is what Release must restore.
		if _, ok := r.saved[master]; !ok {
			r.saved[master] = cm.Policies()
		}
		r.open[master] = len(r.stamps)
		r.stamps = append(r.stamps, QuarantineStamp{
			Master:        master,
			FirstAlert:    firstAlert,
			QuarantinedAt: cycle,
		})
	}
	for _, p := range cm.Policies() {
		cm.Remove(p.SPI)
	}
	r.history[master] = nil
	r.Quarantines++
	r.notify(EventQuarantine, master, cycle)
}

func (r *Reactor) onAlert(a *Alert) {
	cm, guarded := r.guarded[a.Master]
	if !guarded {
		return
	}
	if r.probation[a.Master] {
		// Zero tolerance during staged re-admission: one violation slams
		// the door again. The incident — the saved policies and the open
		// stamp spanning the continuous Quarantined() interval — is the
		// same one, but it counts as a fresh trigger and renotifies the
		// supervisor. StagedAt resets; a later successful staged release
		// restamps it.
		delete(r.probation, a.Master)
		if i, ok := r.open[a.Master]; ok {
			r.stamps[i].StagedAt = 0
		}
		for _, p := range cm.Policies() {
			cm.Remove(p.SPI)
		}
		r.Quarantines++
		r.notify(EventRequarantine, a.Master, a.Cycle)
		return
	}
	if r.Quarantined(a.Master) {
		return
	}
	h := append(r.history[a.Master], a.Cycle)
	// Slide the window.
	if r.Window > 0 {
		cut := 0
		for cut < len(h) && h[cut]+r.Window < a.Cycle {
			cut++
		}
		h = h[cut:]
	}
	// Cap retained entries: only the Threshold most recent violations can
	// ever matter to the trigger decision, so the history never grows
	// beyond that — regardless of window size or alert rate.
	if len(h) > r.Threshold {
		h = h[len(h)-r.Threshold:]
	}
	r.history[a.Master] = h
	if len(h) < r.Threshold {
		return
	}
	// Quarantine: stash the policy and deny everything (the Configuration
	// Memory default-denies whatever no rule allows).
	r.quarantine(a.Master, cm, h[0], a.Cycle)
}
