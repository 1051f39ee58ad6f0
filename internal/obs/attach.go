package obs

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/soc"
)

// Track names for platform-level lanes (firewall and core tracks use the
// component's own name).
const (
	TrackAlerts     = "alerts"
	TrackReactor    = "reactor"
	TrackAttack     = "attack"
	TrackThroughput = "bg-throughput"
)

// Attach subscribes the tracer to the platform's incident sources: every
// alert becomes a deny event on the raising firewall's track plus an alert
// event on the global alerts track, and every reactor transition
// (quarantine, probation re-quarantine, staged release, release) becomes
// an event on the reactor track. A nil tracer attaches nothing — the
// disabled path adds no subscription and costs the simulation zero.
//
// Attach before the run; alerts raised earlier are not replayed.
func Attach(t *Tracer, s *soc.System) {
	if t == nil {
		return
	}
	s.Alerts.Subscribe(func(a *core.Alert) {
		detail := fmt.Sprintf("%s %s @%#x/%dB", a.Master, a.Op, a.Addr, a.Size)
		t.Emit(Event{Kind: KindDeny, Cycle: a.Cycle, Track: a.FirewallID,
			Name: "deny", Arg: detail})
		t.Emit(Event{Kind: KindAlert, Cycle: a.Cycle, Track: TrackAlerts,
			Name: a.Violation.String(), Arg: a.Master})
	})
	if s.Reactor != nil {
		s.Reactor.OnEvent(func(e core.ReactorEvent) {
			t.Emit(Event{Kind: reactorKind(e.Kind), Cycle: e.Cycle,
				Track: TrackReactor, Name: e.Kind, Arg: e.Master})
		})
	}
}

// reactorKind maps core's transition names onto event kinds.
func reactorKind(kind string) Kind {
	switch kind {
	case core.EventRequarantine:
		return KindRequarantine
	case core.EventStagedRelease:
		return KindStagedRelease
	case core.EventRelease:
		return KindRelease
	default:
		return KindQuarantine
	}
}

// Harvest emits the post-run events only the finished platform knows: one
// halt event per halted core (on that core's track, labeled with the halt
// cause) and one incident span per quarantine stamp — open incidents are
// closed at the platform's current cycle. A nil tracer harvests nothing.
func Harvest(t *Tracer, s *soc.System) {
	if t == nil {
		return
	}
	for _, c := range s.Cores {
		if cycle, ok := c.HaltCycle(); ok {
			_, cause := c.Halted()
			t.Emit(Event{Kind: KindHalt, Cycle: cycle, Track: c.Name(),
				Name: "halt", Arg: cause.String()})
		}
	}
	if s.Reactor != nil {
		for _, st := range s.Reactor.RecoverySnapshot() {
			end := st.ReleasedAt
			if end == 0 {
				end = s.Eng.Now()
			}
			t.Emit(Event{Kind: KindIncident, Cycle: st.QuarantinedAt,
				Dur: end - st.QuarantinedAt, Track: "incident:" + st.Master,
				Name: "incident", Arg: st.Master})
		}
	}
}
