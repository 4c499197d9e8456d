package directory

import (
	"slices"
	"testing"

	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// TestPhaseTable: every (phase, event) pair the protocol produces moves a
// view as listed here — a second statement of the state machine, checked
// against phaseTable through transition — with the registry's conflict
// index in step (a lost view is in no conflict set), and every pair not
// listed panics.
func TestPhaseTable(t *testing.T) {
	I, A, L, G := PhaseInactive, PhaseActive, PhaseLost, PhaseGone
	listed := map[event]map[Phase]Phase{
		evRegister:       {I: I},
		evReRegister:     {I: I, A: A, L: I},
		evClaim:          {L: I},
		evServe:          {I: A, A: A, L: L, G: G},
		evInvalidated:    {I: I, A: I, L: L, G: G},
		evEvicted:        {I: L, A: L, L: L, G: G},
		evRevived:        {I: I, A: A, L: I, G: G},
		evDrop:           {I: G, A: G, L: G},
		evRecordInactive: {I: I, A: I, L: I, G: G},
		evRecordActive:   {I: A, A: A, L: A, G: G},
		evRecordLost:     {I: L, A: L, L: L, G: G},
	}
	props := property.MustSet("F={0}")
	for ev := event(0); ev < nEvents; ev++ {
		for from := Phase(0); from < nPhases; from++ {
			m, err := New("dm", newLaneKV(), vclock.NewSim(), transport.NewInproc(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"v", "peer"} {
				if reply := m.handle(&wire.Message{Type: wire.TRegister, From: name, Props: props}); reply.Type == wire.TErr {
					t.Fatal(reply.Err)
				}
			}
			vs, _ := m.viewState("v")
			switch from {
			case A:
				m.transition(vs, evServe)
			case L:
				m.transition(vs, evEvicted)
			case G:
				m.dropView("v")
			}
			to, ok := listed[ev][from]
			got, panicked := func() (p Phase, panicked bool) {
				defer func() { panicked = recover() != nil }()
				m.transition(vs, ev)
				return vs.phaseOf(), false
			}()
			switch {
			case !ok && !panicked:
				t.Errorf("event %d in phase %s moved to %s; the pair is not listed and must panic", ev, from, got)
			case ok && panicked:
				t.Errorf("event %d in phase %s panicked, want %s", ev, from, to)
			case ok && got != to:
				t.Errorf("event %d in phase %s moved to %s, want %s", ev, from, got, to)
			case ok && to != G && slices.Contains(m.reg.ConflictingWith("peer", false), "v") == (to == L):
				t.Errorf("event %d in phase %s: conflict index out of step with phase %s", ev, from, to)
			}
			m.Close()
		}
	}
}
