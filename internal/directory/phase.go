package directory

import (
	"fmt"
	"sort"
)

// Phase is a view's place in the directory manager's per-view state
// machine (paper §4.2). It lives on the view's record beside mode, seen
// and op class, and it is the only place the directory reads a view's
// activity from. Mode is not folded in: set-mode moves it in any phase.
type Phase uint8

const (
	// PhaseInactive: registered, holding no image the directory must
	// invalidate, gather from or update.
	PhaseInactive Phase = iota
	// PhaseActive: served an init or pull since it was last inactive. Only
	// active views take part in invalidation, gather and propagation.
	PhaseActive
	// PhaseLost: evicted after its cache manager stopped answering. The
	// record keeps seen, mode and props so a reconnecting manager resumes,
	// but the view is out of the conflict index and the log-compaction
	// floor until a message from it revives it.
	PhaseLost
	// PhaseGone: unregistered; the record is off the books.
	// The replication journal may still hold it and ships its removal.
	PhaseGone
	nPhases
)

func (p Phase) String() string {
	if p < nPhases {
		return [nPhases]string{"inactive", "active", "lost", "gone"}[p]
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// event is something that happens to a view's record. The events up to
// evDrop change its registration, so the journal ships its full record.
type event uint8

const (
	evRegister    event = iota // a fresh record is registered
	evReRegister               // its holder registers again with the same props
	evClaim                    // a new holder takes a lost view's name
	evRevived                  // a message arrived from it while lost
	evDrop                     // unregistered, or removed by a replication record
	evServe                    // an init or pull is answered
	evInvalidated              // it surrendered its image to a pull
	evEvicted                  // a directory-initiated call found it unreachable
	// A replication or checkpoint record carrying phase p is installed or
	// touched: event evRecordInactive + p.
	evRecordInactive
	evRecordActive
	evRecordLost
	nEvents
)

// none marks a (phase, event) pair the protocol never produces.
const none = nPhases

// phaseTable[e][p] is the phase event e moves a view in phase p to, in
// column order inactive, active, lost, gone. A cell that keeps its phase
// absorbs an event that raced another transition: a pull answered after
// its view was evicted leaves it lost, one answered after it was dropped
// leaves it gone.
var phaseTable = [nEvents][nPhases]Phase{
	evRegister:       {PhaseInactive, none, none, none},
	evReRegister:     {PhaseInactive, PhaseActive, PhaseInactive, none},
	evClaim:          {none, none, PhaseInactive, none},
	evRevived:        {PhaseInactive, PhaseActive, PhaseInactive, PhaseGone},
	evDrop:           {PhaseGone, PhaseGone, PhaseGone, none},
	evServe:          {PhaseActive, PhaseActive, PhaseLost, PhaseGone},
	evInvalidated:    {PhaseInactive, PhaseInactive, PhaseLost, PhaseGone},
	evEvicted:        {PhaseLost, PhaseLost, PhaseLost, PhaseGone},
	evRecordInactive: {PhaseInactive, PhaseInactive, PhaseInactive, PhaseGone},
	evRecordActive:   {PhaseActive, PhaseActive, PhaseActive, PhaseGone},
	evRecordLost:     {PhaseLost, PhaseLost, PhaseLost, PhaseGone},
}

// transition is the one place a view's phase changes: it moves vs by ev
// along phaseTable, keeps the registry's conflict index in step — a view
// leaves it on becoming lost and re-enters on leaving lost — and notes
// the change for replication. Leaving lost adds conflict edges, so the
// caller then holds the structural gate. A pair the table does not list
// is a bug and panics. It returns the phase before.
func (m *Manager) transition(vs *viewState, ev event) Phase {
	vs.mu.Lock()
	from := m.transitionLocked(vs, ev)
	vs.mu.Unlock()
	m.viewChanged(vs, ev <= evDrop)
	return from
}

// transitionLocked is transition's step under vs.mu, which the caller
// holds and releases; the caller then notes the change (viewChanged). It
// counts every evServe in vs.served, the view's serve generation.
func (m *Manager) transitionLocked(vs *viewState, ev event) Phase {
	from := vs.phase
	to := phaseTable[ev][from]
	if to == none {
		vs.mu.Unlock()
		panic(fmt.Sprintf("directory %s: view %s: event %d in phase %s", m.name, vs.name, ev, from))
	}
	// A dropped view has already left the registry.
	if (from == PhaseLost) != (to == PhaseLost) && to != PhaseGone {
		m.reg.SetLost(vs.name, to == PhaseLost)
	}
	vs.phase = to
	if ev == evServe {
		vs.served++
	}
	return from
}

// collecting starts a collect to vs: it counts the collect in flight and
// returns vs's serve generation, read before the request goes out.
func (vs *viewState) collecting() uint64 {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	vs.collects++
	return vs.served
}

// collected ends a collect to vs that collecting started at serve
// generation gen; invalidated says it was a TInvalidate whose surrender
// has landed. The invalidation counts only while vs has not been served
// since gen: a reply that raced the view's own next pull is stale, as
// that pull granted the view an image the directory must go on counting
// as active. It moves vs to inactive (evInvalidated) once the last
// collect in flight has landed, so a pull that finds vs inactive finds
// every delta it surrendered committed.
func (m *Manager) collected(vs *viewState, gen uint64, invalidated bool) {
	vs.mu.Lock()
	vs.collects--
	if invalidated && vs.served == gen {
		vs.invalAt, vs.invalPending = gen, true
	}
	apply := vs.collects == 0 && vs.invalPending && vs.served == vs.invalAt
	if vs.collects == 0 {
		vs.invalPending = false
		if vs.leaving {
			vs.leaving = false
			m.leaving.Add(-1)
		}
	}
	if apply {
		m.transitionLocked(vs, evInvalidated)
	}
	vs.mu.Unlock()
	if apply {
		m.viewChanged(vs, false)
	}
}

// phaseOf reads vs's phase.
func (vs *viewState) phaseOf() Phase {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.phase
}

// applyTouch installs a replication or checkpoint record's touch part on
// vs. Leaving lost takes the structural gate, like a revival.
func (m *Manager) applyTouch(vs *viewState, t ViewTouch) {
	vs.mu.Lock()
	vs.mode, vs.lastOp, vs.seen = t.Mode, t.Op, t.Seen
	vs.mu.Unlock()
	ev := evRecordInactive + event(t.Phase)
	if vs.phaseOf() == PhaseLost && t.Phase != PhaseLost {
		m.structuralDo(func() { m.transition(vs, ev) })
		return
	}
	m.transition(vs, ev)
}

// Phase reports a view's phase (PhaseGone for unknown views).
func (m *Manager) Phase(view string) Phase {
	if vs, ok := m.viewState(view); ok {
		return vs.phaseOf()
	}
	return PhaseGone
}

// LostViews returns the sorted names of the lost (evicted) views.
func (m *Manager) LostViews() []string {
	m.vmu.RLock()
	var out []string
	for name, vs := range m.views {
		if vs.phaseOf() == PhaseLost {
			out = append(out, name)
		}
	}
	m.vmu.RUnlock()
	sort.Strings(out)
	return out
}
