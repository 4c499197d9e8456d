package directory

import (
	"fmt"

	"flecc/internal/property"
	"flecc/internal/trigger"
	"flecc/internal/wire"
)

// Live shard migration (internal/shard) moves a set of views — and the
// protocol metadata needed to keep serving them without version
// regressions — from one directory manager to another. The handover is a
// fail-over Snapshot (snapshot.go): the source's full store metadata plus
// the moved views' records, which the target absorbs with merge
// semantics before the router re-points the views. Because the target
// fast-forwards its version counter to at least the source's, a migrated
// view can never observe a smaller primary version than it already saw.

// HandoverView is the per-view protocol state a migration carries: the
// view's record (its touch part: name, mode, op class, seen, phase), its
// property set and its validity-trigger source text.
type HandoverView struct {
	ViewTouch
	Props    property.Set
	Validity string
}

// TakeHandover captures a handover for the named views (all registered
// views when names is empty) and stops serving them: the views are
// unregistered and their state removed. The handover is the full capture
// (CaptureSince(0)) with Views cut down to the moved views; its store
// metadata may cover more keys than they touch, which Absorb's
// version-wise merge makes harmless. It fails — without removing
// anything — if any name is unknown.
func (m *Manager) TakeHandover(names []string) (*Snapshot, error) {
	h := m.CaptureSince(0)
	if len(names) > 0 {
		byName := make(map[string]HandoverView, len(h.Views))
		for _, v := range h.Views {
			byName[v.Name] = v
		}
		h.Views = h.Views[:0]
		for _, n := range names {
			v, ok := byName[n]
			if !ok {
				return nil, fmt.Errorf("directory %s: handover of unknown view %s", m.name, n)
			}
			h.Views = append(h.Views, v)
		}
	}
	m.structuralDo(func() {
		for _, v := range h.Views {
			m.dropView(v.Name)
		}
	})
	return h, nil
}

// AbsorbHandover merges a handover into this (target) directory manager:
// the store metadata is absorbed version-wise and every carried view is
// registered with its previous mode, seen version, and triggers.
func (m *Manager) AbsorbHandover(h *Snapshot) error {
	if err := m.store.Absorb(h); err != nil {
		return err
	}
	for _, hv := range h.Views {
		if err := m.installView(hv, false); err != nil {
			return err
		}
	}
	return nil
}

// installView registers one carried view with its previous mode, seen
// version, and triggers, or refreshes it in place when it is already on
// the books: the registry is touched — under the structural gate — only
// for a new name or a changed property set, and an unchanged validity
// trigger is not recompiled. Shared by handover absorption, snapshot
// restore, and hot-standby replication's registration records (which
// set replicated; a handover or restore makes the view this manager's
// own).
func (m *Manager) installView(hv HandoverView, replicated bool) error {
	vs, known := m.viewState(hv.Name)
	var val trigger.Trigger
	if known {
		vs.mu.Lock()
		val = vs.validity
		vs.mu.Unlock()
	}
	if val.Source() != hv.Validity {
		var err error
		if val, err = trigger.Compile(hv.Validity); err != nil {
			return fmt.Errorf("directory %s: handover validity trigger for %s: %v", m.name, hv.Name, err)
		}
	}
	if prev, ok := m.reg.Props(hv.Name); !ok || !known || !prev.Equal(hv.Props) {
		var err error
		m.structuralDo(func() {
			if !ok {
				err = m.reg.Register(hv.Name, hv.Props)
			} else if !prev.Equal(hv.Props) {
				err = m.reg.SetProps(hv.Name, hv.Props)
			}
			if err == nil && !known {
				vs = &viewState{name: hv.Name}
				m.vmu.Lock()
				m.views[hv.Name] = vs
				m.vmu.Unlock()
			}
		})
		if err != nil {
			return fmt.Errorf("directory %s: absorb %s: %w", m.name, hv.Name, err)
		}
	}
	vs.mu.Lock()
	vs.validity, vs.replicated = val, replicated
	vs.mu.Unlock()
	m.applyTouch(vs, hv.ViewTouch)
	m.viewChanged(vs, true)
	return nil
}

// Absorb merges a snapshot into a live store, in contrast to Restore which
// replaces. Shadow entries keep the newer version per key, the
// version-ordered logs are merged with the existing entry winning on a
// version tie (so a round-trip migration does not duplicate records), and
// the counter only fast-forwards — it never goes back, which is what
// rules out version regressions across a migration.
//
// A snapshot that strictly extends the local log with version-ordered
// shadow records — every batch of a healthy replication stream — is
// appended in place: the log grows by the tail and the dirty index by
// exactly the absorbed keys. Anything else (a migration handover, a
// resend overlapping what already landed) takes the general merge and
// rebuilds the index.
//
// A snapshot that fails check is refused before anything is locked or
// changed.
func (s *Store) Absorb(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("directory: nil snapshot")
	}
	if err := snap.check(); err != nil {
		return err
	}
	s.lockStore()
	defer s.unlockStore()
	if s.extendedByLocked(snap) {
		for _, r := range snap.Shadow {
			st := s.stripeFor(r.Key)
			cur, existed := st.shadow[r.Key]
			if existed && cur.version >= r.Version {
				continue
			}
			if existed {
				st.stale++
			}
			st.shadow[r.Key] = shadowEntry{version: r.Version, writer: r.Writer, deleted: r.Deleted}
			st.insertDirty(dirtyRec{version: r.Version, key: r.Key})
			if st.stale > len(st.shadow)+16 {
				st.rebuild()
			}
		}
		s.log = append(s.log, snap.Log...)
	} else {
		s.mergeLocked(snap)
	}
	s.counter.AdvanceTo(snap.Version)
	return nil
}

// extendedByLocked reports whether snap qualifies for Absorb's append
// path: its log starts after the local log ends, and its shadow records
// arrive in version order (so each dirty-index insert lands at or near
// the tail instead of shifting the index).
func (s *Store) extendedByLocked(snap *Snapshot) bool {
	if len(snap.Log) > 0 && len(s.log) > 0 && snap.Log[0].Version <= s.log[len(s.log)-1].Version {
		return false
	}
	for i := 1; i < len(snap.Shadow); i++ {
		if snap.Shadow[i].Version < snap.Shadow[i-1].Version {
			return false
		}
	}
	return true
}

// mergeLocked is Absorb's general path: per-key newer-wins over the
// shadow, a two-way merge of the logs, and a full dirty-index rebuild.
func (s *Store) mergeLocked(snap *Snapshot) {
	for _, r := range snap.Shadow {
		st := s.stripeFor(r.Key)
		if cur, ok := st.shadow[r.Key]; !ok || cur.version < r.Version {
			st.shadow[r.Key] = shadowEntry{version: r.Version, writer: r.Writer, deleted: r.Deleted}
		}
	}
	merged := make([]UpdateRec, 0, len(s.log)+len(snap.Log))
	i, j := 0, 0
	for i < len(s.log) && j < len(snap.Log) {
		switch {
		case s.log[i].Version == snap.Log[j].Version:
			merged = append(merged, s.log[i])
			i++
			j++
		case s.log[i].Version < snap.Log[j].Version:
			merged = append(merged, s.log[i])
			i++
		default:
			merged = append(merged, snap.Log[j])
			j++
		}
	}
	merged = append(merged, s.log[i:]...)
	merged = append(merged, snap.Log[j:]...)
	s.log = merged
	for _, st := range s.stripes {
		st.rebuild()
	}
}

// EncodeViewList serializes the view-name list a TMigrateTake carries.
func EncodeViewList(names []string) []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	encodeNames(e, names)
	return e.Copy()
}

// decodeViewList parses EncodeViewList's output. An empty blob is the
// empty list ("all views").
func decodeViewList(b []byte) ([]string, error) {
	if len(b) == 0 {
		return nil, nil
	}
	d := wire.NewDecoder(b)
	names := decodeNames(d)
	if err := decoded(d, "view list"); err != nil {
		return nil, err
	}
	return names, nil
}

// handleRouted unwraps a router→shard envelope and dispatches the inner
// message as if the originating view had called directly.
func (m *Manager) handleRouted(req *wire.Message) *wire.Message {
	inner, err := wire.Decode(req.Blob)
	if err != nil {
		return errf("directory %s: bad routed payload: %v", m.name, err)
	}
	switch inner.Type {
	case wire.TRouted, wire.TMigrateTake, wire.TMigrateApply:
		return errf("directory %s: refusing nested %s inside routed envelope", m.name, inner.Type)
	}
	if req.View != "" {
		inner.From = req.View
	}
	return m.handle(inner)
}

func (m *Manager) handleMigrateTake(req *wire.Message) *wire.Message {
	names, err := decodeViewList(req.Blob)
	if err != nil {
		return errf("%v", err)
	}
	h, err := m.TakeHandover(names)
	if err != nil {
		return errf("%v", err)
	}
	return m.synced(&wire.Message{Type: wire.TAck, Version: m.store.Current(), Blob: EncodeSnapshot(h)})
}

func (m *Manager) handleMigrateApply(req *wire.Message) *wire.Message {
	h, err := DecodeSnapshot(req.Blob)
	if err != nil {
		return errf("%v", err)
	}
	if err := m.AbsorbHandover(h); err != nil {
		return errf("%v", err)
	}
	return m.synced(&wire.Message{Type: wire.TAck, Version: m.store.Current()})
}
