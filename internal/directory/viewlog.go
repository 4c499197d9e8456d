package directory

import (
	"sort"
	"sync"
)

// View-change tracking for O(Δ) replication. A replication batch ships
// records for just the views whose directory state moved since the
// standby's view watermark, so the sender must find those views without
// visiting the rest. Two levels:
//
//   - Every site that mutates a view's replicated state (mode, op class,
//     seen, validity, phase; registry props) calls viewChanged
//     after the mutation. While a replicator is attached that pushes the
//     view onto a lock-free intrusive stack, once: a view already on it
//     costs one atomic load. It runs on every pull and push, so it takes
//     no lock and allocates nothing; with no replicator attached it is
//     one atomic load and records nothing — a session's worth of dead
//     view states must not pile up where nobody drains them, and a
//     replicator's first batch is full state anyway.
//   - A replicator drains the stack into its journal when it builds a
//     batch, stamping each drained view with the next value of the
//     view-change sequence. The replicator keeps the standby's acked
//     watermark in that sequence beside its version watermark, and the journal serves
//     any watermark at or above its floor; below it (first batch, probe
//     of a recovered standby) the sender falls back to every view.
//
// A change is never lost between the levels: the mutation happens before
// viewChanged reads the queued flag, and the drain clears the flag before
// it — or any later batch build — reads the view's state. So either the
// drain that cleared the flag sees the mutation, or the mutator saw the
// flag clear and queued the view again. The same argument covers
// attachment: StartReplication sets tracking before the first (full)
// capture reads any view.

// viewChanged notes that vs's replicated state moved; reg marks a
// registration-level change (props, validity trigger, (re)registration,
// revival, removal), which ships the full record instead of a touch.
func (m *Manager) viewChanged(vs *viewState, reg bool) {
	if !m.tracking.Load() {
		return
	}
	if reg {
		vs.regDirty.Store(true)
	}
	if vs.queued.Load() || !vs.queued.CompareAndSwap(false, true) {
		return
	}
	for {
		head := m.dirtyViews.Load()
		vs.nextDirty = head
		if m.dirtyViews.CompareAndSwap(head, vs) {
			return
		}
	}
}

// viewChange is one journal record: vs changed at sequence seq. A later
// record for the same view supersedes it (vs.jSeq has moved on).
type viewChange struct {
	seq uint64
	vs  *viewState
}

// viewJournal orders drained view changes by the view-change sequence.
type viewJournal struct {
	mu sync.Mutex
	// seq is the last sequence assigned; floor the highest trimmed one —
	// watermarks below floor cannot be served from recs.
	seq, floor uint64
	recs       []viewChange // ascending seq
}

// drainLocked moves the manager's dirty stack into the journal.
func (j *viewJournal) drainLocked(m *Manager) {
	for vs := m.dirtyViews.Swap(nil); vs != nil; {
		next := vs.nextDirty
		vs.nextDirty = nil
		vs.queued.Store(false)
		j.seq++
		vs.jSeq = j.seq
		if vs.regDirty.Swap(false) {
			vs.jRegSeq = j.seq
		}
		j.recs = append(j.recs, viewChange{seq: j.seq, vs: vs})
		vs = next
	}
}

// trim forgets records the standby has acknowledged.
func (j *viewJournal) trim(upTo uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if upTo > j.seq {
		upTo = j.seq
	}
	if upTo <= j.floor {
		return
	}
	j.floor = upTo
	i := sort.Search(len(j.recs), func(i int) bool { return j.recs[i].seq > upTo })
	n := copy(j.recs, j.recs[i:])
	clear(j.recs[n:])
	j.recs = j.recs[:n]
}

// captureViewChanges fills b's view records — touches, removals, and
// registrations appended to b.Snap.Views: everything journaled after
// b.ViewSince, or — when that watermark is zero or below the journal's
// floor — every registered view as a registration record, with
// b.ViewSince reset to 0 to say so. b.ViewSeq closes the batch.
func (r *Replicator) captureViewChanges(b *ReplBatch) {
	m, j := r.m, &r.journal
	j.mu.Lock()
	defer j.mu.Unlock()
	j.drainLocked(m)
	b.ViewSeq = j.seq
	if b.ViewSince == 0 || b.ViewSince < j.floor {
		b.ViewSince = 0
		b.Snap.Views = m.captureViews(b.Snap.Views)
		return
	}
	i := sort.Search(len(j.recs), func(i int) bool { return j.recs[i].seq > b.ViewSince })
	for _, rec := range j.recs[i:] {
		if rec.seq == rec.vs.jSeq {
			b.Snap.Views = m.captureView(b, b.Snap.Views, rec.vs, rec.vs.jRegSeq > b.ViewSince)
		}
	}
}

// captureView records vs's current state as a removal or touch in b, or
// as a registration appended to regs.
func (m *Manager) captureView(b *ReplBatch, regs []ViewRecord, vs *viewState, reg bool) []ViewRecord {
	vs.mu.Lock()
	t := ViewTouch{Name: vs.name, Mode: vs.mode, Op: vs.lastOp, Seen: vs.seen, Phase: vs.phase}
	validity := vs.validity.Source()
	vs.mu.Unlock()
	if t.Phase == PhaseGone {
		// A name registered again since is spoken for by its new state's
		// registration record, whichever of the two was journaled first.
		if _, live := m.viewState(t.Name); !live {
			b.Removed = append(b.Removed, t.Name)
		}
		return regs
	}
	if !reg {
		b.Touches = append(b.Touches, t)
		return regs
	}
	props, ok := m.reg.Props(t.Name)
	if !ok {
		return regs // unregistering right now; its removal is on the stack
	}
	return append(regs, ViewRecord{ViewTouch: t, Props: props, Validity: validity})
}
