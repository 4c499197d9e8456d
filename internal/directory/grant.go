package directory

import (
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// Exclusive grants (PROTOCOL.md "Exclusive grant"): a pull whose view is
// the only member of its conflict group comes back granted, and the
// view's cache manager answers its pulls locally for wire.GrantLease. No
// one else can commit to such a view's data, so the directory has nothing
// to tell it — until the group changes. Every change that can give a
// holder a peer revokes the holder's grant first:
//
//   - a registration, a claim of a lost name, a property change and a
//     revival give one view — the joiner — new conflict edges. The change
//     runs under the structural gate and marks the joiner's conflicting
//     holders revoked there (revocations); after the gate is released, a
//     revocation leg reaches each (revoke). The joiner's handler replies
//     only then, and the joiner's commit lock is held until then, so the
//     joiner is not served and commits nothing before every holder has
//     dropped its grant;
//   - CommitLocal revokes the holders whose data its delta touches, with
//     new grants held off (grantBlock) until its commit has landed.
//
// A leg is a fetch (TPull) collect: every collect makes a cache manager
// drop its grant before it answers, and the holder's pending writes land
// as a gather's would. A holder the leg does not reach is evicted, and the
// directory waits out the lease it recorded instead. No leg and no wait
// runs under the gate or a lane. Grants are not replicated: a manager that
// takes views over waits one lease before it serves (outwaitPredecessor).

// claimGrant records a grant on vs, served a pull that claimed it with an
// empty conflict set, and reports whether it did: the primary must scope
// commits (image.Scoper), vs must be active, and no CommitLocal may be
// revoking. Caller holds the gate's read side and vs's lane, which order
// it against every structural change and every claim of the group.
//
// Only a scoping primary grants. A view alone in its conflict group
// learns from a pull only what others committed to its data; without a
// scope test, a view of another group commits every key its codec
// extracts, also keys the holder holds, and the holder's local pulls
// would miss those commits.
func (m *Manager) claimGrant(vs *viewState) bool {
	if m.store.scope == nil || m.grantBlock.Load() > 0 {
		return false
	}
	vs.mu.Lock()
	ok := vs.phase == PhaseActive
	if ok {
		vs.granted, vs.leaseEnd = true, m.clock.Now()+wire.GrantLease
	}
	vs.mu.Unlock()
	if ok {
		m.leased.Store(true)
	}
	return ok
}

// clearGrant forgets vs's grant and lease: its reply never left, or its
// cache manager dropped it before the request being handled (set-props,
// a re-registration).
func (vs *viewState) clearGrant() {
	vs.mu.Lock()
	vs.granted, vs.leaseEnd = false, 0
	vs.mu.Unlock()
}

// revocation is what a change must do before a holder may get a peer: a
// leg to each view in legs, which hold this manager's grant, and a wait
// until the latest lease the manager cannot revoke ends — one whose leg
// is already out, or a lost name's previous holder's.
type revocation struct {
	legs  []string
	until vclock.Time
}

// revocations collects the revocation for every view but self that is
// granted or whose lease may still run, and that touches reports true, and
// clears their granted mark: from now on they may have a peer, whether or
// not their lease has run out. Caller holds the structural gate.
func (m *Manager) revocations(self string, touches func(name string) bool) revocation {
	var r revocation
	if !m.leased.Load() {
		return r
	}
	now := m.clock.Now()
	m.vmu.RLock()
	defer m.vmu.RUnlock()
	for name, vs := range m.views {
		if name == self {
			continue
		}
		vs.mu.Lock()
		end, granted := vs.leaseEnd, vs.granted
		vs.mu.Unlock()
		running := end > now
		if !granted && !running || !touches(name) {
			continue
		}
		if granted {
			vs.mu.Lock()
			vs.granted = false
			vs.mu.Unlock()
		}
		switch {
		case !running: // the holder stopped reading locally already
		case granted:
			r.legs = append(r.legs, name)
		case end > r.until:
			r.until = end
		}
	}
	return r
}

// joinerRevocations is revocations for a change that gives joiner new
// conflict edges: the holders that now conflict with it. Caller holds the
// structural gate.
func (m *Manager) joinerRevocations(joiner string) revocation {
	return m.revocations(joiner, func(name string) bool { return m.reg.Conflicts(joiner, name) })
}

// revoke carries r out — its legs through forEachTarget, then its wait —
// and returns once none of its leases can still be served locally.
// Caller holds no gate or lane.
func (m *Manager) revoke(r revocation) {
	if len(r.legs) > 0 { // the method value escapes: build it only for a leg
		_ = m.forEachTarget(r.legs, m.revokeLeg)
	}
	m.awaitLease(r.until)
}

// awaitLease waits on the manager's clock until end, a lease the manager
// could not revoke.
func (m *Manager) awaitLease(end vclock.Time) {
	if end > m.clock.Now() {
		m.leaseWaits.Inc()
		vclock.WaitUntil(m.clock, end)
	}
}

// revokeLeg ends target's grant with a fetch collect: every collect makes
// a cache manager drop its grant before it answers, so the lease ends
// there — also when the collect fails remotely. A target the collect does
// not reach is evicted by it, and its lease is waited out until its
// recorded end.
func (m *Manager) revokeLeg(target string) error {
	vs, ok := m.viewState(target)
	if !ok {
		return nil
	}
	vs.mu.Lock()
	end := vs.leaseEnd
	vs.mu.Unlock()
	answered, _ := m.collect(target, wire.TPull)
	m.revoked.Inc()
	if !answered {
		m.awaitLease(end)
	}
	vs.mu.Lock()
	if vs.leaseEnd == end {
		vs.leaseEnd = 0
	}
	vs.mu.Unlock()
	return nil
}

// outwaitPredecessor returns once every grant a predecessor may have made
// has run out. A manager that takes views over from another — a promoted
// standby, a directory restored from a snapshot — never learned of its
// grants, so it serves nothing before: each was made before the takeover
// began, and its holder stops answering locally within a lease of sending
// the granting pull. A primary that does not scope commits grants
// nothing, and neither did a predecessor over the same kind of component.
func (m *Manager) outwaitPredecessor() {
	if m.store.scope != nil {
		m.awaitLease(m.clock.Now() + wire.GrantLease)
	}
}

// Granted reports whether this manager's grant to view stands: the view
// is the only member of its conflict group since it was granted.
func (m *Manager) Granted(view string) bool {
	vs, ok := m.viewState(view)
	if !ok {
		return false
	}
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.granted
}

// Grants reports how many pulls came back granted.
func (m *Manager) Grants() int64 { return m.grants.Value() }

// Revocations reports how many grants were revoked.
func (m *Manager) Revocations() int64 { return m.revoked.Value() }

// GrantLeaseWaits reports how many times the manager waited a lease out:
// a revocation that could not reach its holder, a claim of a lost name
// whose previous holder's lease still ran, a takeover.
func (m *Manager) GrantLeaseWaits() int64 { return m.leaseWaits.Value() }
