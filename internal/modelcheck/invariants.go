package modelcheck

import "flecc/internal/directory"

// verify runs the state invariants after an action. opErr is the action's
// own operation error (nil, or a legal drop-schedule failure already
// classified by apply); it is accepted only so violations can mention it.
func (s *system) verify(a Action, opErr error) error {
	// Directory bookkeeping, on every manager in the deployment.
	for _, dm := range s.dms {
		if err := dm.CheckInvariants(); err != nil {
			return violationf("after %s: %v", a, err)
		}
	}
	// A refused or undeliverable batch degrades the standby instead of
	// failing the client's request; no schedule in the model may reach
	// that path, or an acknowledged commit could be missing on dm!b.
	if s.repl != nil {
		if n := s.repl.DegradedBarriers(); n != 0 {
			return violationf("after %s: %d barriers released with dm!b degraded", a, n)
		}
	}

	ext, err := s.dm().ExtractPrimary(s.fullProps())
	if err != nil {
		return violationf("after %s: extract primary: %v", a, err)
	}

	// Per-key safety against the spec's write history. Write values are
	// globally unique, so value identity pins down exactly which write
	// (and which write *index*) a committed entry corresponds to.
	for k := 0; k < s.cfg.Keys; k++ {
		key := keyName(k)
		e, ok := ext.Get(key)
		if !ok || e.Deleted {
			return violationf("after %s: key %s vanished from the primary", a, key)
		}
		val := string(e.Value)
		switch {
		case e.Version < s.keyVer[key]:
			return violationf("after %s: primary version of %s regressed: v%d < v%d",
				a, key, e.Version, s.keyVer[key])
		case e.Version == s.keyVer[key]:
			if val != s.keyVal[key] {
				return violationf("after %s: %s changed value %q→%q without a version bump (v%d)",
					a, key, s.keyVal[key], val, e.Version)
			}
		default: // a new commit
			hk := e.Writer + "|" + key
			idx := -1
			for i, h := range s.hist[hk] {
				if h == val {
					idx = i
					break
				}
			}
			if idx < 0 {
				return violationf("after %s: primary holds %s=%q stamped writer %q, which that writer never wrote",
					a, key, val, e.Writer)
			}
			if idx < s.histIdx[hk] {
				return violationf("after %s: stale re-commit of %s=%q by %q (write #%d after write #%d was already committed)",
					a, key, val, e.Writer, idx, s.histIdx[hk])
			}
			s.histIdx[hk] = idx
			s.keyVer[key] = e.Version
			s.keyVal[key] = val
		}
	}

	dm := s.dm()
	cur := dm.CurrentVersion()
	for _, v := range s.views {
		if !v.alive {
			continue
		}
		// Record false-positive evictions (the view is live but the
		// directory wrote it off) — they downgrade what strong pulls may
		// assume about this view's pending updates.
		if dm.Phase(v.name) == directory.PhaseLost {
			v.evicted = true
		}
		// A view can never have seen past the primary's commit counter.
		if seen := v.cm.Seen(); seen > cur {
			return violationf("after %s: %s has seen v%d but the primary is at v%d", a, v.name, seen, cur)
		}
		// A view with no pending updates has surrendered (or pushed)
		// everything it wrote; the model's dirty set follows.
		if v.cm.PendingOps() == 0 {
			v.dirty = map[string]bool{}
		}
	}

	// Strong-activation exclusivity as a *state* invariant: while a view
	// remains active from a pull taken in strong mode, no conflicting
	// live, non-evicted view may be active. Losing active status (being
	// invalidated, crashing, eviction) legally ends the claim.
	reg := dm.Registry()
	for _, v := range s.views {
		if !v.alive || !v.strongAct {
			continue
		}
		if dm.Phase(v.name) != directory.PhaseActive {
			v.strongAct = false
			continue
		}
		for _, w := range s.views {
			if w == v || !w.alive || dm.Phase(w.name) == directory.PhaseLost {
				continue
			}
			if reg.Conflicts(v.name, w.name) && dm.Phase(w.name) == directory.PhaseActive {
				return violationf("after %s: %s is strong-active but conflicting view %s is active too",
					a, v.name, w.name)
			}
		}
	}
	return nil
}

// checkPushDurable asserts that every key of an acknowledged push is
// immediately readable from the primary at the pushed value (the store's
// default incoming-wins resolution guarantees it) — under Config.Scoped,
// every key the view's set names: a scoping primary drops a write made
// before the view narrowed its set away from the key.
func (s *system) checkPushDurable(v *viewNode, pushed map[string]string) error {
	if len(pushed) == 0 {
		return nil
	}
	ext, err := s.dm().ExtractPrimary(s.fullProps())
	if err != nil {
		return violationf("push %s: extract primary: %v", v.name, err)
	}
	for k, want := range pushed {
		if !s.shares(v, k) {
			continue
		}
		e, ok := ext.Get(k)
		if !ok || e.Deleted {
			return violationf("push %s: acknowledged %s=%q but the key is absent from the primary", v.name, k, want)
		}
		if got := string(e.Value); got != want {
			return violationf("push %s: acknowledged %s=%q but the primary reads %q (commit lost)", v.name, k, want, got)
		}
	}
	return nil
}

// shares reports whether the directory commits v's writes to key and
// sends v others' commits to it: every key, unless the primary scopes
// commits (Config.Scoped), and then the keys of v's property set. The
// model's view codec ignores properties, so a narrowed view still holds
// keys outside its set, but a scoping primary drops its writes to them
// and its delta pulls leave them out — with or without a grant.
func (s *system) shares(v *viewNode, key string) bool {
	return !s.cfg.Scoped || !v.propsAlt || key == keyName(v.idx%s.cfg.Keys)
}

// checkPullFresh asserts that right after a successful pull the view
// agrees with the primary's committed state on every key it shares
// (shares) and has not modified locally since its last synchronization.
func (s *system) checkPullFresh(v *viewNode) error {
	ext, err := s.dm().ExtractPrimary(s.fullProps())
	if err != nil {
		return violationf("pull %s: extract primary: %v", v.name, err)
	}
	for k := 0; k < s.cfg.Keys; k++ {
		key := keyName(k)
		if v.dirty[key] || !s.shares(v, key) {
			continue
		}
		e, _ := ext.Get(key)
		if got := v.data.data[key]; got != string(e.Value) {
			return violationf("pull %s: stale read of %s after pull: view has %q, primary committed %q",
				v.name, key, got, e.Value)
		}
	}
	return nil
}

// checkStrongExclusive asserts the one-copy property at the moment a
// strong pull returns: no live, non-evicted conflicting peer is active or
// retains pending updates — they must all have been invalidated (their
// deltas gathered) by the pull. A peer the directory evicted as
// unreachable is exempt: the protocol's documented failure semantics
// sacrifice its pending updates instead of blocking the strong reader.
func (s *system) checkStrongExclusive(v *viewNode) error {
	dm := s.dm()
	for _, w := range s.views {
		if w == v || !w.alive || dm.Phase(w.name) == directory.PhaseLost {
			continue
		}
		if !dm.Registry().Conflicts(v.name, w.name) {
			continue
		}
		if dm.Phase(w.name) == directory.PhaseActive {
			return violationf("strong pull %s: conflicting view %s is still active (one-copy violated)", v.name, w.name)
		}
		// A peer the directory once falsely evicted may retain pending
		// updates — they reconcile through push-time conflict detection
		// (the documented eviction semantics), not gathering.
		if p := w.cm.PendingOps(); p > 0 && !w.evicted {
			return violationf("strong pull %s: conflicting view %s retains %d pending update(s) that were never gathered",
				v.name, w.name, p)
		}
	}
	return nil
}

// quiesce runs the weak-convergence probe from the current state: every
// live view pushes, then every live view pulls, after which every live
// view must agree with the primary on every key it shares. The probe's
// actions run through apply, so they are themselves invariant-checked;
// the returned schedule records them for counterexample rendering.
func (s *system) quiesce() ([]Action, error) {
	if s.primaryDown && s.active == 0 {
		// No directory is serving between crash-primary and
		// promote-standby; convergence is asserted again right after the
		// promotion transition.
		return nil, nil
	}
	var probe []Action
	for i, v := range s.views {
		if !v.alive {
			continue
		}
		a := Action{Kind: APush, View: i}
		probe = append(probe, a)
		if err := s.apply(a); err != nil {
			return probe, err
		}
	}
	for i, v := range s.views {
		if !v.alive {
			continue
		}
		a := Action{Kind: APull, View: i}
		probe = append(probe, a)
		if err := s.apply(a); err != nil {
			return probe, err
		}
	}
	ext, err := s.dm().ExtractPrimary(s.fullProps())
	if err != nil {
		return probe, violationf("quiescence: extract primary: %v", err)
	}
	for _, v := range s.views {
		if !v.alive {
			continue
		}
		for k := 0; k < s.cfg.Keys; k++ {
			key := keyName(k)
			if !s.shares(v, key) {
				continue
			}
			var want string
			if e, ok := ext.Get(key); ok {
				want = string(e.Value)
			}
			if got := v.data.data[key]; got != want {
				return probe, violationf("quiescence: %s still disagrees with the primary on %s after push+pull everywhere: %q vs %q",
					v.name, key, got, want)
			}
		}
	}
	return probe, nil
}
