package directory

import (
	"sync"

	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// Execution lanes (the request half of conflict-group striping): each
// commit is routed to the lane of its writer's conflict group, so commits
// within one group keep arrival order while commits of disjoint groups
// proceed in parallel. The group map is derived from the registry's
// conflict structure (the PR 8 property index) and cached per registry
// mutation epoch: repeated commits between structural changes never
// re-query the index. With one lane (Options.Lanes ≤ 1) there is nothing
// to map: every commit takes lane 0, in arrival order.
//
// This file is also where the manager meets the store's gate, the
// package's one quiesce point. Two rules keep it safe:
//
//   - A lane lock, and the gate's read side with it, is scoped to the
//     store commit alone — never held across a DM-initiated network round
//     (invalidate, gather, propagate). A cache manager answering an
//     invalidation may itself be waiting to push; holding a lane across
//     the round would deadlock the pair.
//   - Anything that can change the conflict structure — register,
//     unregister, set-props, eviction, revival, a replicated registration
//     record — takes the gate exclusively, draining every in-flight
//     commit before the structure moves. Commits started after the change
//     see the bumped registry epoch and rebuild the map. An eviction
//     needs the drain as much as the others: the rebuilt map can give a
//     surviving group another root, and so another lane.
//   - Registry().SetStatic bumps the epoch without the gate. It must run
//     before views commit concurrently, as flecc.System.SetStatic and the
//     ablations call it.

type laneSet struct {
	m     *Manager
	lanes []sync.Mutex

	// mu guards the lazily rebuilt group map below. Taken under the gate's
	// read side and released before the lane is locked.
	mu    sync.Mutex
	epoch uint64
	built bool
	group map[string]uint32
}

func newLaneSet(m *Manager, n int) *laneSet {
	return &laneSet{m: m, lanes: make([]sync.Mutex, n)}
}

// fnvLane hashes a name onto one of n slots: lanes here, key stripes in
// the store.
func fnvLane(s string, n int) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h % uint32(n)
}

// laneFor maps a view to its conflict group's lane. Caller holds the
// gate's read side, which pins the conflict structure: structural changes
// need the write side.
func (ls *laneSet) laneFor(view string) *sync.Mutex {
	if len(ls.lanes) == 1 {
		return &ls.lanes[0]
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if e := ls.m.reg.Epoch(); !ls.built || e != ls.epoch {
		ls.rebuildLocked(e)
	}
	if lane, ok := ls.group[view]; ok {
		return &ls.lanes[lane]
	}
	// Unknown to the map (e.g. registered after the epoch was read but
	// before the commit): name-hash fallback. Any fixed lane is safe —
	// the structural change that added the view drained the lanes, so its
	// group peers route through the same rebuilt map on their next commit.
	return &ls.lanes[fnvLane(view, len(ls.lanes))]
}

// rebuildLocked recomputes view → lane: union-find over the structural
// (activeOnly=false) conflict sets merges each conflict group to one
// root, and the root's name hash picks the lane. Views that transitively
// share data always land on the same lane; disjoint groups spread across
// lanes. Caller holds ls.mu.
func (ls *laneSet) rebuildLocked(epoch uint64) {
	views := ls.m.reg.Views()
	parent := make(map[string]string, len(views))
	var find func(string) string
	find = func(x string) string {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for _, v := range views {
		parent[v] = v
	}
	for _, v := range views {
		for _, c := range ls.m.reg.ConflictingWith(v, false) {
			if _, ok := parent[c]; !ok {
				continue
			}
			ra, rb := find(v), find(c)
			if ra != rb {
				parent[rb] = ra
			}
		}
	}
	ls.group = make(map[string]uint32, len(views))
	for _, v := range views {
		ls.group[v] = fnvLane(find(v), len(ls.lanes))
	}
	ls.epoch = epoch
	ls.built = true
}

// commit runs one store commit under the writer's conflict-group lane:
// it serializes against the writer's own group only, and holds the gate's
// read side from before the lane is picked until the commit has landed.
// Once both are released it does the log bookkeeping (maybeCompact).
//
// The commit is scoped by the writer's registered property set, whatever
// set the delta claims. It is read under the gate, so SetProps and
// Unregister (write side) cannot move it mid-commit. A push passes stamp
// 0. A fetch or invalidate reply passes the registry stamp read before
// the request went out; if it has moved, the reply raced its view's own
// TSetProps or TUnregister, the set it was extracted under is unknown,
// and it commits under the empty set, which means no restriction
// (PROTOCOL.md "Wire format" has why that is safe).
//
// clean reports that the commit stored exactly the delta: a version was
// allocated and no entry met a conflict. A delta that commits nothing
// returns the current version and is not clean.
func (m *Manager) commit(writer string, stamp uint64, delta *image.Image, ops int) (ver vclock.Version, clean bool, rejected *image.Image, err error) {
	defer m.maybeCompact() // deferred first, so it runs after the unlocks
	m.store.gate.RLock()
	defer m.store.gate.RUnlock()
	props, cur := m.reg.Scope(writer)
	if stamp != 0 && stamp != cur {
		props = property.Set{}
	}
	lane := m.lanes.laneFor(writer)
	lane.Lock()
	defer lane.Unlock()
	ver, conflicts, rejected, err := m.store.commitGated(writer, props, delta, ops)
	if ver == 0 && err == nil {
		return m.store.Current(), false, nil, nil
	}
	return ver, err == nil && conflicts == 0, rejected, err
}

// structuralDo runs fn with the gate held exclusively — every lane
// drained, every whole-store operation excluded — for conflict-structure
// changes and the primary's own commits. fn must not call a Store method
// that takes the gate itself.
func (m *Manager) structuralDo(fn func()) {
	m.store.gate.Lock()
	defer m.store.gate.Unlock()
	fn()
}

// structural is structuralDo for handlers that produce a reply.
func (m *Manager) structural(fn func() *wire.Message) *wire.Message {
	var reply *wire.Message
	m.structuralDo(func() { reply = fn() })
	return reply
}
