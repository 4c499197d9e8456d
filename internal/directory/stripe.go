package directory

import (
	"sync"

	"flecc/internal/vclock"
)

// Concurrency inside the store: commits of disjoint conflict groups run
// concurrently through one store. The directory manager's lane table
// (lanes.go) guarantees that two commits in flight at once never touch
// the same conflict group — and therefore, by the conflict-group premise
// (overlapping data ⇒ same group), never the same keys. What is left for
// the store to coordinate:
//
//   - the per-key metadata maps themselves (key-hash stripes, each with
//     its own short-critical-section lock),
//   - the update log and counters (Store.mu, held only for an ordered
//     insert — never across codec calls),
//   - version allocation and visibility (pubTracker: extracts stamp
//     images with the published watermark, the highest version below
//     which every commit has fully landed, so a reader can never record
//     a seen version that silently skips a mid-flight commit), and
//   - whole-store operations (snapshot capture for replication and
//     checkpoints, absorb): they take the gate exclusively,
//     quiescing in-flight commits, so a replication batch closed at
//     version V really contains everything ≤ V.
//
// Codec calls — the expensive part of a commit — run outside every lock
// but the gate's read side. Conflict-resolution inputs come from a keyed
// extract of just the conflicting keys, and the merge is ordered before
// the shadow publish so the only reachable read race is a value newer
// than its stamp, which the next delta pull heals.

// pubTracker tracks the published watermark: the highest version V such
// that every commit with a version ≤ V has fully landed (codec merged,
// shadow/dirty/log published). Versions are allocated under its lock so
// the in-flight set is gapless. mu is a leaf lock.
type pubTracker struct {
	mu       sync.Mutex
	pub      vclock.Version
	inflight map[vclock.Version]bool // false = running, true = landed above a running lower version
}

// begin atomically allocates the next version and marks it in flight.
func (p *pubTracker) begin(c *vclock.Counter) vclock.Version {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := c.Next()
	if p.inflight == nil {
		p.inflight = map[vclock.Version]bool{}
	}
	p.inflight[v] = false
	return v
}

// end marks a version landed and advances the watermark across every
// contiguously landed version.
func (p *pubTracker) end(v vclock.Version) {
	p.mu.Lock()
	p.inflight[v] = true
	for p.inflight[p.pub+1] {
		delete(p.inflight, p.pub+1)
		p.pub++
	}
	p.mu.Unlock()
}

// published returns the watermark.
func (p *pubTracker) published() vclock.Version {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pub
}

// reset fast-forwards the watermark after a quiesced counter jump
// (absorb under the gate; nothing is in flight).
func (p *pubTracker) reset(v vclock.Version) {
	p.mu.Lock()
	if v > p.pub {
		p.pub = v
	}
	p.mu.Unlock()
}

// EnableStriping does nothing: every store is striped. It is retained
// only because bench/replay.go, which a change to internal/directory may
// not edit, still calls it; the next benchmark-only PR drops the call and
// this method with it.
func (s *Store) EnableStriping() {}

// lockStore acquires the store exclusively for a whole-store mutation
// (absorb): the gate's write side quiesces every in-flight commit
// and extract, Store.mu fences the log readers that bypass the gate.
func (s *Store) lockStore() {
	s.gate.Lock()
	s.mu.Lock()
}

// unlockStore releases lockStore. It fast-forwards the published
// watermark to the (possibly advanced) counter before letting commits
// back in.
func (s *Store) unlockStore() {
	s.pub.reset(s.counter.Current())
	s.mu.Unlock()
	s.gate.Unlock()
}

// rlockStore acquires the store for a whole-store read (snapshot capture,
// invariant check): the gate's write side, so the multi-stripe capture is
// coherent and — critically for replication — complete up to the counter
// (a batch closed at version V contains every commit ≤ V, in-flight lanes
// drained), plus Store.mu's read side for the log.
func (s *Store) rlockStore() {
	s.gate.Lock()
	s.mu.RLock()
}

// runlockStore releases rlockStore.
func (s *Store) runlockStore() {
	s.mu.RUnlock()
	s.gate.Unlock()
}

// insertDirty adds a record keeping the stripe's dirty index
// version-ordered. Commits land mostly in order, so the scan from the
// back is O(1) amortized. Caller holds the stripe exclusively.
func (st *storeStripe) insertDirty(rec dirtyRec) {
	i := len(st.dirty)
	for i > 0 && st.dirty[i-1].version > rec.version {
		i--
	}
	st.dirty = append(st.dirty, dirtyRec{})
	copy(st.dirty[i+1:], st.dirty[i:])
	st.dirty[i] = rec
}

// insertLogLocked adds a record keeping the update log version-ordered
// under out-of-order lane landings. Caller holds Store.mu.
func (s *Store) insertLogLocked(rec UpdateRec) {
	i := len(s.log)
	for i > 0 && s.log[i-1].Version > rec.Version {
		i--
	}
	s.log = append(s.log, UpdateRec{})
	copy(s.log[i+1:], s.log[i:])
	s.log[i] = rec
}
