package directory

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"flecc/internal/image"
	"flecc/internal/metrics"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/trigger"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// Hot-standby replication (the HA half of §4.1's "fail-safe mechanisms
// can be implemented"): a primary directory manager streams its commits —
// protocol metadata, primary values, and view-registration state — to one
// standby over a TReplicate/TReplAck session, so the standby can take
// over without losing acknowledged commits and without forcing every
// cache manager through re-register/re-pull.
//
// The scheme is semi-synchronous group commit with gap/rewind shipping
// and epoch fencing:
//
//   - Every state-mutating request barriers on the replicator before its
//     ack is released: nothing a client can observe escapes the primary
//     unreplicated. A standby that stops answering is degraded
//     (availability over replication) and the degradation is counted.
//   - Batches are deltas since the standby's acknowledged watermark,
//     shipped one at a time by a sender goroutine under the retry
//     policy. The ack carries the standby's honest watermark: a
//     low ack rewinds the sender, and the standby refuses batches whose
//     Since it has not reached, so a lost batch leaves no hole — only a
//     resend, which Absorb's merge semantics make idempotent.
//   - Every batch carries the sender's epoch. Promotion installs a higher
//     epoch; a receiver refuses lower-epoch batches ("stale epoch"), and
//     a deposed primary that sees that refusal fences itself — it stops
//     serving rather than split-brain.
//
// A standby becomes primary one way: PromoteSelf, once the stream has
// been silent past the lease. No message promotes it.

// staleEpochMark is the substring a stale-epoch refusal carries; a
// deposed primary recognizes it in the remote error and fences itself.
const staleEpochMark = "stale epoch"

// SnapshotSince captures the metadata committed strictly after since:
// shadow records newer than since, in (version, key) order so encodings
// are deterministic and a receiver can append them, and the log tail.
// SnapshotSince(0) is a full snapshot. The records come from the
// version-ordered dirty index, so the capture costs what changed after
// since, not the size of the store.
//
// The capture quiesces in-flight lane commits (the gate's write side).
// With nothing in flight the published watermark
// equals the counter, so a replication batch closed at snap.Version
// carries every commit ≤ snap.Version — lanes drain into TReplicate
// batches in version-counter order with no holes.
func (s *Store) SnapshotSince(since vclock.Version) *Snapshot {
	snap := &Snapshot{}
	s.snapshotSince(snap, since)
	return snap
}

// snapshotSince is SnapshotSince into dst: it sets dst's version and
// appends the records to its shadow and log, which the caller has
// emptied (the replication sender reuses one snapshot for every batch).
func (s *Store) snapshotSince(dst *Snapshot, since vclock.Version) {
	s.rlockStore()
	defer s.runlockStore()
	dst.Version = s.counter.Current()
	for _, st := range s.stripes {
		start := sort.Search(len(st.dirty), func(i int) bool { return st.dirty[i].version > since })
		for _, rec := range st.dirty[start:] {
			sh, ok := st.shadow[rec.key]
			if !ok || sh.version != rec.version {
				continue // superseded record; the key's current version has its own
			}
			dst.Shadow = append(dst.Shadow, ShadowRec{
				Key: rec.key, Version: sh.version, Writer: sh.writer, Deleted: sh.deleted,
			})
		}
	}
	slices.SortFunc(dst.Shadow, func(a, b ShadowRec) int {
		return cmp.Or(cmp.Compare(a.Version, b.Version), strings.Compare(a.Key, b.Key))
	})
	i := sort.Search(len(s.log), func(i int) bool { return s.log[i].Version > since })
	dst.Log = append(dst.Log, s.log[i:]...)
}

// AbsorbImage merges replicated primary values into the original
// component's codec without issuing new versions — the entries keep the
// version/writer stamps the primary committed them under. It merges under
// the empty property set, the whole domain: the primary extracts the
// batch's values under that set (buildBatch), and a value the primary
// committed is the standby's whoever wrote it. It quiesces
// commits and extracts (the gate's write side) but touches no store
// metadata, so it takes no other store lock across the codec call.
func (s *Store) AbsorbImage(img *image.Image) error {
	if img == nil || img.Len() == 0 {
		return nil
	}
	s.gate.Lock()
	defer s.gate.Unlock()
	if err := s.primary.Merge(img, property.Set{}); err != nil {
		return fmt.Errorf("directory: absorb image: %w", err)
	}
	return nil
}

// haState is the manager's hot-standby bookkeeping: its fencing epoch,
// whether it is gating client traffic (standby) or refusing everything
// (fenced ex-primary), the attached replicator when it is a replicating
// primary, and a generation counter covering every batch-visible state
// change (commits and registration-state updates alike).
type haState struct {
	mu       sync.Mutex
	repl     *Replicator
	standby  bool
	fenced   bool
	epoch    uint64
	gen      uint64
	lastRepl vclock.Time
	haveRepl bool // lastRepl is meaningful

	// applyMu serializes batch decoding and application on a standby (a
	// transport may serve several requests at once, and several primaries
	// may address one standby across a failover). viewSeq, guarded by it,
	// is the view watermark: the sender's view-change sequence this
	// standby has applied through. tables, guarded by it too, are the
	// stream's intern tables: they live as long as the manager, so the
	// writer names, keys and scopes every batch repeats are decoded once.
	// batch, guarded by it too, is what every batch decodes into.
	applyMu sync.Mutex
	viewSeq uint64
	tables  *wire.Tables
	batch   batchBuf
}

// Epoch returns the manager's current fencing epoch.
func (m *Manager) Epoch() uint64 {
	m.ha.mu.Lock()
	defer m.ha.mu.Unlock()
	return m.ha.epoch
}

// Standby reports whether the manager is gating client traffic, waiting
// for promotion.
func (m *Manager) Standby() bool {
	m.ha.mu.Lock()
	defer m.ha.mu.Unlock()
	return m.ha.standby
}

// Fenced reports whether the manager has fenced itself after being
// deposed by a higher epoch.
func (m *Manager) Fenced() bool {
	m.ha.mu.Lock()
	defer m.ha.mu.Unlock()
	return m.ha.fenced
}

// PromoteSelf makes a standby take over as primary under a fresh epoch
// (lease-lapse self-promotion: fleccd's standby calls it once the
// replication stream has been silent past the lease). It returns the new
// epoch.
func (m *Manager) PromoteSelf() uint64 {
	m.ha.mu.Lock()
	defer m.ha.mu.Unlock()
	m.ha.epoch++
	m.ha.standby = false
	m.ha.fenced = false
	return m.ha.epoch
}

// StandbySilence returns how long ago the last replication batch arrived
// (0 while none has arrived yet — an unfed standby never counts silence,
// so it cannot self-promote before a primary has ever reached it). A
// standby whose silence exceeds the primary's lease may self-promote.
func (m *Manager) StandbySilence() vclock.Duration {
	m.ha.mu.Lock()
	defer m.ha.mu.Unlock()
	if !m.ha.haveRepl {
		return 0
	}
	return m.clock.Now() - m.ha.lastRepl
}

// haGen returns the current batch-visible state generation.
func (m *Manager) haGen() uint64 {
	m.ha.mu.Lock()
	defer m.ha.mu.Unlock()
	return m.ha.gen
}

// replBarrier is called at the end of every state-mutating handler: it
// bumps the state generation and, when a replicator is attached, blocks
// until the standby, unless it is down, has absorbed a batch at least
// that fresh. Without a replicator it is free.
func (m *Manager) replBarrier() error {
	m.ha.mu.Lock()
	m.ha.gen++
	g := m.ha.gen
	r := m.ha.repl
	m.ha.mu.Unlock()
	if r == nil {
		return nil
	}
	return r.WaitSynced(g)
}

// synced finalizes a mutating handler: it barriers on replication —
// nothing a client can observe escapes the primary unreplicated — and
// converts a barrier failure into the handler's error reply. A handler
// that already failed changed nothing and passes through. Handlers that
// hold the structural gate call it only after releasing the gate.
func (m *Manager) synced(reply *wire.Message) *wire.Message {
	if reply.Type == wire.TErr {
		return reply
	}
	if err := m.replBarrier(); err != nil {
		return errf("replicate: %v", err)
	}
	return reply
}

// haGate enforces role-based request gating ahead of dispatch: a fenced
// ex-primary refuses everything, a standby refuses client traffic, and
// TReplicate is always admitted (its own epoch check is the authority).
func (m *Manager) haGate(req *wire.Message) *wire.Message {
	if req.Type == wire.TReplicate {
		return nil
	}
	m.ha.mu.Lock()
	fenced, standby, epoch := m.ha.fenced, m.ha.standby, m.ha.epoch
	m.ha.mu.Unlock()
	if fenced {
		return errf("directory %s: %s (fenced deposed primary, epoch %d)", m.name, wire.NotServingMark, epoch)
	}
	if !standby {
		return nil
	}
	return errf("directory %s: %s (standby awaiting promotion)", m.name, wire.NotServingMark)
}

// handleReplicate absorbs one replication batch: epoch check, gap checks,
// metadata+values absorb, view records. The TReplAck always reports the
// receiver's honest watermarks — Version for the data, Since for the
// view-change sequence.
//
// View records add, refresh and remove the views they name. Full view
// state (ViewSince 0) additionally drops every view this manager learned
// from replication that the batch no longer lists — unregistered while
// the standby was unreachable. Views the manager holds on its own (restored
// from a checkpoint, or registered while it was a primary, before a
// higher-epoch stream re-integrated it as a standby) are never touched.
func (m *Manager) handleReplicate(req *wire.Message) *wire.Message {
	m.ha.applyMu.Lock()
	// A standby keeps its copy of the log bounded the same way a primary
	// does, from the replicated seen values; deferred first, so it runs
	// once applyMu is released.
	defer m.maybeCompact()
	defer m.ha.applyMu.Unlock()
	b, err := decodeReplBatch(m.ha.tables.NewDecoder(req.Blob), &m.ha.batch)
	if err != nil {
		return errf("%v", err)
	}
	m.ha.mu.Lock()
	if b.Epoch < m.ha.epoch {
		cur := m.ha.epoch
		m.ha.mu.Unlock()
		return errf("directory %s: %s %d (current %d)", m.name, staleEpochMark, b.Epoch, cur)
	}
	if b.Epoch > m.ha.epoch {
		m.ha.epoch = b.Epoch
		if m.ha.fenced {
			// A higher-epoch stream re-integrates a fenced ex-primary as a
			// standby of the new primary.
			m.ha.fenced = false
			m.ha.standby = true
		}
	}
	m.ha.lastRepl = m.clock.Now()
	m.ha.haveRepl = true
	m.ha.mu.Unlock()

	ack := func() *wire.Message {
		a := wire.NewMessage()
		a.Type, a.Version, a.Since = wire.TReplAck, m.store.Current(), vclock.Version(m.ha.viewSeq)
		return a
	}
	if b.Snap != nil {
		if b.Since > m.store.Current() || b.ViewSince > m.ha.viewSeq {
			// Refuse: absorbing would open a hole — commits in (cur,
			// b.Since], or view changes this standby never saw. The honest
			// watermarks in the ack rewind the sender.
			return ack()
		}
		if err := m.store.Absorb(b.Snap); err != nil {
			return errf("%v", err)
		}
		if err := m.store.AbsorbImage(b.Img); err != nil {
			return errf("%v", err)
		}
		// A batch closing at or below the watermark is a duplicate of
		// view state already applied (a resend that lost the race with
		// its original); full view state always applies and re-bases the
		// watermark on the sender's sequence.
		if b.ViewSince == 0 || b.ViewSeq > m.ha.viewSeq {
			if err := m.applyViewRecords(b); err != nil {
				return errf("%v", err)
			}
			m.ha.viewSeq = b.ViewSeq
		}
	}
	return ack()
}

// applyViewRecords applies a batch's view records: removals, then
// registrations, then touches — a name unregistered and registered again
// within one batch ends up registered. Only removals and registrations
// that change the registry take the structural gate; a touch updates the
// existing state under its own lock.
func (m *Manager) applyViewRecords(b *ReplBatch) error {
	removed := b.Removed
	if b.ViewSince == 0 {
		removed = append(m.unlistedReplicated(b.Snap.Views), removed...)
	}
	if len(removed) > 0 {
		m.structuralDo(func() {
			for _, name := range removed {
				m.dropView(name)
			}
		})
	}
	for _, hv := range b.Snap.Views {
		if err := m.installView(hv, true); err != nil {
			return err
		}
	}
	for _, t := range b.Touches {
		vs, ok := m.viewState(t.Name)
		if !ok {
			continue // removed since; nothing to refresh
		}
		m.applyTouch(vs, t)
	}
	return nil
}

// installView registers one carried view with its previous mode, seen
// version, and triggers, or refreshes it in place when it is already on
// the books: the registry is touched — under the structural gate — only
// for a new name or a changed property set, and an unchanged validity
// trigger is not recompiled. Shared by checkpoint restore and
// hot-standby replication's registration records (which set replicated;
// a restore makes the view this manager's own).
func (m *Manager) installView(hv ViewRecord, replicated bool) error {
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
			return fmt.Errorf("directory %s: validity trigger for %s: %v", m.name, hv.Name, err)
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
				vs = newViewState(hv.Name)
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

// captureViews appends every view's registration record to dst, sorted
// by name so encodings are deterministic.
func (m *Manager) captureViews(dst []ViewRecord) []ViewRecord {
	m.vmu.RLock()
	states := make([]*viewState, 0, len(m.views))
	for _, vs := range m.views {
		states = append(states, vs)
	}
	m.vmu.RUnlock()
	sort.Slice(states, func(i, j int) bool { return states[i].name < states[j].name })
	dst = slices.Grow(dst, len(states))
	var dropped ReplBatch // a view unregistered since the map read ships nothing
	for _, vs := range states {
		dst = m.captureView(&dropped, dst, vs, true)
	}
	return dst
}

// CaptureSince captures a snapshot of everything committed after since
// plus the full view-registration state. CaptureSince(0) is the full
// capture: restoring it (Options.Snapshot) brings a standby to the point
// where cache managers resume without re-register/re-pull.
func (m *Manager) CaptureSince(since vclock.Version) *Snapshot {
	snap := m.store.SnapshotSince(since)
	snap.Views = m.captureViews(nil)
	return snap
}

// unlistedReplicated returns the views known only from replication that
// a full-view-state batch's registration records do not list.
func (m *Manager) unlistedReplicated(listed []ViewRecord) []string {
	keep := make(map[string]bool, len(listed))
	for _, hv := range listed {
		keep[hv.Name] = true
	}
	var out []string
	m.vmu.RLock()
	for name, vs := range m.views {
		vs.mu.Lock()
		if vs.replicated && !keep[name] {
			out = append(out, name)
		}
		vs.mu.Unlock()
	}
	m.vmu.RUnlock()
	return out
}

// buildBatch assembles the batch after the given watermarks into the
// sender's buffer: the views that changed, then the metadata delta, then
// — when anything was committed — the primary values behind it
// (extracted under the empty property set, i.e. everything). Views go
// first so no record's Seen can exceed the version the batch closes at.
// The batch is valid until the next build.
func (r *Replicator) buildBatch(since vclock.Version, viewSince, epoch uint64) (*ReplBatch, error) {
	r.buf.reset()
	b := &r.buf.ReplBatch
	b.Epoch, b.Since, b.ViewSince, b.Snap = epoch, since, viewSince, &r.buf.snap
	r.captureViewChanges(b)
	r.m.store.snapshotSince(b.Snap, since)
	if b.Snap.Version > since {
		img, err := r.m.store.Extract(property.NewSet(), since)
		if err != nil {
			return nil, fmt.Errorf("directory %s: build repl batch: %w", r.m.name, err)
		}
		b.Img = img
	}
	return b, nil
}

// ReplLag returns the primary-version gap between this manager and its
// standby's last acknowledged version, whether or not the standby is
// reachable (0 without a replicator — or when fully caught up).
func (m *Manager) ReplLag() uint64 {
	m.ha.mu.Lock()
	r := m.ha.repl
	m.ha.mu.Unlock()
	if r == nil {
		return 0
	}
	return r.Lag()
}

// ReplTarget names the standby: the remote node to address TReplicate
// to, and optionally a dedicated endpoint to call through (nil uses the
// manager's own network endpoint — the in-process/model-checker case).
type ReplTarget struct {
	Name string
	Ep   transport.Endpoint
}

// ReplConfig tunes a replication session.
type ReplConfig struct {
	// Retry is the sender's per-batch policy: a batch whose every attempt
	// fails at the transport marks the standby down.
	Retry transport.RetryPolicy
	// Lease is the primary's lease duration (virtual time). A standby
	// whose silence exceeds it may self-promote; with FenceOnLapse the
	// primary fences itself once it has failed to reach the standby for
	// longer than this.
	Lease vclock.Duration
	// FenceOnLapse makes the primary self-fence when its lease lapses
	// (standby unreachable for > Lease). Deployments whose standby
	// self-promotes set this so the old primary cannot split-brain.
	FenceOnLapse bool
}

// Replicator is a primary's replication session to its one standby. Its
// watermarks are what the standby acknowledged; the next batch starts
// there.
type Replicator struct {
	m    *Manager
	cfg  ReplConfig
	name string // the standby's node
	ep   transport.Endpoint
	done chan struct{} // closed when the sender exits

	mu       sync.Mutex
	cond     *sync.Cond
	epoch    uint64
	fenced   bool
	closed   bool
	ackedVer vclock.Version // standby's honest watermark
	// ackedView is the same watermark in the view-change sequence; zero
	// means the next batch carries full view state.
	ackedView uint64
	ackedGen  uint64 // state generation the standby has absorbed
	kick      bool   // forced ship requested (heartbeat / probe)
	down      bool   // degraded: unreachable, excluded from barriers
	downAt    vclock.Time

	// journal orders the manager's view changes for shipping (viewlog.go).
	// Lock order: mu before journal.mu.
	journal viewJournal
	// buf is the sender goroutine's: every batch is built into it.
	buf batchBuf

	batches  *metrics.Counter // batches shipped
	degraded *metrics.Counter // barriers released with the standby down
}

// StartReplication attaches a replication session to the manager and
// starts the sender that streams to the standby. The manager's commit
// and registration paths barrier on it from then on.
func (m *Manager) StartReplication(cfg ReplConfig, target ReplTarget) (*Replicator, error) {
	ep := target.Ep
	if ep == nil {
		ep = m.ep
	}
	r := &Replicator{
		m:        m,
		cfg:      cfg,
		name:     target.Name,
		ep:       ep,
		done:     make(chan struct{}),
		epoch:    m.Epoch(),
		batches:  metrics.NewCounter(m.name + ".repl_batches"),
		degraded: metrics.NewCounter(m.name + ".repl_degraded"),
	}
	r.cond = sync.NewCond(&r.mu)
	m.ha.mu.Lock()
	if m.ha.repl != nil {
		m.ha.mu.Unlock()
		return nil, fmt.Errorf("directory %s: replication already started", m.name)
	}
	// Track view changes from before the first barrier can reach r: its
	// first batch is full state, and nothing after that capture may go
	// unrecorded.
	m.tracking.Store(true)
	m.ha.repl = r
	m.ha.mu.Unlock()
	go r.runSender()
	return r, nil
}

// Replication returns the attached replication session (nil when not a
// replicating primary).
func (m *Manager) Replication() *Replicator {
	m.ha.mu.Lock()
	defer m.ha.mu.Unlock()
	return m.ha.repl
}

// Lag returns the version gap to the standby's last acknowledged
// version. A down standby counts: its lag grows with every degraded
// commit.
func (r *Replicator) Lag() uint64 {
	cur := r.m.store.Current()
	r.mu.Lock()
	defer r.mu.Unlock()
	return uint64(cur) - uint64(r.ackedVer)
}

// Degraded reports whether the standby is currently excluded from
// barriers as unreachable.
func (r *Replicator) Degraded() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.down
}

// BatchesShipped returns the number of replication batches sent.
func (r *Replicator) BatchesShipped() int64 { return r.batches.Value() }

// DegradedBarriers returns how many barriers were released while the
// standby was down (commits acked without replication).
func (r *Replicator) DegradedBarriers() int64 { return r.degraded.Value() }

// fencedErr is what a fenced replicator fails barriers with. Caller holds
// r.mu.
func (r *Replicator) fencedErr() error {
	return fmt.Errorf("directory %s: fenced (deposed primary, epoch %d)", r.m.name, r.epoch)
}

// holds reports whether the standby has acked primary version v or later
// — true on a nil replicator or a down standby. A fenced replicator
// fails, as in WaitSynced, but nothing waits, bumps the state generation
// or wakes the sender. The caller must not hold ha.mu: the replicator
// takes ha.mu under r.mu (pendingLocked, fenceLocked).
func (r *Replicator) holds(v vclock.Version) (bool, error) {
	if r == nil {
		return true, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fenced {
		return false, r.fencedErr()
	}
	return r.down || r.ackedVer >= v, nil
}

// WaitSynced blocks until the standby has absorbed a batch whose
// captured state generation is at least gen (semi-synchronous group
// commit). A standby marked down is skipped — availability over
// replication — and the skip is counted. A fenced replicator fails.
func (r *Replicator) WaitSynced(gen uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cond.Broadcast() // wake the sender: new state to ship
	for {
		switch {
		case r.fenced:
			return r.fencedErr()
		case r.closed:
			return nil
		case r.down:
			r.degraded.Inc()
			return nil
		case r.ackedGen >= gen:
			return nil
		}
		r.cond.Wait()
	}
}

// runSender is the pump: it waits until the standby has unshipped state,
// ships one batch from the acknowledged watermarks under the retry
// policy, and folds the outcome. Because it wakes only on a barrier's or
// heartbeat's broadcast and ships one batch at a time, a caller that
// issues one request at a time sees the same batches in the same order
// on every run.
func (r *Replicator) runSender() {
	defer close(r.done)
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		for !r.closed && !r.fenced && !r.pendingLocked() {
			r.cond.Wait()
		}
		if r.closed || r.fenced {
			return
		}
		r.kick = false
		since, viewSince, epoch := r.ackedVer, r.ackedView, r.epoch
		r.mu.Unlock()
		gen := r.m.haGen()
		batch, err := r.buildBatch(since, viewSince, epoch)
		var reply *wire.Message
		if err == nil {
			r.batches.Inc()
			reply, err = r.ship(batch)
		}
		r.mu.Lock()
		switch {
		case err == nil && reply != nil && reply.Type == wire.TReplAck:
			r.applyAckLocked(batch.Snap.Version, batch.ViewSeq, gen, reply)
		case err != nil && !transport.IsTransportError(err) && strings.Contains(err.Error(), staleEpochMark):
			r.fenceLocked()
		default:
			// Retries exhausted, a refusal, or a batch the primary could
			// not build: resending at once would fail the same way, so the
			// barriers release degraded and the next heartbeat probes.
			r.degradeLocked()
		}
		wire.Recycle(reply)
	}
}

// ship encodes a batch into a pooled encoder and sends it as a pooled
// TReplicate whose Blob is the encoder's buffer: Call is done with its
// request when it returns, so both go back then.
func (r *Replicator) ship(b *ReplBatch) (*wire.Message, error) {
	e := wire.GetEncoder()
	encodeReplBatch(e, b)
	req := wire.NewMessage()
	req.Type, req.Blob = wire.TReplicate, e.Encoded()
	reply, err := transport.CallRetry(r.ep, r.name, req, r.cfg.Retry)
	wire.Recycle(req)
	wire.PutEncoder(e)
	return reply, err
}

// applyAckLocked folds one TReplAck into the watermarks. end and viewEnd
// are where the shipped batch closed, gen the state generation it
// captured. An ack at or beyond both means the batch was absorbed; a
// lower one is a refusal (or partial knowledge) and rewinds the sender to
// the standby's honest watermarks — each to what the standby reports for
// it, so a batch refused for a view gap does not re-ship data the standby
// holds, and the other way round. The refused batch's state is still
// pending, so the sender re-ships at once.
func (r *Replicator) applyAckLocked(end vclock.Version, viewEnd, gen uint64, reply *wire.Message) {
	ackedView := uint64(reply.Since)
	if reply.Version >= end {
		r.ackedVer = max(r.ackedVer, end)
	} else {
		r.ackedVer = reply.Version
	}
	if ackedView >= viewEnd {
		r.ackedView = max(r.ackedView, viewEnd)
	} else {
		r.ackedView = ackedView
	}
	if reply.Version >= end && ackedView >= viewEnd {
		r.ackedGen = max(r.ackedGen, gen)
	}
	r.down = false
	r.journal.trim(r.ackedView)
	r.cond.Broadcast()
}

// degradeLocked marks the standby down: barriers stop waiting for it
// until a heartbeat probe is acked. The probe ships full view state, so
// the journal keeps no records on a down standby's behalf.
func (r *Replicator) degradeLocked() {
	if !r.down {
		r.down = true
		r.downAt = r.m.clock.Now()
	}
	r.ackedView = 0
	r.journal.trim(^uint64(0))
	r.cond.Broadcast() // release barriers into degraded mode
}

func (r *Replicator) fenceLocked() {
	r.fenced = true
	r.m.ha.mu.Lock()
	r.m.ha.fenced = true
	r.m.ha.mu.Unlock()
	r.cond.Broadcast()
}

// pendingLocked reports whether the standby has state it has not
// acknowledged. A down standby only ships when kicked (the heartbeat
// doubles as its probe).
func (r *Replicator) pendingLocked() bool {
	if r.down {
		return r.kick
	}
	return r.kick || r.ackedGen < r.m.haGen()
}

// Heartbeat kicks the sender: an idle standby gets an empty batch (which
// refreshes its lease timer and carries current view state), a down one
// gets a probe. With FenceOnLapse, a primary whose standby has been
// unreachable for longer than the lease fences itself. Deployments call
// this from their ticker loop; the replicator owns no timers of its own.
func (r *Replicator) Heartbeat() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.kick = true
	if r.cfg.FenceOnLapse && r.cfg.Lease > 0 && r.down && !r.fenced &&
		r.m.clock.Now()-r.downAt > r.cfg.Lease {
		r.fenceLocked()
	}
	r.cond.Broadcast()
}

// Close stops the sender, waiting out a batch in flight. Outstanding
// barriers are released.
func (r *Replicator) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	<-r.done
	// Nobody drains the change stack any more.
	r.m.tracking.Store(false)
	r.m.dirtyViews.Store(nil)
}
