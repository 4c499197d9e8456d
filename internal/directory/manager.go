package directory

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flecc/internal/image"
	"flecc/internal/metrics"
	"flecc/internal/property"
	"flecc/internal/registry"
	"flecc/internal/transport"
	"flecc/internal/trigger"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// Options tunes the directory manager's policies. The zero value is the
// Flecc protocol as described in the paper. Who conflicts with whom and
// when a pull gathers are not options: the application states them with
// the paper's own inputs — the static conflict matrix
// (Registry().SetStatic) and each view's validity trigger — and the comparator
// protocols in internal/baseline are written with exactly those.
type Options struct {
	// PropagateOnPush switches weak-mode update distribution from
	// pull-based (peers learn of changes when they next pull) to
	// push-based: every committed push is immediately forwarded, as a
	// TUpdate restricted to each recipient's property set, to the
	// conflicting active views. Update protocols favor read-heavy sharing; the
	// propagation ablation (experiments E10) measures the trade-off.
	PropagateOnPush bool
	// ReadAware enables the read/write-semantics extension (paper §6
	// future work): pulls tagged OpRead by strong-mode views do not
	// invalidate other active readers, only writers are exclusive.
	ReadAware bool
	// Resolver is the application conflict resolver installed on the
	// store.
	Resolver image.Resolver
	// Snapshot, if non-nil, restores a failed directory manager's
	// protocol metadata into this (standby) instance before it starts
	// serving — the fail-safe mechanism sketched in §4.1. A snapshot
	// carrying view-registration state (Manager.CaptureSince) also
	// reinstalls the views, so cache managers resume without
	// re-register/re-pull.
	Snapshot *Snapshot
	// Standby starts the manager gating client traffic: it absorbs
	// replication batches but refuses every other request until promoted
	// (replicate.go). A deployment's hot standby runs with this set.
	Standby bool
	// Retry bounds the retry-with-backoff the manager applies to its own
	// outbound calls (invalidate, fetch, update) before declaring the
	// target view unreachable and evicting it. The zero value uses the
	// transport defaults.
	Retry transport.RetryPolicy
	// FanOut is the width of a DM-initiated round (invalidate, gather,
	// propagate): how many views it contacts at a time (forEachTarget).
	// 0 means DefaultFanOut. It is a count, not a mode: at 1 the calling
	// goroutine is the only worker, so the round is serial in conflict-set
	// order — what the deterministic experiment harness and the model
	// checker run (and what the paper describes); at n > 1 a slow or dying
	// view costs its own retry budget, not everyone else's.
	FanOut int
	// InvalFilter, if non-nil, rewrites the invalidation target set of
	// each pull before the round runs (receiving the requesting view and
	// the computed targets). Production deployments leave it nil; it
	// exists for protocol verification — the model checker's mutation
	// self-test seeds a skipped-invalidation bug through it and proves
	// the checker renders the resulting violation.
	InvalFilter func(requester string, targets []string) []string
	// Lanes is the number of execution lanes (lanes.go): commits from
	// disjoint conflict groups run through separate lanes in parallel,
	// commits within one conflict group keep arrival order. 0 means 1 —
	// every commit takes the one lane, in arrival order, which is what
	// the deterministic experiment harness and the model checker run. It
	// is a count, not a mode: every value runs the same commit path.
	// Deployments set it via flecc.WithLanes / fleccd -lanes.
	Lanes int
}

// DefaultFanOut is the fan-out width applied when Options.FanOut is 0.
const DefaultFanOut = 4

// viewState is the DM-side record for one registered view. Its mutable
// fields are guarded by its own mu, so two views' requests never contend
// on a shared manager lock; the map holding the states is guarded by
// Manager.vmu. Lock order: vmu before any vs.mu, never the reverse.
type viewState struct {
	mu sync.Mutex
	// commitMu orders the view's own writes after its surrenders: a
	// collect holds the read side from its request until the surrendered
	// delta has landed; a push commits, and an image is extracted for the
	// view, under the write side (collect, serve).
	commitMu sync.RWMutex

	name     string
	mode     wire.Mode
	seen     vclock.Version
	validity trigger.Trigger
	// lastOp is the op class of the view's most recent acquire/pull; the
	// read-aware extension uses it to decide whether an active view must
	// be invalidated by a reader.
	lastOp wire.OpClass
	// phase is the view's activity (phase.go); only transition writes it.
	// served counts the evServe events it has seen: a TInvalidate reply
	// applies only if the count has not moved since the request went out.
	// collects counts the collects to the view in flight; invalPending
	// and invalAt hold an invalidation that landed while others were, and
	// the serve count it is for (collected).
	phase        Phase
	served       uint64
	collects     int
	invalPending bool
	invalAt      uint64
	// leaving marks a view dropped with collects to it in flight
	// (Manager.leaving).
	leaving bool
	// pushed is the version of the view's last push when that commit met
	// no conflict, else 0. Not replicated: a promoted standby starts at 0
	// and serves every commit.
	pushed vclock.Version
	// granted marks a view this manager granted (grant.go) that has had no
	// peer since: no one else commits to its data. leaseEnd is when, on
	// the manager's clock, a grant its cache manager may hold ends; zero
	// when none. Neither is replicated.
	granted  bool
	leaseEnd vclock.Time
	// replicated marks a view this manager knows only from a primary's
	// replication stream. Full view state from that stream is
	// authoritative for exactly these: one it no longer lists is dropped.
	replicated bool
	// pullReq and invalReq are the view's collect requests (collect),
	// built once by newViewState and shared by every round: an endpoint
	// never writes to the message it is handed (transport.Endpoint).
	pullReq, invalReq wire.Message

	// Replication change tracking (viewlog.go). regDirty and queued are
	// set by the mutation sites without any lock; nextDirty links the
	// manager's dirty stack and belongs to whoever won the queued flag;
	// jSeq and jRegSeq are the view's latest journal sequences, guarded
	// by the journal's lock.
	regDirty      atomic.Bool
	queued        atomic.Bool
	nextDirty     *viewState
	jSeq, jRegSeq uint64
}

// newViewState makes the record of the view called name.
func newViewState(name string) *viewState {
	return &viewState{
		name:     name,
		pullReq:  wire.Message{Type: wire.TPull, View: name},
		invalReq: wire.Message{Type: wire.TInvalidate, View: name},
	}
}

// Manager is the Flecc directory manager: one per original component.
type Manager struct {
	name  string
	store *Store
	reg   *registry.Registry
	clock vclock.Clock
	opts  Options

	ep transport.Endpoint

	// leaving counts the views dropped while collects to them were in
	// flight whose surrenders have not all landed yet. They are out of
	// every conflict set, so a claim waits for them instead (claim).
	leaving atomic.Int32

	// evictions counts views discarded after their cache manager stopped
	// answering DM-initiated calls (the ViewsEvicted metric).
	evictions *metrics.Counter

	// claimRetries counts the extra rounds pulls made after losing their
	// claim to a conflicting pull (the ClaimRetries metric).
	claimRetries *metrics.Counter

	// grants, revoked and leaseWaits count granted pulls, revocation legs
	// and revocations that waited a lease out (grant.go). grantBlock holds
	// new grants off while a CommitLocal revokes; leased is set once any
	// lease may exist, so a structural change with none looks for none.
	grants, revoked, leaseWaits *metrics.Counter
	grantBlock                  atomic.Int32
	leased                      atomic.Bool

	// Hot-path latency accounting: whole pulls, whole pushes, and the
	// fan-out rounds inside them.
	latPull   *metrics.Latency
	latPush   *metrics.Latency
	latFanout *metrics.Latency

	// fetchLeg and invalLeg are the per-target calls of handlePull's
	// gather and invalidation rounds, bound once so a round allocates no
	// closure.
	fetchLeg, invalLeg func(target string) error

	// vmu guards the views map itself; each viewState carries its own
	// lock for its mutable fields. Replaces the old single Manager.mu
	// that serialized every request's state access.
	vmu   sync.RWMutex
	views map[string]*viewState

	// dirtyViews heads the lock-free stack of views whose replicated
	// state changed since the replicator last drained it; tracking is set
	// while a replicator is attached to drain it (viewlog.go).
	dirtyViews atomic.Pointer[viewState]
	tracking   atomic.Bool

	// lanes is the conflict-group execution-lane table (lanes.go).
	lanes *laneSet

	// ha is the hot-standby replication state (replicate.go): role,
	// fencing epoch, attached replicator, and the batch-visible state
	// generation every mutating handler bumps.
	ha haState

	// compactAt is the update-log length past which the next commit runs
	// CompactLog (maybeCompact); compaction itself re-arms it.
	compactAt atomic.Int64
}

// minCompactAt is the smallest update-log length that triggers a
// compaction: below it a floor scan is not worth its cost.
const minCompactAt = 64

// New creates a directory manager named name around the original
// component's codec and attaches it to the network. Initially only the
// directory manager is running in the system (paper §4.2).
func New(name string, primary image.Codec, clock vclock.Clock, net transport.Network, opts Options) (*Manager, error) {
	m := &Manager{
		name:         name,
		store:        NewStore(primary, clock),
		reg:          registry.New(),
		clock:        clock,
		opts:         opts,
		views:        map[string]*viewState{},
		evictions:    metrics.NewCounter(name + ".views_evicted"),
		claimRetries: metrics.NewCounter(name + ".claim_retries"),
		grants:       metrics.NewCounter(name + ".grants"),
		revoked:      metrics.NewCounter(name + ".revocations"),
		leaseWaits:   metrics.NewCounter(name + ".grant_lease_waits"),
		latPull:      metrics.NewLatency("pull"),
		latPush:      metrics.NewLatency("push"),
		latFanout:    metrics.NewLatency("fanout"),
	}
	if opts.Resolver != nil {
		m.store.SetResolver(opts.Resolver)
	}
	m.fetchLeg = func(target string) error { return m.collectLeg(target, wire.TPull, "fetch from") }
	m.invalLeg = func(target string) error { return m.collectLeg(target, wire.TInvalidate, "invalidate") }
	m.lanes = newLaneSet(m, max(1, opts.Lanes))
	m.compactAt.Store(minCompactAt)
	if opts.Snapshot != nil {
		if err := m.store.Absorb(opts.Snapshot); err != nil {
			return nil, err
		}
		for _, hv := range opts.Snapshot.Views {
			if err := m.installView(hv, false); err != nil {
				return nil, err
			}
		}
		m.outwaitPredecessor()
	}
	// A fresh standby's silence clock stays unarmed until the first
	// replication batch arrives: before it has heard from a primary there
	// is nothing to take over, and the pair boots standby-first (the
	// primary dials it), so counting from construction would self-promote
	// the standby right past the lease and depose the arriving primary.
	if opts.Standby {
		m.ha.standby = true
	}
	m.ha.tables = wire.NewTables()
	ep, err := net.Attach(name, m.handle)
	if err != nil {
		return nil, fmt.Errorf("directory: attach %q: %w", name, err)
	}
	m.ep = ep
	return m, nil
}

// Name returns the directory manager's node name.
func (m *Manager) Name() string { return m.name }

// Store exposes the primary store (for tools, tests, and the quality
// metric).
func (m *Manager) Store() *Store { return m.store }

// Registry exposes the conflict registry so deployments can install the
// static conflict map before views arrive.
func (m *Manager) Registry() *registry.Registry { return m.reg }

// Close detaches the manager from the network.
func (m *Manager) Close() error { return m.ep.Close() }

// CurrentVersion returns the primary's committed version.
func (m *Manager) CurrentVersion() vclock.Version { return m.store.Current() }

// Views returns the registered view names.
func (m *Manager) Views() []string { return m.reg.Views() }

// UnseenCommitted returns the committed part of the paper's quality metric
// for a view: ops committed to shared data by other writers that the view
// has not yet observed. Unknown views report 0.
func (m *Manager) UnseenCommitted(view string) int {
	vs, ok := m.viewState(view)
	if !ok {
		return 0
	}
	vs.mu.Lock()
	seen := vs.seen
	vs.mu.Unlock()
	props, _ := m.reg.Props(view)
	return m.store.UnseenOps(seen, view, props)
}

// ViewsEvicted returns how many views this manager has evicted because
// their cache manager stopped answering DM-initiated calls.
func (m *Manager) ViewsEvicted() int64 { return m.evictions.Value() }

// ClaimRetries reports how many extra rounds pulls have made after losing
// their claim to a conflicting pull.
func (m *Manager) ClaimRetries() int64 { return m.claimRetries.Value() }

// Latencies exposes the manager's hot-path latency accumulators: whole
// pulls, whole pushes, and the DM-initiated fan-out rounds inside them.
func (m *Manager) Latencies() (pull, push, fanout *metrics.Latency) {
	return m.latPull, m.latPush, m.latFanout
}

// Seen returns the primary version a view last observed.
func (m *Manager) Seen(view string) vclock.Version {
	if vs, ok := m.viewState(view); ok {
		vs.mu.Lock()
		defer vs.mu.Unlock()
		return vs.seen
	}
	return 0
}

// Pushed returns the version of a view's last push if that commit met no
// conflict, else 0.
func (m *Manager) Pushed(view string) vclock.Version {
	if vs, ok := m.viewState(view); ok {
		vs.mu.Lock()
		defer vs.mu.Unlock()
		return vs.pushed
	}
	return 0
}

// handle is the DM protocol FSM entry point.
func (m *Manager) handle(req *wire.Message) *wire.Message {
	if reply := m.haGate(req); reply != nil {
		return reply
	}
	// A message from a lost view proves its cache manager is alive again
	// (the eviction was a false positive, or the CM reconnected without
	// needing to re-register): clear the tombstone so the view rejoins
	// conflict accounting. Register has its own revival path; routed and
	// replication envelopes are not CM-originated.
	switch req.Type {
	case wire.TRegister, wire.TRouted, wire.TReplicate:
	default:
		if vs, ok := m.viewState(req.From); ok && vs.phaseOf() == PhaseLost {
			m.revive(vs)
		}
	}
	switch req.Type {
	case wire.TRegister:
		return m.handleRegister(req)
	case wire.TUnregister:
		return m.handleUnregister(req)
	case wire.TInit:
		return m.handleInit(req)
	case wire.TPull:
		return m.handlePull(req)
	case wire.TPush:
		return m.handlePush(req)
	case wire.TSetMode:
		return m.handleSetMode(req)
	case wire.TSetProps:
		return m.handleSetProps(req)
	case wire.TRouted:
		return m.handleRouted(req)
	case wire.TReplicate:
		return m.handleReplicate(req)
	default:
		return errf("directory %s: unexpected message %s", m.name, req.Type)
	}
}

// revive moves a lost view back into conflict accounting. Revival adds
// conflict edges back, so it drains the execution lanes like any
// structural change, and it revokes the grants of the holders it now
// conflicts with before the view's request is served: the view's commit
// lock is held until then, so none of its requests commits or is served
// first.
func (m *Manager) revive(vs *viewState) {
	vs.commitMu.RLock()
	defer vs.commitMu.RUnlock()
	var r revocation
	m.structuralDo(func() {
		if vs.phaseOf() == PhaseLost {
			m.transition(vs, evRevived)
			r = m.joinerRevocations(vs.name)
		}
	})
	m.revoke(r)
}

// handleRouted unwraps a router→shard envelope and dispatches the inner
// message as if the originating view had called directly. The inner
// request goes back to the wire pool once its handler has returned,
// unless it is the reply.
func (m *Manager) handleRouted(req *wire.Message) *wire.Message {
	inner, err := wire.Decode(req.Blob)
	if err != nil {
		return errf("directory %s: bad routed payload: %v", m.name, err)
	}
	if inner.Type == wire.TRouted {
		return errf("directory %s: refusing nested %s inside routed envelope", m.name, inner.Type)
	}
	if req.View != "" {
		inner.From = req.View
	}
	reply := m.handle(inner)
	if reply != inner {
		wire.Recycle(inner)
	}
	return reply
}

func errf(format string, args ...any) *wire.Message {
	return &wire.Message{Type: wire.TErr, Err: fmt.Sprintf(format, args...)}
}

func (m *Manager) handleRegister(req *wire.Message) *wire.Message {
	view := req.From
	if req.View != "" {
		view = req.View
	}
	val, err := trigger.Compile(req.Trig.Validity)
	if err != nil {
		return errf("bad validity trigger for %s: %v", view, err)
	}
	// Registration changes the conflict structure (it can add edges), so
	// it drains the execution lanes first. The grants of the holders the
	// view now conflicts with are revoked, and the replication barrier
	// runs, after the lanes are released: a slow holder or standby must
	// not stall every commit lane for the length of a round trip. The
	// view is served nothing before its registration is acked.
	var r revocation
	reply := m.structural(func() *wire.Message {
		if m.reg.Has(view) {
			return m.reRegister(view, req, val, &r)
		}
		if err := m.reg.Register(view, req.Props); err != nil {
			return errf("%v", err)
		}
		vs := newViewState(view)
		vs.mode, vs.validity, vs.lastOp = req.Mode, val, req.Op
		m.vmu.Lock()
		m.views[view] = vs
		m.vmu.Unlock()
		m.transition(vs, evRegister)
		r = m.joinerRevocations(view)
		return &wire.Message{Type: wire.TAck, Version: m.store.Current()}
	})
	m.revoke(r)
	return m.synced(reply)
}

// reRegister handles a register for a name that is already on the books.
// A reconnecting cache manager re-announces itself with the same property
// set; that must be idempotent — the recorded seen/mode survive so delta
// pulls resume where they left off — and it revives a lost tombstone. A
// registration with different properties is only accepted over a lost
// tombstone (the old holder is gone); against a live view it stays an
// error, as before.
//
// A reconnecting cache manager dropped its grant before it registered
// again, so its record forgets it. A registration that revives the view or
// claims its name gives it conflict edges, and r is set to the revocation
// that must run before the reply; a claim also waits out the lease the
// name's previous holder may still be reading under.
func (m *Manager) reRegister(view string, req *wire.Message, val trigger.Trigger, r *revocation) *wire.Message {
	prev, _ := m.reg.Props(view)
	vs, _ := m.viewState(view) // registered, so it has a record
	if prev.Equal(req.Props) {
		// Keep seen and mode; refresh only what the CM re-announces.
		vs.mu.Lock()
		vs.validity = val
		vs.lastOp = req.Op
		vs.mu.Unlock()
		vs.clearGrant()
		if m.transition(vs, evReRegister) == PhaseLost {
			*r = m.joinerRevocations(view)
		}
		return &wire.Message{Type: wire.TAck, Version: m.store.Current()}
	}
	if vs.phaseOf() != PhaseLost {
		return errf("registry: view %q already registered", view)
	}
	// A new holder claims a dead view's name with different properties:
	// start it fresh (seen resets; its first pull is a full image).
	if err := m.reg.SetProps(view, req.Props); err != nil {
		return errf("%v", err)
	}
	vs.mu.Lock()
	vs.mode, vs.seen, vs.validity, vs.lastOp = req.Mode, 0, val, req.Op
	prevLease := vs.leaseEnd
	vs.granted, vs.leaseEnd = false, 0
	vs.mu.Unlock()
	m.transition(vs, evClaim)
	*r = m.joinerRevocations(view)
	r.until = max(r.until, prevLease)
	return &wire.Message{Type: wire.TAck, Version: m.store.Current()}
}

func (m *Manager) handleUnregister(req *wire.Message) *wire.Message {
	return m.synced(m.structural(func() *wire.Message {
		m.dropView(req.From)
		return &wire.Message{Type: wire.TAck}
	}))
}

// dropView unregisters a view and moves its record to gone, so that the
// replication journal ships its removal. Caller holds the structural
// gate.
func (m *Manager) dropView(view string) {
	m.reg.Unregister(view)
	m.vmu.Lock()
	vs, ok := m.views[view]
	delete(m.views, view)
	m.vmu.Unlock()
	if ok {
		m.transition(vs, evDrop)
		vs.mu.Lock()
		if vs.collects > 0 {
			// Its surrenders in flight still land (collected); until they
			// have, no claim finds them missing (claim).
			vs.leaving = true
			m.leaving.Add(1)
		}
		vs.mu.Unlock()
	}
}

func (m *Manager) viewState(view string) (*viewState, bool) {
	m.vmu.RLock()
	defer m.vmu.RUnlock()
	vs, ok := m.views[view]
	return vs, ok
}

func (m *Manager) handleInit(req *wire.Message) *wire.Message {
	vs, ok := m.viewState(req.From)
	if !ok {
		return errf("init from unregistered view %s", req.From)
	}
	// Init activates without invalidating (PROTOCOL.md "Two modeling
	// decisions").
	m.transition(vs, evServe)
	return m.serve(vs, 0, commitID{}, false, false)
}

// serve answers an init or a pull whose view is already active: the
// primary data restricted to the view's set and trimmed to entries newer
// than since, less skip's entries, recorded as seen. Its replication
// barrier covers the whole request — for a pull, the commits it
// invalidated or gathered too — so they land on the standby before the
// requester sees its image.
//
// quiet says the pull contacted no invalidate or gather target, kept its
// op class, and found its view already active. Such a pull, whose reply
// serves a version the standby holds (or the standby is down), has moved
// nothing but the view's seen: it skips the barrier, and the touch stays
// on the change stack for the next batch or heartbeat. A standby whose
// seen lags only errs on the safe side (PROTOCOL.md "Barrier").
//
// grant says the pull was granted (claimGrant); the reply says so.
func (m *Manager) serve(vs *viewState, since vclock.Version, skip commitID, quiet, grant bool) *wire.Message {
	props, _ := m.reg.Props(vs.name)
	// Under the view's commit lock, no surrender of its own writes is in
	// flight (collect): the image holds them, so the view cannot take an
	// older value back over what it surrendered.
	vs.commitMu.Lock()
	img, ver, err := m.store.extract(props, since, skip)
	vs.commitMu.Unlock()
	if err != nil {
		return errf("%v", err)
	}
	vs.mu.Lock()
	vs.seen = ver
	vs.mu.Unlock()
	m.viewChanged(vs, false)
	reply := wire.NewMessage()
	reply.Type, reply.Img, reply.Version, reply.Grant = wire.TImage, img, ver, grant
	if quiet {
		held, err := m.Replication().holds(ver)
		if err != nil {
			return errf("replicate: %v", err)
		}
		if held {
			return reply
		}
	}
	return m.synced(reply)
}

// Claim bounds: a pull that finds its group claimed by a conflicting pull
// goes round again — invalidate, re-check — up to maxClaims times, backing
// off claimBackoff longer after each attempt, and then refuses with
// wire.ContendedMark, which the view's cache manager reports as
// cache.ErrInvalidated: pull again.
const (
	maxClaims    = 32
	claimBackoff = 20 * time.Microsecond
)

// handlePull is the heart of the protocol (paper Figure 2). Serving a pull
// may require invalidating conflicting active views (strong mode) or
// gathering their pending updates (weak mode with an unhappy validity
// trigger) before extracting the primary data for the requester.
//
// The rounds run with no lock held, so the views they stopped may have
// been served again by the time they end: a pull claims its view active
// only after re-checking, under its conflict group's lane (claim), that
// nothing is left to invalidate, and goes round again otherwise.
func (m *Manager) handlePull(req *wire.Message) *wire.Message {
	start := time.Now()
	defer func() { m.latPull.Observe(time.Since(start)) }()
	view := req.From
	vs, ok := m.viewState(view)
	if !ok {
		return errf("pull from unregistered view %s", view)
	}
	vs.mu.Lock()
	mode := vs.mode
	opChanged := vs.lastOp != req.Op
	vs.lastOp = req.Op
	// The puller names the last push ack it folded; if that push is the
	// view's last one and met no conflict, the view holds what it
	// committed and the reply leaves it out.
	var skip commitID
	if req.Version != 0 && req.Version == vs.pushed {
		skip = commitID{version: req.Version, writer: view}
	}
	vs.mu.Unlock()
	m.viewChanged(vs, false)

	contacted, wasActive, granted := false, false, false
	var conflicting []string
	var epoch uint64
	for attempt := 0; ; attempt++ {
		if e := m.reg.Epoch(); attempt == 0 || e != epoch {
			epoch, conflicting = e, m.reg.ConflictingWith(view, false)
		}
		// 1. Invalidation set (invalidationSet).
		inval := m.invalidationSet(view, conflicting, mode, req.Op)
		if err := m.forEachTarget(inval, m.invalLeg); err != nil {
			return errf("%v", err)
		}
		contacted = contacted || len(inval) > 0

		// 2. Gathering: when the primary's data is not "good enough" for
		// this view, fetch pending updates from the other active sharers
		// first.
		if attempt == 0 && m.shouldGather(vs) {
			sharers := m.activeAmong(m.reg.ConflictingWith(view, false))
			contacted = contacted || len(sharers) > 0
			if err := m.forEachTarget(sharers, m.fetchLeg); err != nil {
				return errf("%v", err)
			}
		}

		// 3. Claim the view active, or go round again.
		var claimed bool
		if claimed, wasActive, granted = m.claim(vs, conflicting, epoch, mode, req.Op); claimed {
			break
		}
		if attempt+1 == maxClaims {
			return errf("directory %s: pull by %s: %s after %d attempts", m.name, view, wire.ContendedMark, maxClaims)
		}
		m.claimRetries.Inc()
		time.Sleep(time.Duration(attempt+1) * claimBackoff)
	}

	// A primary whose standby is down grants nothing: a standby that
	// promotes itself meanwhile must not find one standing (PROTOCOL.md
	// "Exclusive grant").
	if granted {
		if r := m.Replication(); r != nil && r.Degraded() {
			vs.clearGrant()
			granted = false
		} else {
			m.grants.Inc()
		}
	}

	// 4. Serve the (now freshest-known) primary data. A pull that contacted
	// no one, kept its op class and found its view active may be quiet.
	return m.serve(vs, req.Since, skip, !contacted && !opChanged && wasActive, granted)
}

// invalidationSet returns the views among conflicting that a pull by
// view in mode, for op, must invalidate (nil when there are none): a
// strong-mode pull stops every conflicting active view; a weak-mode pull
// only stops conflicting active strong-mode views (their one-copy
// guarantee would otherwise be violated by a second active sharer). The
// set is built under one views-map acquisition, with each candidate's
// phase, mode and op class read under its own lock, and passed through
// Options.InvalFilter.
func (m *Manager) invalidationSet(view string, conflicting []string, mode wire.Mode, op wire.OpClass) []string {
	var inval []string
	m.vmu.RLock()
	for _, other := range conflicting {
		os, ok := m.views[other]
		if !ok {
			continue
		}
		os.mu.Lock()
		phase, otherMode, otherOp := os.phase, os.mode, os.lastOp
		os.mu.Unlock()
		if phase != PhaseActive {
			continue
		}
		invalidate := mode == wire.Strong || otherMode == wire.Strong
		if m.opts.ReadAware && invalidate {
			// Readers coexist: only writer/writer and writer/reader pairs
			// are exclusive.
			if op == wire.OpRead && otherOp == wire.OpRead {
				invalidate = false
			}
		}
		if invalidate {
			inval = append(inval, other)
		}
	}
	m.vmu.RUnlock()
	if m.opts.InvalFilter != nil {
		inval = m.opts.InvalFilter(view, inval)
	}
	return inval
}

// claim moves vs to active (evServe) if its pull has nothing left to
// invalidate, and reports whether it did, whether vs was active already,
// and whether it granted vs (claimGrant) for an empty conflict set. The
// re-check and the move run under the gate's read side,
// which pins the conflict structure, and under vs's conflict-group lane,
// which orders them against every other claim of the group: of two
// conflicting pulls, the later claim sees the earlier one active and goes
// round to invalidate it. conflicting is the structural conflict set read
// at registry epoch epoch; it is read again if the epoch has moved. No
// claim succeeds while a view that was unregistered with a surrender in
// flight awaits it: that view is in no conflict set any more, and its
// writes would be missing from the image. A claim that finds nothing to
// invalidate allocates nothing.
func (m *Manager) claim(vs *viewState, conflicting []string, epoch uint64, mode wire.Mode, op wire.OpClass) (claimed, wasActive, granted bool) {
	if m.leaving.Load() > 0 {
		return false, false, false // a dropped view's surrender is still on its way
	}
	m.store.gate.RLock()
	defer m.store.gate.RUnlock()
	if m.reg.Epoch() != epoch {
		conflicting = m.reg.ConflictingWith(vs.name, false)
	}
	lane := m.lanes.laneFor(vs.name)
	lane.Lock()
	defer lane.Unlock()
	if len(m.invalidationSet(vs.name, conflicting, mode, op)) > 0 {
		return false, false, false
	}
	wasActive = m.transition(vs, evServe) == PhaseActive
	return true, wasActive, len(conflicting) == 0 && m.claimGrant(vs)
}

// collectLeg is one target's call in a gather (TPull) or invalidation
// round. what names the request in errors.
func (m *Manager) collectLeg(target string, typ wire.Type, what string) error {
	if _, err := m.collect(target, typ); err != nil {
		return fmt.Errorf("%s %s: %v", what, target, err)
	}
	return nil
}

// shouldGather evaluates the view's validity trigger: a pull gathers
// exactly when the trigger says the primary data is not good enough.
func (m *Manager) shouldGather(vs *viewState) bool {
	vs.mu.Lock()
	val := vs.validity
	seen := vs.seen
	vs.mu.Unlock()
	if val.IsZero() {
		// No validity trigger: the view accepts the primary data as-is.
		return false
	}
	// The validity trigger answers "is the primary data good enough?".
	// Its environment exposes the discrete time t, the primary version,
	// and the view's committed staleness. Staleness is a log walk, so the
	// env computes it lazily — only for triggers that mention it, and only
	// once per evaluation however often they mention it.
	env := &validityEnv{m: m, view: vs.name, seen: seen}
	good, err := val.Fire(float64(m.clock.Now()), env)
	if err != nil {
		// A broken trigger must not stall the protocol; be conservative
		// and gather.
		return true
	}
	return !good
}

// validityEnv is the lazy, memoized trigger environment for shouldGather:
// "version" reads the counter, "staleness" walks the update log via
// UnseenOps at most once per trigger evaluation.
type validityEnv struct {
	m    *Manager
	view string
	seen vclock.Version

	staleness     float64
	haveStaleness bool
}

// Lookup implements trigger.Env.
func (e *validityEnv) Lookup(name string) (float64, bool) {
	switch name {
	case "version":
		return float64(e.m.store.Current()), true
	case "staleness":
		if !e.haveStaleness {
			props, _ := e.m.reg.Props(e.view)
			e.staleness = float64(e.m.store.UnseenOps(e.seen, e.view, props))
			e.haveStaleness = true
		}
		return e.staleness, true
	}
	return 0, false
}

// fanOut resolves the effective fan-out width.
func (m *Manager) fanOut() int {
	if m.opts.FanOut > 0 {
		return m.opts.FanOut
	}
	return DefaultFanOut
}

// forEachTarget runs one DM-initiated round — call once per target — at
// the configured fan-out width: the caller plus min(width, len(targets))-1
// helper goroutines take target indices from one shared counter. Every
// target is contacted regardless of other targets' failures (each call
// carries its own eviction semantics), and the first error in slice order
// is reported afterwards. At width 1 the caller is the only worker, so the
// calls run one at a time in slice order on the calling goroutine — the
// contact order the deterministic experiment harness relies on. The
// round's state is one pooled record, so a round allocates nothing but
// its helpers.
func (m *Manager) forEachTarget(targets []string, call func(target string) error) error {
	if len(targets) == 0 {
		return nil
	}
	start := time.Now()
	r := rounds.Get().(*round)
	r.targets, r.call = targets, call
	for helpers := min(m.fanOut(), len(targets)) - 1; helpers > 0; helpers-- {
		r.wg.Add(1)
		go r.help()
	}
	r.work()
	r.wg.Wait()
	err := r.err
	r.targets, r.call, r.err = nil, nil, nil
	r.next.Store(0)
	rounds.Put(r)
	m.latFanout.Observe(time.Since(start))
	return err
}

// round is one forEachTarget round: the targets, the call, the counter
// its workers take indices from, and the lowest-index error so far.
type round struct {
	targets []string
	call    func(target string) error
	next    atomic.Int64
	wg      sync.WaitGroup // the helpers
	help    func()         // helper bound once, so starting one allocates no closure

	mu    sync.Mutex // guards err and errAt
	err   error
	errAt int
}

// rounds pools round records with their bound helper.
var rounds = sync.Pool{New: func() any {
	r := &round{}
	r.help = func() {
		defer r.wg.Done()
		r.work()
	}
	return r
}}

// work calls the target at each index it takes until none is left.
func (r *round) work() {
	for i := int(r.next.Add(1) - 1); i < len(r.targets); i = int(r.next.Add(1) - 1) {
		if err := r.call(r.targets[i]); err != nil {
			r.mu.Lock()
			if r.err == nil || i < r.errAt {
				r.err, r.errAt = err, i
			}
			r.mu.Unlock()
		}
	}
}

// callView is every DM-initiated call: bounded retry-with-backoff under
// the configured policy, so a transient drop does not discard a live
// view's pending deltas. A final transport error means the view is
// unreachable and the caller should evict it; a remote (protocol) error
// means the view answered and is NOT evicted.
func (m *Manager) callView(target string, req *wire.Message) (*wire.Message, error) {
	return transport.CallRetry(m.ep, target, req, m.opts.Retry)
}

// activeAmong keeps, in order and in place, the names whose records are
// active.
func (m *Manager) activeAmong(names []string) []string {
	m.vmu.RLock()
	defer m.vmu.RUnlock()
	out := names[:0]
	for _, n := range names {
		if vs, ok := m.views[n]; ok && vs.phaseOf() == PhaseActive {
			out = append(out, n)
		}
	}
	return out
}

// evictView moves an unreachable view to lost, so it drops out of
// conflict sets, gathering, and log compaction. Its pending updates died
// with its cache manager — they are gone, which is exactly what "the
// component crashed" means; the protocol state (seen, mode, props)
// survives on the record so a reconnecting manager resumes via the
// idempotent re-register, and any later message from the view revives
// it. Eviction moves the conflict structure, so it drains the execution
// lanes like revival: rebuilt after an eviction, the lane map can put a
// surviving group under another root, and so on another lane.
func (m *Manager) evictView(target string) {
	if vs, ok := m.viewState(target); ok {
		m.structuralDo(func() { m.transition(vs, evEvicted) })
	}
	m.evictions.Inc()
}

// collect sends target a DM-initiated request and commits the pending
// delta it surrenders: TInvalidate also deactivates the view (Figure 2,
// steps 12–14), TPull fetches without stopping it (weak-mode gathering).
// An unreachable view is evicted and reported as nil — a dead component
// must not wedge every conflicting pull forever. answered reports whether
// the view's cache manager answered at all.
//
// The read side of the view's commit lock is held from before the
// request goes out until the surrendered delta has landed. The view's
// later pushes commit after it, so a surrender that reaches the directory
// late cannot overwrite them (the store never counts a writer's commit as
// conflicting with its own), and the view's next image is extracted
// after it, so the view is not handed older values over the ones it
// surrendered. Only those wait on it — collects to one view from several
// rounds run side by side — and a cache manager answers a collect without
// calling the directory, so the round cannot deadlock on it. The view is
// marked inactive only once every collect to it in flight has landed
// (collected): a pull that finds the view inactive finds its writes
// committed.
func (m *Manager) collect(target string, typ wire.Type) (answered bool, err error) {
	// The registration the target extracts under (Manager.commit), and
	// its serve generation (collected).
	_, stamp := m.reg.Scope(target)
	vs, known := m.viewState(target)
	invalidated := false
	var req *wire.Message
	if known {
		vs.commitMu.RLock()
		defer vs.commitMu.RUnlock()
		gen := vs.collecting()
		defer func() { m.collected(vs, gen, invalidated) }()
		req = &vs.pullReq
		if typ == wire.TInvalidate {
			req = &vs.invalReq
		}
	} else {
		req = &wire.Message{Type: typ, View: target}
	}
	reply, err := m.callView(target, req)
	// The reply goes back to the wire pool once read; a commit keeps only
	// its image.
	defer wire.Recycle(reply)
	if err != nil {
		if transport.IsTransportError(err) {
			m.evictView(target)
			return false, nil
		}
		return true, err
	}
	// Rejected winners are not pushed back here: invalidated views must
	// pull before their next use anyway, and fetched views will see the
	// winning values on their next pull.
	if reply.Img != nil && reply.Img.Len() > 0 {
		if _, _, _, err := m.commit(target, stamp, reply.Img, int(reply.Ops)); err != nil {
			return true, err
		}
	}
	invalidated = typ == wire.TInvalidate
	return true, nil
}

func (m *Manager) handlePush(req *wire.Message) *wire.Message {
	start := time.Now()
	defer func() { m.latPush.Observe(time.Since(start)) }()
	view := req.From
	vs, ok := m.viewState(view)
	if !ok {
		return errf("push from unregistered view %s", view)
	}
	// The pusher's execution lane serializes this commit against its own
	// conflict group only; disjoint groups commit in parallel. The write
	// side of its commit lock orders it after a collect already
	// surrendering the view's older writes (collect).
	vs.commitMu.Lock()
	ver, clean, rejected, err := m.commit(view, 0, req.Img, int(req.Ops))
	if err != nil {
		vs.commitMu.Unlock()
		return errf("%v", err)
	}
	// A clean commit stored exactly the pushed values, so once the pusher
	// has folded its ack, its pulls may leave it out (handlePull). A
	// resolver merge is stamped with the pusher too but holds other
	// values: it must come back.
	// A holder has seen everything up to a clean push of its own: no one
	// else commits to its data. So its seen moves, and with it the log
	// compaction floor, although it pulls locally.
	vs.mu.Lock()
	vs.pushed = 0
	advanced := clean && vs.granted && ver > vs.seen
	if clean {
		vs.pushed = ver
	}
	if advanced {
		vs.seen = ver
	}
	vs.mu.Unlock()
	vs.commitMu.Unlock()
	if advanced {
		m.viewChanged(vs, false)
	}
	if m.opts.PropagateOnPush {
		if err := m.propagate(view, ver); err != nil {
			return errf("propagate: %v", err)
		}
	}
	// The ack carries the winning values for any entries the resolver
	// rejected, so the pusher converges on the resolved state. The
	// replication barrier runs before the ack is released: an
	// acknowledged push is on the standby unless it is down (semi-sync commit).
	ack := wire.NewMessage()
	ack.Type, ack.Version, ack.Img = wire.TAck, ver, rejected
	return m.synced(ack)
}

// propagate forwards a freshly committed update to every conflicting
// active view (excluding the writer), restricted to each recipient's
// property set and trimmed to entries it has not seen.
//
// Recipients sharing a property set and seen version receive the same
// payload, so the round extracts each distinct (props, since) delta once
// and shares its image across those recipients' requests. The requests are
// built serially in conflict-set order, so FanOut=1 contacts the targets in
// conflict-set order, with the same empty-delta skips.
func (m *Manager) propagate(writer string, ver vclock.Version) error {
	payloads := map[string]*wire.Message{} // shared Img/Version; nil for an empty delta
	var targets []string
	reqs := map[string]*wire.Message{}
	for _, other := range m.reg.ConflictingWith(writer, false) {
		os, ok := m.viewState(other)
		if !ok {
			continue
		}
		os.mu.Lock()
		since, phase := os.seen, os.phase
		os.mu.Unlock()
		if phase != PhaseActive {
			continue
		}
		props, _ := m.reg.Props(other)
		key := fmt.Sprintf("%s@%d", props.String(), since)
		base, ok := payloads[key]
		if !ok {
			img, err := m.store.Extract(props, since)
			if err != nil {
				return err
			}
			if img.Len() > 0 {
				base = &wire.Message{Type: wire.TUpdate, Img: img, Version: ver}
			}
			payloads[key] = base
		}
		if base == nil {
			// Nothing this recipient hasn't already seen.
			continue
		}
		req := *base // shallow clone shares Img; View differs
		req.View = other
		reqs[other] = &req
		targets = append(targets, other)
	}
	return m.forEachTarget(targets, func(other string) error {
		reply, err := m.callView(other, reqs[other])
		wire.Recycle(reply)
		if err != nil {
			if transport.IsTransportError(err) {
				// An unreachable recipient is evicted, not allowed to fail
				// the writer's push; it will catch up on re-register.
				m.evictView(other)
				return nil
			}
			return fmt.Errorf("update %s: %w", other, err)
		}
		if os, ok := m.viewState(other); ok {
			os.mu.Lock()
			if ver > os.seen {
				os.seen = ver
			}
			os.mu.Unlock()
			m.viewChanged(os, false)
		}
		return nil
	})
}

func (m *Manager) handleSetMode(req *wire.Message) *wire.Message {
	vs, ok := m.viewState(req.From)
	if !ok {
		return errf("set-mode from unregistered view %s", req.From)
	}
	vs.mu.Lock()
	vs.mode = req.Mode
	vs.mu.Unlock()
	m.viewChanged(vs, false)
	return m.synced(&wire.Message{Type: wire.TAck})
}

func (m *Manager) handleSetProps(req *wire.Message) *wire.Message {
	// The view's commit lock is held until the holders its new set
	// conflicts with have dropped their grants: it commits and is served
	// nothing before. Its own grant its cache manager dropped already.
	vs, ok := m.viewState(req.From)
	if ok {
		vs.commitMu.RLock()
		defer vs.commitMu.RUnlock()
	}
	// A property change rewires conflict groups; drain the lanes so no
	// commit runs under the group map it invalidates.
	var r revocation
	reply := m.structural(func() *wire.Message {
		if err := m.reg.SetProps(req.From, req.Props); err != nil {
			return errf("%v", err)
		}
		if ok {
			vs.clearGrant()
			m.viewChanged(vs, true)
		}
		r = m.joinerRevocations(req.From)
		return &wire.Message{Type: wire.TAck}
	})
	m.revoke(r)
	return m.synced(reply)
}

// CompactLog drops the update-log records every live view has already
// observed — version ≤ the floor, min seen over registered, non-lost
// views (the whole log when there are none) — and returns how many it
// dropped. Records any live view still needs are never dropped, so
// UnseenCommitted stays exact for every view that has pulled since it
// last joined. Commits run it themselves (maybeCompact); it re-arms their
// trigger at max(minCompactAt, views, 2 × records kept), which keeps the
// O(views) floor scan and the O(kept) shift at O(1) per commit, amortised.
// It holds no gate or lane; PROTOCOL.md "Lock order" places its locks.
func (m *Manager) CompactLog() int {
	m.vmu.RLock()
	views := len(m.views)
	floor, live := vclock.Version(0), false
	for _, vs := range m.views {
		vs.mu.Lock()
		seen, phase := vs.seen, vs.phase
		vs.mu.Unlock()
		// A lost view's stale seen must not pin the log forever; if it
		// reappears with a gap, its delta pull still serves everything
		// newer than its seen from the shadow, so correctness holds.
		if phase == PhaseLost {
			continue
		}
		if !live || seen < floor {
			floor, live = seen, true
		}
	}
	m.vmu.RUnlock()
	if !live {
		floor = m.store.Current()
	}
	dropped := m.store.CompactLog(floor)
	m.compactAt.Store(int64(max(minCompactAt, views, 2*m.store.LogLen())))
	return dropped
}

// maybeCompact is the commit path's log bookkeeping: once the update log
// has grown past the trigger, one caller — the one whose compare-and-swap
// disarms the trigger — runs CompactLog, which re-arms it. Callers hold
// no gate, lane or view lock.
func (m *Manager) maybeCompact() {
	at := m.compactAt.Load()
	if int64(m.store.LogLen()) <= at || !m.compactAt.CompareAndSwap(at, math.MaxInt64) {
		return
	}
	m.CompactLog()
}

// CheckInvariants verifies the manager's cross-structure bookkeeping —
// the registry, the per-view protocol state, and the store — and returns
// the first violation found (nil when consistent). The model checker runs
// it after every explored transition; existing tests assert it behind
// FLECC_TEST_INVARIANTS=1. Checked, beyond Store.CheckInvariants:
//
//   - every registered view has a viewState and vice versa;
//   - no view's seen version exceeds the primary's committed version.
func (m *Manager) CheckInvariants() error {
	cur := m.store.Current()
	reg := map[string]bool{}
	for _, name := range m.reg.Views() {
		reg[name] = true
	}
	if err := m.checkViews(reg, cur); err != nil {
		return err
	}
	// The store check takes the gate, which ranks above vmu: it runs with
	// vmu released.
	return m.store.CheckInvariants()
}

// checkViews is CheckInvariants' pass over the views map, under vmu.
func (m *Manager) checkViews(reg map[string]bool, cur vclock.Version) error {
	m.vmu.RLock()
	defer m.vmu.RUnlock()
	for name, vs := range m.views {
		if !reg[name] {
			return fmt.Errorf("directory %s: view state %q has no registry entry", m.name, name)
		}
		vs.mu.Lock()
		seen := vs.seen
		vs.mu.Unlock()
		if seen > cur {
			return fmt.Errorf("directory %s: view %q saw v%d beyond committed v%d", m.name, name, seen, cur)
		}
	}
	for name := range reg {
		if _, ok := m.views[name]; !ok {
			return fmt.Errorf("directory %s: registry entry %q has no view state", m.name, name)
		}
	}
	return nil
}

// Mode reports a view's current mode (Weak for unknown views).
func (m *Manager) Mode(view string) wire.Mode {
	if vs, ok := m.viewState(view); ok {
		vs.mu.Lock()
		defer vs.mu.Unlock()
		return vs.mode
	}
	return wire.Weak
}

// CommitLocal lets the original component itself commit an update (e.g. an
// administrative change to the primary data). It is also used by tests.
// Like pushed commits, it barriers on replication before returning. Like
// Store.Commit, it takes the delta: a caller that still needs the image
// afterwards commits a clone.
func (m *Manager) CommitLocal(delta *image.Image, ops int) (vclock.Version, error) {
	var (
		v   vclock.Version
		err error
	)
	// A primary-local commit may touch any key: it commits under the empty
	// property set, and has no conflict group, so it runs exclusively —
	// all lanes drained. The holders it touches drop their grants first,
	// and no view is granted until it has landed.
	m.grantBlock.Add(1)
	defer m.grantBlock.Add(-1)
	// The holders it touches are those with a key of the delta in scope:
	// only a primary with a scope test grants (claimGrant).
	touches := func(name string) bool {
		props, _ := m.reg.Props(name)
		return delta == nil || slices.ContainsFunc(delta.Entries, func(e image.Entry) bool { return m.store.scope.InScope(props, e.Key) })
	}
	var r revocation
	m.structuralDo(func() { r = m.revocations("", touches) })
	m.revoke(r)
	m.structuralDo(func() { v, _, _, err = m.store.orCurrent(m.store.commitGated("", property.Set{}, delta, ops)) })
	m.maybeCompact()
	if err != nil {
		return v, err
	}
	return v, m.replBarrier()
}

// ExtractPrimary snapshots the primary for the given properties (tests and
// tools).
func (m *Manager) ExtractPrimary(props property.Set) (*image.Image, error) {
	return m.store.Extract(props, 0)
}
