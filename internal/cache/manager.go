// Package cache implements Flecc's cache manager (paper §4.2): the runtime
// component created alongside each deployed view. It forwards the view's
// requests to the directory manager, executes the commands the directory
// manager sends back (invalidations and fetches), and evaluates the view's
// push/pull quality triggers so the application can delegate its
// synchronization decisions to the system.
//
// Every push is a round of one session pump (session.go): PushImage and
// PushImageAsync start or join the buffered round, at most one round is
// on the wire, and a round's delta is extracted when it is dispatched.
//
// The exported API mirrors the paper's Figure 3 pseudo-code:
//
//	cm, _ := cache.New(cfg)        // create cache manager (steps 1–2)
//	cm.InitImage()                 // initialize data (steps 3–5)
//	cm.PullImage()
//	cm.StartUse()                  // mutual exclusion (step 6)
//	... work on the view's data ...
//	cm.EndUse()                    // step 7
//	cm.PushImage()
//	cm.KillImage()                 // steps 20–21
package cache

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/trigger"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// ErrInvalidated is returned by StartUse when the view's image was
// invalidated by the directory manager (another view acquired exclusive
// access in strong mode). The view must PullImage again before using the
// data — exactly what the paper's travel-agent loop does on every
// iteration.
var ErrInvalidated = errors.New("cache: image invalidated; pull before use")

// ErrNotInitialized is returned when the image is used before InitImage.
var ErrNotInitialized = errors.New("cache: image not initialized")

// Config assembles everything a view supplies when creating its cache
// manager (the constructor arguments in Figure 3).
type Config struct {
	// Name is the view's unique node name.
	Name string
	// Directory is the directory manager's node name.
	Directory string
	// Net is the network both managers are attached to.
	Net transport.Network
	// View is the application view's extract/merge implementation
	// (mergeIntoView / extractFromView).
	View image.Codec
	// Props is the view's initial data property set.
	Props property.Set
	// Mode is the initial consistency mode.
	Mode wire.Mode
	// PushTrigger, PullTrigger, ValidityTrigger are quality-trigger
	// sources; empty strings mean "no trigger".
	PushTrigger, PullTrigger, ValidityTrigger string
	// Vars supplies the view's variables for trigger evaluation (the
	// paper's prototype used Java reflection; here the view exports them
	// explicitly). May be nil if the triggers reference only builtins.
	Vars trigger.Env
	// Clock supplies the discrete time for trigger evaluation.
	Clock vclock.Clock
	// Op is the view's default operation class (used by the read/write
	// extension; OpWrite when unset).
	Op wire.OpClass
	// Reconnect, if non-nil, makes the manager survive a dead endpoint
	// (e.g. a directory-manager restart) by re-dialing with exponential
	// backoff + jitter, re-registering, and re-pulling before resuming.
	// Nil keeps the historical behavior: transport errors surface to the
	// caller.
	Reconnect *ReconnectPolicy
	// Fallbacks are alternative networks the reconnect cycle rotates
	// through when the primary stops answering — the HA deployment lists
	// the standby daemon's dial network here, so a failed-over client
	// re-dials the promoted standby without operator action. Each entry
	// must host a node answering to Directory. Ignored without Reconnect.
	Fallbacks []transport.Network
	// ManualFlush disables the automatic dispatch of asynchronous push
	// rounds: PushImageAsync only buffers, and a round goes out when Flush,
	// a synchronous PushImage (which joins it) or a flushing
	// reconfiguration is called. Deterministic harnesses — the model
	// checker, seeded soaks — use it to keep every wire interaction an
	// explicit, schedulable step.
	ManualFlush bool
}

// Manager is the view-side protocol endpoint.
type Manager struct {
	name string
	dir  string
	view image.Codec
	// keyed and changes are the view codec's optional capabilities, probed
	// once in New and nil when absent: with keyed a pull reply reads just
	// the incoming keys from the view, with changes a push, fetch or
	// invalidate extracts just the keys the view touched (see syncedRev),
	// and a pull into a clean view reads nothing back (applyIncomingLocked).
	keyed   image.KeyedExtractor
	changes image.ChangeExtractor
	vars    trigger.Env
	clock   vclock.Clock
	op      wire.OpClass
	// nets holds the primary network followed by Config.Fallbacks; netIdx
	// (guarded by recon.mu) points at the one the current endpoint dialed.
	nets   []transport.Network
	netIdx int
	// trigSrc keeps the trigger sources for re-registration.
	trigSrc wire.Triggers
	// recon, when non-nil, drives the reconnect cycle (reconnect.go).
	recon  *reconnector
	ep     transport.Endpoint // guarded by mu; use endpoint()/setEndpoint()
	pushTr trigger.Trigger
	pullTr trigger.Trigger

	mu          sync.Mutex
	cond        *sync.Cond
	props       property.Set
	mode        wire.Mode
	inUse       bool
	valid       bool
	initialized bool
	killed      bool
	base        *image.Image // last synchronized snapshot
	// syncedRev is the view codec's revision (image.ChangeExtractor) up to
	// which base is known to match the view. Invariant: every key whose
	// view value differs from base changed at a revision > syncedRev, so
	// the keys changed after it are the only delta candidates. 0 means
	// "every key is a candidate" — the value it always has for a codec
	// without the capability, and after SetProps. syncGen counts the times
	// it moved, so a round that extracted before someone else moved it
	// does not advance it past keys that round never looked at.
	syncedRev uint64
	syncGen   uint64
	seen      vclock.Version
	// acked is the version of the last push ack folded into base. A pull
	// names it while it is above seen, so the directory can leave that
	// push out of the reply: base and the view already hold its values.
	acked      vclock.Version
	pendingOps int
	// lastPull/lastPush are virtual times for the sincePull/sincePush
	// trigger variables.
	lastPull, lastPush vclock.Time
	// invalidations counts how many times the DM stopped this view. It
	// doubles as the validity epoch: pull paths capture it before going to
	// the wire and only mark the image valid if no invalidate interleaved.
	invalidations int
	// cancelTick stops the trigger scheduler.
	cancelTick func()

	// Push session (session.go): at most one round in flight, at most one
	// buffered behind it.
	inflight    *pushRound
	buffer      *pushRound
	manualFlush bool
}

// New creates the cache manager, attaches it to the network, and registers
// the view with the directory manager (Figure 2, steps 1–2).
func New(cfg Config) (*Manager, error) {
	if cfg.Name == "" || cfg.Directory == "" {
		return nil, fmt.Errorf("cache: Name and Directory are required")
	}
	if cfg.Net == nil || cfg.View == nil || cfg.Clock == nil {
		return nil, fmt.Errorf("cache: Net, View and Clock are required")
	}
	pushTr, err := trigger.Compile(cfg.PushTrigger)
	if err != nil {
		return nil, fmt.Errorf("cache: push trigger: %w", err)
	}
	pullTr, err := trigger.Compile(cfg.PullTrigger)
	if err != nil {
		return nil, fmt.Errorf("cache: pull trigger: %w", err)
	}
	m := &Manager{
		name:  cfg.Name,
		dir:   cfg.Directory,
		view:  cfg.View,
		vars:  cfg.Vars,
		clock: cfg.Clock,
		op:    cfg.Op,
		nets:  append([]transport.Network{cfg.Net}, cfg.Fallbacks...),
		trigSrc: wire.Triggers{
			Push:     cfg.PushTrigger,
			Pull:     cfg.PullTrigger,
			Validity: cfg.ValidityTrigger,
		},
		pushTr:      pushTr,
		pullTr:      pullTr,
		props:       cfg.Props,
		mode:        cfg.Mode,
		manualFlush: cfg.ManualFlush,
	}
	if cfg.Reconnect != nil {
		m.recon = newReconnector(cfg.Name, *cfg.Reconnect)
	}
	m.keyed, _ = cfg.View.(image.KeyedExtractor)
	m.changes, _ = cfg.View.(image.ChangeExtractor)
	m.cond = sync.NewCond(&m.mu)
	ep, err := cfg.Net.Attach(cfg.Name, m.handle)
	if err != nil {
		return nil, fmt.Errorf("cache: attach %q: %w", cfg.Name, err)
	}
	m.ep = ep
	if err := discard(ep.Call(cfg.Directory, m.registerMsg())); err != nil {
		ep.Close()
		return nil, fmt.Errorf("cache: register %q: %w", cfg.Name, err)
	}
	return m, nil
}

// Name returns the view's node name.
func (m *Manager) Name() string { return m.name }

// Mode returns the current consistency mode.
func (m *Manager) Mode() wire.Mode {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mode
}

// Seen returns the primary version this view has observed.
func (m *Manager) Seen() vclock.Version {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seen
}

// Acked returns the version of the last push ack the view folded.
func (m *Manager) Acked() vclock.Version {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.acked
}

// Valid reports whether the view's image is currently valid (not
// invalidated by the directory manager).
func (m *Manager) Valid() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.valid
}

// PendingOps returns the number of use windows not yet pushed or fetched —
// the locally visible part of the paper's quality metric from the peers'
// perspective.
func (m *Manager) PendingOps() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pendingOps
}

// Invalidations returns how many times the directory manager stopped this
// view.
func (m *Manager) Invalidations() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.invalidations
}

// InitImage fetches the view's initial data (Figure 2, steps 3–5).
func (m *Manager) InitImage() error {
	m.mu.Lock()
	epoch := m.invalidations
	m.mu.Unlock()
	return m.load(&wire.Message{Type: wire.TInit}, epoch)
}

// PullImage updates the view's shared data with the value held by the
// original component. In strong mode this (transitively) invalidates any
// conflicting active view; in weak mode the directory manager may first
// gather peers' pending updates, depending on the validity trigger.
func (m *Manager) PullImage() error {
	m.mu.Lock()
	if !m.initialized {
		m.mu.Unlock()
		return ErrNotInitialized
	}
	req := wire.NewMessage()
	req.Type, req.Since, req.Op = wire.TPull, m.seen, m.op
	if m.acked > m.seen {
		req.Version = m.acked
	}
	epoch := m.invalidations
	m.mu.Unlock()
	return m.load(req, epoch)
}

// load sends an init or a pull and merges the image it returns. Validity
// epoch guard: an invalidate that interleaved with the reply (the epoch
// moved) supersedes it — the merged data is kept, being the newest the
// view has, but StartUse refuses it until the view pulls again, since the
// DM believes this view stopped using the data. The request and the reply
// go back to the wire pool once read.
func (m *Manager) load(req *wire.Message, epoch int) error {
	reply, err := m.call(req)
	wire.Recycle(req)
	defer wire.Recycle(reply)
	if err != nil {
		if strings.Contains(err.Error(), wire.ContendedMark) {
			return fmt.Errorf("%w: %v", ErrInvalidated, err)
		}
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.applyIncomingLocked(reply.Img, reply.Version); err != nil {
		return err
	}
	m.initialized = true
	if m.invalidations == epoch {
		m.valid = true
	}
	m.lastPull = m.clock.Now()
	return nil
}

// StartUse marks the beginning of a mutually exclusive work window on the
// shared data (Figure 2, step 6). While a window is open, the cache
// manager will not merge or extract updates. StartUse fails with
// ErrInvalidated if the image was invalidated since the last pull.
func (m *Manager) StartUse() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.initialized {
		return ErrNotInitialized
	}
	if m.killed {
		return transport.ErrClosed
	}
	if !m.valid {
		return ErrInvalidated
	}
	for m.inUse {
		m.cond.Wait()
	}
	m.inUse = true
	return nil
}

// EndUse closes the work window (Figure 2, step 7) and counts one logical
// operation on the shared data.
func (m *Manager) EndUse() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.inUse {
		return
	}
	m.inUse = false
	m.pendingOps++
	m.cond.Broadcast()
}

// Acquire requests the protocol-level token from the directory side. The
// base Flecc protocol does not use tokens (mutual exclusion is handled by
// invalidations); the time-sharing baseline serializes agents with it.
func (m *Manager) Acquire() error {
	return discard(m.call(&wire.Message{Type: wire.TAcquire, Op: m.op}))
}

// Release returns the token obtained with Acquire.
func (m *Manager) Release() error {
	return discard(m.call(&wire.Message{Type: wire.TRelease}))
}

// discard hands back the reply of a call whose only news is whether it
// succeeded: a control call's.
func discard(reply *wire.Message, err error) error {
	wire.Recycle(reply)
	return err
}

// SetMode switches the view between strong and weak operation at run time.
// Outstanding push rounds are flushed first: a mode switch takes effect on
// a quiet session, never between a round's dispatch and its ack.
func (m *Manager) SetMode(mode wire.Mode) error {
	_ = m.Flush() // a failed round reports to its own pushers
	if err := discard(m.call(&wire.Message{Type: wire.TSetMode, Mode: mode})); err != nil {
		return err
	}
	m.mu.Lock()
	m.mode = mode
	m.mu.Unlock()
	return nil
}

// SetProps installs a new dynamic property set for the view. Like
// SetMode, it flushes outstanding push rounds first.
func (m *Manager) SetProps(props property.Set) error {
	_ = m.Flush() // a failed round reports to its own pushers
	if err := discard(m.call(&wire.Message{Type: wire.TSetProps, Props: props})); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.base != nil {
		// Keys the view holds under the old set but not under the new one
		// left the view: base forgets them, so no later delta reports them
		// deleted (a directory may commit a delta unrestricted,
		// Manager.commit). If the view cannot be read, SetProps fails and
		// the view keeps its old set, as when the call fails after the
		// directory applied it.
		keys := entryKeys(m.base)
		was, err1 := m.viewValuesLocked(m.props, keys)
		now, err2 := m.viewValuesLocked(props, keys)
		if err := cmp.Or(err1, err2); err != nil {
			return fmt.Errorf("cache: extract from view: %w", err)
		}
		m.base.Entries = slices.DeleteFunc(m.base.Entries, func(e image.Entry) bool {
			_, had := was.Get(e.Key)
			_, kept := now.Get(e.Key)
			return had && !kept
		})
	}
	m.props = props
	// base no longer vouches for every key the last push held.
	m.acked = 0
	// What the view extracts under the new properties is a different set
	// of keys: the next delta looks at all of them.
	m.syncedRev = 0
	m.syncGen++
	return nil
}

// KillImage pushes any pending changes, unregisters the view, and detaches
// from the network (Figure 2, steps 20–21). The final push is a round like
// PushImage's, waits like it for an open use window to close, and is
// rebuilt across reconnect cycles. The view refuses new rounds (they
// resolve ErrClosed) only once it has succeeded, so a KillImage that
// fails on it can be retried and pushes again.
func (m *Manager) KillImage() error {
	m.StopTriggers()
	if err := m.withReconnect(sessionReset, m.finalPush); err != nil {
		return fmt.Errorf("cache: final push: %w", err)
	}
	ep := m.endpoint()
	if err := discard(ep.Call(m.dir, &wire.Message{Type: wire.TUnregister})); err != nil {
		ep.Close()
		return err
	}
	return ep.Close()
}

// applyIncomingLocked folds an incoming image (init/pull reply or DM
// update) into the snapshot and the application view. Entries the view has
// modified locally since the last synchronization are NOT overwritten —
// the local change stays pending and is reconciled at push time by the
// directory manager's conflict detection (the pushed entry still carries
// its old base version, so a concurrent remote write is detected and
// handed to the application resolver). img is the caller's own, a
// decoded message's: the skipped entries are dropped from it in place.
//
// A view whose tracked codec has not moved since syncedRev, with no use
// window open, is clean: by the watermark's invariant it equals base, so
// no incoming key can hold a pending change and the read-back is skipped.
// The merge leaves such a view equal to base again, so the watermark moves
// past it and the next extraction does not re-check the merged keys.
// Caller holds mu.
func (m *Manager) applyIncomingLocked(img *image.Image, ver vclock.Version) error {
	if m.base == nil {
		m.base = image.New()
	}
	if img != nil && img.Len() > 0 {
		clean := false
		if m.initialized && m.syncedRev != 0 && !m.inUse {
			rev, ok := m.revisionLocked()
			clean = ok && rev == m.syncedRev
		}
		if m.initialized && !clean {
			cur, err := m.viewValuesLocked(m.props, entryKeys(img))
			if err != nil {
				// Without the view's current values the pending local
				// changes cannot be told apart; merging anyway would
				// overwrite them.
				return fmt.Errorf("cache: extract from view: %w", err)
			}
			kept := img.Entries[:0]
			for _, in := range img.Entries {
				ce, curOK := cur.Get(in.Key)
				be, baseOK := m.base.Get(in.Key)
				dirty := curOK != (baseOK && !be.Deleted) ||
					(curOK && baseOK && !ce.Equal(be))
				if dirty && !(curOK && ce.Equal(in)) {
					// Keep the local pending change; skip this entry
					// (and leave its base snapshot untouched so the
					// push carries the old base version).
					continue
				}
				kept = append(kept, in)
			}
			img.Entries = kept
		}
		// Merging into the view is the application's mergeIntoView; a
		// failing merge must not half-update the snapshot, so the base is
		// only advanced afterwards.
		if err := m.view.Merge(img, m.props); err != nil {
			return fmt.Errorf("cache: merge into view: %w", err)
		}
		for _, e := range img.Entries {
			m.base.Put(e)
		}
		if clean {
			// A round already in flight folds with the lower watermark
			// (foldLocked).
			if rev, ok := m.revisionLocked(); ok {
				m.syncedRev = rev
				m.syncGen++
			}
		}
	}
	if ver > m.seen {
		m.seen = ver
	}
	if img != nil && img.Version > m.seen {
		m.seen = img.Version
	}
	m.base.Version = m.seen
	return nil
}

// revisionLocked reads the view codec's current revision: a since past
// it asks for nothing (image.ChangeExtractor). ok is false for a codec
// without the capability. Caller holds mu.
func (m *Manager) revisionLocked() (rev uint64, ok bool) {
	if m.changes == nil {
		return 0, false
	}
	_, rev, err := m.changes.ExtractChanged(m.props, math.MaxUint64)
	return rev, err == nil
}

// viewValuesLocked reads the view's current entries for the given keys
// under props: a lookup of just those keys when the codec can do one, the
// whole view otherwise. Caller holds mu.
func (m *Manager) viewValuesLocked(props property.Set, keys []string) (*image.Image, error) {
	var cur *image.Image
	var err error
	if m.keyed != nil {
		cur, err = m.keyed.ExtractKeys(props, keys)
	} else {
		cur, err = m.view.Extract(props)
	}
	if cur == nil {
		cur = noImage
	}
	return cur, err
}

// entryKeys lists an image's keys, in order.
func entryKeys(img *image.Image) []string {
	keys := make([]string, len(img.Entries))
	for i, e := range img.Entries {
		keys[i] = e.Key
	}
	return keys
}

// noImage stands in, read-only, for the nil image a codec may return when
// it has nothing to report.
var noImage = &image.Image{}

// extracted is one delta taken from the view — what a push round or a
// fetch/invalidate reply carries — with what folding it into base needs.
type extracted struct {
	delta image.Image  // changed entries, stamped with the base version they supersede; Entries nil when the view is clean
	cur   *image.Image // the candidates as the view holds them
	ops   int          // pending op count the delta carries
	rev   uint64       // codec revision of the snapshot cur was taken from
	gen   uint64       // syncGen at extraction
}

// extractDeltaLocked diffs the view against base and returns the changed
// entries. The candidates are the keys the codec reports changed after
// syncedRev; a codec that cannot say (and any codec while syncedRev is 0)
// is asked for the whole view, and then a live base key missing from the
// answer is a deletion. Caller holds mu.
func (m *Manager) extractDeltaLocked() (extracted, error) {
	x := extracted{ops: m.pendingOps, gen: m.syncGen}
	var err error
	if m.changes != nil {
		x.cur, x.rev, err = m.changes.ExtractChanged(m.props, m.syncedRev)
	} else {
		x.cur, err = m.view.Extract(m.props)
	}
	if err != nil {
		return x, fmt.Errorf("cache: extract from view: %w", err)
	}
	if x.cur == nil {
		x.cur = noImage
	}
	emit := func(e image.Entry) {
		if x.delta.Entries == nil {
			x.delta.Entries = make([]image.Entry, 0, x.cur.Len())
		}
		x.delta.Put(e)
	}
	for _, e := range x.cur.Entries {
		be, ok := m.base.Get(e.Key)
		if ok && e.Equal(be) || !ok && e.Deleted {
			continue // unchanged, or added and removed between two synchronizations
		}
		e.Version = be.Version // version the change was based on (0 for a new key)
		e.Writer = m.name
		emit(e)
	}
	if m.syncedRev == 0 {
		for _, be := range m.base.Entries {
			if _, ok := x.cur.Get(be.Key); !ok && !be.Deleted {
				emit(image.Entry{Key: be.Key, Version: be.Version, Writer: m.name, Deleted: true})
			}
		}
	}
	return x, nil
}

// foldLocked adopts an extracted delta into base once its entries are with
// the directory manager: a changed key takes the value the view held at
// extraction, a deleted key becomes a tombstone at ver. Everything the
// extraction looked at now matches base up to x.rev — unless someone else
// moved syncedRev in the meantime (an interleaved fetch, SetProps), in
// which case only the lower of the two watermarks is safe. Caller holds
// mu.
func (m *Manager) foldLocked(x extracted, ver vclock.Version) {
	for _, e := range x.delta.Entries {
		if e.Deleted {
			m.base.Put(image.Entry{Key: e.Key, Version: ver, Writer: m.name, Deleted: true})
		} else {
			ce, _ := x.cur.Get(e.Key)
			m.base.Put(ce)
		}
	}
	if m.syncGen == x.gen || x.rev < m.syncedRev {
		m.syncedRev = x.rev
	}
	m.syncGen++
}

// surrenderLocked is foldLocked for a delta handed over in a fetch or
// invalidate reply. On that path base has always been replaced by a fresh
// extract of the view, which besides adopting the values zeroes every
// entry's Version/Writer and forgets tombstones; the stamps ride on later
// pushes, so they are reset here the same way (a pass over base that
// encodes nothing). Caller holds mu.
func (m *Manager) surrenderLocked(x extracted) {
	m.foldLocked(x, 0)
	m.base.Entries = slices.DeleteFunc(m.base.Entries, func(be image.Entry) bool { return be.Deleted })
	for i := range m.base.Entries {
		m.base.Entries[i].Version, m.base.Entries[i].Writer = 0, ""
	}
}

// handle serves directory-manager-initiated commands.
func (m *Manager) handle(req *wire.Message) *wire.Message {
	switch req.Type {
	case wire.TInvalidate:
		return m.handleCollect(true)
	case wire.TPull:
		return m.handleCollect(false)
	case wire.TUpdate:
		return m.handleUpdate(req)
	default:
		return &wire.Message{Type: wire.TErr, Err: fmt.Sprintf("cache %s: unexpected message %s", m.name, req.Type)}
	}
}

// handleCollect answers the directory manager's fetch (weak-mode
// gathering) and, with invalidate set, its invalidation (Figure 2 steps
// 12–14 from the view side): wait for any open use window, surrender
// pending updates, and on an invalidation stop using the data.
func (m *Manager) handleCollect(invalidate bool) *wire.Message {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.inUse {
		m.cond.Wait()
	}
	if !m.initialized {
		return cleanCollect
	}
	x, err := m.extractDeltaLocked()
	if err != nil {
		return &wire.Message{Type: wire.TErr, Err: err.Error()}
	}
	m.surrenderLocked(x)
	m.pendingOps = 0
	if invalidate {
		m.valid = false
		m.invalidations++
	}
	if x.delta.Entries == nil && x.ops == 0 {
		return cleanCollect
	}
	reply := wire.NewMessage()
	reply.Type, reply.Ops = wire.TImage, uint32(x.ops)
	if x.delta.Entries != nil {
		// A copy of the header: taking &x.delta would move x to the heap
		// on the clean path too.
		reply.Img = &image.Image{Entries: x.delta.Entries}
	}
	return reply
}

// cleanCollect answers every collect that surrenders nothing. It is shared
// and read-only: transports encode a handler's reply and never write it,
// and the pool did not make it, so wire.Recycle leaves it alone. A reply
// that surrenders something comes from the pool, and its transport
// recycles it once encoded.
var cleanCollect = &wire.Message{Type: wire.TImage}

// handleUpdate applies a DM-initiated update (push-propagation, used by
// the propagation ablation).
func (m *Manager) handleUpdate(req *wire.Message) *wire.Message {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.inUse {
		m.cond.Wait()
	}
	if err := m.applyIncomingLocked(req.Img, req.Version); err != nil {
		return &wire.Message{Type: wire.TErr, Err: err.Error()}
	}
	return nil // a bare TAck
}

// triggerEnv builds the evaluation environment for push/pull triggers:
// the view's own variables plus the builtins pending, sincePull and
// sincePush. Caller holds mu.
func (m *Manager) triggerEnvLocked() trigger.Env {
	now := m.clock.Now()
	builtins := trigger.MapEnv{
		"pending":   float64(m.pendingOps),
		"sincePull": float64(now - m.lastPull),
		"sincePush": float64(now - m.lastPush),
	}
	if m.vars == nil {
		return builtins
	}
	return chainEnv{first: builtins, rest: m.vars}
}

type chainEnv struct {
	first trigger.MapEnv
	rest  trigger.Env
}

func (c chainEnv) Lookup(name string) (float64, bool) {
	if v, ok := c.first[name]; ok {
		return v, true
	}
	return c.rest.Lookup(name)
}

// EvaluateTriggers evaluates the push and pull triggers at the current
// virtual time and performs the corresponding synchronization. It returns
// (pushed, pulled). Trigger evaluation is skipped while a use window is
// open (the view marked the data as mutually exclusive).
func (m *Manager) EvaluateTriggers() (pushed, pulled bool, err error) {
	m.mu.Lock()
	if m.inUse || !m.initialized || m.killed {
		m.mu.Unlock()
		return false, false, nil
	}
	env := m.triggerEnvLocked()
	now := float64(m.clock.Now())
	firePush, errPush := m.pushTr.Fire(now, env)
	firePull, errPull := m.pullTr.Fire(now, env)
	m.mu.Unlock()
	if errPush != nil {
		return false, false, fmt.Errorf("cache: push trigger: %w", errPush)
	}
	if errPull != nil {
		return false, false, fmt.Errorf("cache: pull trigger: %w", errPull)
	}
	if firePush {
		if err := m.PushImage(); err != nil {
			return false, false, err
		}
		pushed = true
	}
	if firePull {
		if err := m.PullImage(); err != nil {
			return pushed, false, err
		}
		pulled = true
	}
	return pushed, pulled, nil
}

// ScheduleTriggers arranges for EvaluateTriggers to run every period
// virtual milliseconds on a simulated clock. It is a no-op (returning
// false) when the manager has no triggers or the clock is not a *vclock.Sim.
// Use StopTriggers (or KillImage) to cancel.
func (m *Manager) ScheduleTriggers(period vclock.Duration) bool {
	sim, ok := m.clock.(*vclock.Sim)
	if !ok || (m.pushTr.IsZero() && m.pullTr.IsZero()) || period <= 0 {
		return false
	}
	m.mu.Lock()
	if m.cancelTick != nil || m.killed {
		m.mu.Unlock()
		return false
	}
	stopped := false
	m.cancelTick = func() { stopped = true }
	m.mu.Unlock()

	var tick func()
	tick = func() {
		m.mu.Lock()
		dead := m.killed || stopped
		m.mu.Unlock()
		if dead {
			return
		}
		_, _, _ = m.EvaluateTriggers()
		sim.After(period, tick)
	}
	sim.After(period, tick)
	return true
}

// StartTicker evaluates the push/pull triggers every period of wall time
// on a background goroutine — the scheduling mode for real (non-simulated)
// deployments such as fleccview. It returns a stop function (safe to call
// more than once), or nil when the manager has no triggers. Evaluation
// errors are delivered to onErr (may be nil to ignore them).
func (m *Manager) StartTicker(period time.Duration, onErr func(error)) (stop func()) {
	if m.pushTr.IsZero() && m.pullTr.IsZero() || period <= 0 {
		return nil
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if _, _, err := m.EvaluateTriggers(); err != nil && onErr != nil {
					onErr(err)
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// StopTriggers cancels the trigger scheduler (idempotent).
func (m *Manager) StopTriggers() {
	m.mu.Lock()
	if m.cancelTick != nil {
		m.cancelTick()
		m.cancelTick = nil
	}
	m.mu.Unlock()
}

// Base returns a clone of the last synchronized snapshot (tests/tools).
func (m *Manager) Base() *image.Image {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.base == nil {
		return nil
	}
	return m.base.Clone()
}
