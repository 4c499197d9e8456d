// Package directory implements Flecc's directory manager (paper §4.2): the
// runtime component attached to the original component. It keeps track of
// which views are running, controls which views are allowed to be active,
// commits pushed updates into the primary copy, and uses the
// application-supplied information — data properties, validity triggers,
// extract/merge methods — to synchronize only the interested parties.
package directory

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/vclock"
)

// UpdateRec is one committed update in the primary's log. The log is what
// lets Flecc answer the paper's quality question: "how many remote updates
// has this view not seen?"
type UpdateRec struct {
	// Version is the primary version assigned to the commit.
	Version vclock.Version
	// Writer is the view whose changes were committed ("" for updates
	// originating at the primary itself).
	Writer string
	// Props describes which shared data the update touched: the writer's
	// registered set (empty, meaning everything, for a writer that had
	// already unregistered).
	Props property.Set
	// Ops is the number of logical operations (view use-windows) folded
	// into the commit.
	Ops int
	// At is the virtual time of the commit.
	At vclock.Time
}

type shadowEntry struct {
	version vclock.Version
	writer  string
	deleted bool
}

// dirtyRec is one record in the store's version-ordered dirty-key index:
// key changed at version. Commit appends records in version order, so the
// slice stays sorted without ever sorting on the hot path. When a key is
// committed again, its old record is not removed (that would be O(n)); it
// becomes stale — detectable because the shadow's version for the key has
// moved on — and is skipped on reads and dropped on the next rebuild.
type dirtyRec struct {
	version vclock.Version
	key     string
}

// storeStripe is one key-hash shard of the store's per-key metadata: a
// shadow map plus the version-ordered dirty index over its keys. Each
// stripe has its own lock, so commits of disjoint conflict groups publish
// metadata without contending. mu is a leaf lock: held for a map read or
// update only, never across a codec call (but Scoper.InScope, which
// depends on its arguments alone) and never together with another
// stripe's lock, Store.mu or pubTracker.mu.
type storeStripe struct {
	mu     sync.RWMutex
	shadow map[string]shadowEntry
	// dirty is the version-ordered dirty-key index feeding incremental
	// extraction; stale counts its superseded records, driving rebuilds.
	dirty []dirtyRec
	stale int
}

func newStoreStripe() *storeStripe {
	return &storeStripe{shadow: map[string]shadowEntry{}}
}

// stripeCount is the fixed key-hash fan-out. Keys hash to stripes
// independently of conflict groups: disjoint groups have disjoint keys,
// so their publishes never collide on an entry, and a shared stripe only
// costs a short map-update critical section (all codec work happens
// outside stripe locks).
const stripeCount = 16

// Store wraps the original component's extract/merge codec with the
// protocol metadata Flecc maintains around it: a monotonic version
// counter, a per-key shadow of (version, writer) used for conflict
// detection, and the update log used for quality accounting. Store is the
// application-neutral half of the directory manager: it never interprets
// entry payloads.
//
// The primary codec's methods are called outside every store lock, and
// concurrently whenever commits and extracts overlap; the codec must be
// safe for that (see image.Merger). What the store itself coordinates is
// listed at the top of stripe.go.
type Store struct {
	// gate is the directory's one quiesce point. Commits hold the read
	// side for their whole duration, extracts while they read the stripes;
	// whole-store operations (snapshot, absorb, invariant checks)
	// and the manager's structural changes (lanes.go) hold the write side —
	// acquiring it exclusively drains every in-flight commit, which is
	// what keeps replication batches complete. It is the store's outermost
	// lock; PROTOCOL.md "Concurrency model" has the package's full order.
	gate sync.RWMutex
	// mu guards the update log, the resolver and conflictsSeen. A leaf
	// lock: never held across a codec call. Per-key metadata lives under
	// the stripe locks.
	mu      sync.RWMutex
	primary image.Codec
	// keyed is primary's keyed-extraction extension when it has one; nil
	// means delta pulls fall back to a full extract trimmed to the delta.
	keyed image.KeyedExtractor
	// scope is primary's scope test when it has one; nil means every delta
	// key is committed and Merge alone applies the restriction.
	scope   image.Scoper
	clock   vclock.Clock
	counter vclock.Counter
	// stripes holds the per-key metadata in stripeCount key-hash stripes.
	stripes []*storeStripe
	log     []UpdateRec
	// resolver adjudicates concurrent-update conflicts; nil means
	// last-writer-wins in commit order (the incoming update wins, since it
	// is the latest).
	resolver image.Resolver
	// conflictsSeen counts conflicts detected across all commits.
	conflictsSeen int
	// pub tracks the published watermark extracts stamp images with.
	pub pubTracker
}

// NewStore builds a store around the original component's codec.
func NewStore(primary image.Codec, clock vclock.Clock) *Store {
	keyed, _ := primary.(image.KeyedExtractor)
	scope, _ := primary.(image.Scoper)
	s := &Store{
		primary: primary,
		keyed:   keyed,
		scope:   scope,
		clock:   clock,
		stripes: make([]*storeStripe, stripeCount),
	}
	for i := range s.stripes {
		s.stripes[i] = newStoreStripe()
	}
	return s
}

// stripeFor maps a key to its metadata stripe.
func (s *Store) stripeFor(k string) *storeStripe {
	return s.stripes[fnvLane(k, stripeCount)]
}

// SetResolver installs the application's conflict resolver (nil restores
// incoming-wins).
func (s *Store) SetResolver(r image.Resolver) {
	s.mu.Lock()
	s.resolver = r
	s.mu.Unlock()
}

// Current returns the latest committed primary version.
func (s *Store) Current() vclock.Version { return s.counter.Current() }

// ConflictsSeen returns the number of concurrent-update conflicts detected
// so far.
func (s *Store) ConflictsSeen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.conflictsSeen
}

// Commit folds a view's delta into the primary copy. Each delta entry's
// Version field carries the version of the data the view based its change
// on; when the shadow shows a newer committed version by a different
// writer, the entries conflict and the resolver (or incoming-wins) decides.
// Commit assigns one new primary version to the whole delta, merges the
// winning entries into the original component, updates the shadow, and
// appends an update record with the given op count.
//
// The returned rejected image (nil when empty) contains, for every key
// where the resolver kept the primary's value, that winning entry — the
// caller sends it back to the pusher so the losing view converges instead
// of silently keeping its rejected value.
//
// An empty delta commits nothing and returns the current version.
//
// Commit takes the delta: it filters, stamps and merges its entries in
// place. A caller that still needs the image afterwards commits a clone.
//
// Concurrent Commit calls must touch disjoint keys: the shadow entries
// for a delta's keys must not move while its commit runs. The directory
// manager's execution lanes (lanes.go) guarantee it — two commits in
// flight at once are never in the same conflict group; a caller driving
// a bare Store concurrently has to.
//
// A bare Store knows no registrations, so Commit commits under the empty
// property set, the whole domain; the manager scopes each commit by the
// writer's registered set instead (Manager.commit).
func (s *Store) Commit(writer string, delta *image.Image, ops int) (vclock.Version, int, *image.Image, error) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	return s.orCurrent(s.commitGated(writer, property.Set{}, delta, ops))
}

// orCurrent passes a commitGated result through, naming the current
// version where the commit committed nothing.
func (s *Store) orCurrent(ver vclock.Version, conflicts int, rejected *image.Image, err error) (vclock.Version, int, *image.Image, error) {
	if ver == 0 && err == nil {
		ver = s.counter.Current()
	}
	return ver, conflicts, rejected, err
}

// commitGated is Commit for a caller that already holds the gate: the
// manager's lane dispatch (read side) and CommitLocal (write side). props
// scopes the commit: the conflict extract, the merge into the primary and
// the update record all use it. With a Scoper primary, entries outside
// props are dropped before anything else: Merge would skip them, so they
// must not be stamped as committed either. A delta left empty commits
// nothing and returns version 0, so the caller can tell that no version
// is this commit's (orCurrent). Like Commit, it takes the delta and works
// on it in place: the entries it commits are the delta's own, and the
// image it merges is the delta.
func (s *Store) commitGated(writer string, props property.Set, delta *image.Image, ops int) (vclock.Version, int, *image.Image, error) {
	if delta == nil || delta.Len() == 0 {
		return 0, 0, nil, nil
	}
	// The entries to commit, in the delta's key order, each with the
	// shadow entry the resolver stamps "ours" with when it conflicts.
	// Filtered in place: apply never gets ahead of the entry it reads.
	type conflict struct {
		at    int // index into apply
		prior shadowEntry
	}
	var conflicts []conflict
	apply := delta.Entries[:0]
	for _, e := range delta.Entries {
		if s.scope != nil && !s.scope.InScope(props, e.Key) {
			continue
		}
		st := s.stripeFor(e.Key)
		st.mu.RLock()
		sh, ok := st.shadow[e.Key]
		st.mu.RUnlock()
		if ok && sh.version > e.Version && sh.writer != writer {
			conflicts = append(conflicts, conflict{at: len(apply), prior: sh})
		}
		apply = append(apply, e)
	}
	if len(apply) == 0 {
		return 0, 0, nil, nil
	}
	s.mu.RLock()
	resolver := s.resolver
	s.mu.RUnlock()

	// Resolver inputs come from a keyed extract of just the conflicting
	// keys, outside every lock. With no resolver installed the incoming
	// update wins and no extract is needed at all.
	var rejected *image.Image
	if len(conflicts) > 0 && resolver != nil {
		var current *image.Image
		var err error
		if s.keyed != nil {
			keys := make([]string, len(conflicts))
			for i, c := range conflicts {
				keys[i] = apply[c.at].Key
			}
			current, err = s.keyed.ExtractKeys(props, keys)
		} else {
			current, err = s.primary.Extract(props)
		}
		if err != nil {
			return 0, 0, nil, fmt.Errorf("directory: extract for conflict resolution: %w", err)
		}
		// Resolve before allocating the version, so a resolver error
		// burns nothing.
		for _, c := range conflicts {
			theirs := apply[c.at]
			k := theirs.Key
			// A key the primary no longer holds is, on the primary's
			// side, a tombstone stamped with its shadow provenance.
			ours := image.Entry{Key: k, Deleted: true}
			if current != nil {
				if ce, ok := current.Get(k); ok {
					ours = ce
				}
			}
			ours.Version, ours.Writer = c.prior.version, c.prior.writer
			winner, err := resolver(image.Conflict{Key: k, Ours: ours, Theirs: theirs})
			if err != nil {
				return 0, 0, nil, fmt.Errorf("directory: resolve %q: %w", k, err)
			}
			winner.Key = k // under the conflict's key, apply stays sorted
			if winner.Equal(ours) {
				// The primary's value survives: keep the shadow as-is,
				// skip the merge for this key, and report the winning
				// value back to the pusher so it converges.
				if rejected == nil {
					rejected = image.New()
				}
				rejected.Put(ours)
				continue
			}
			apply[c.at] = winner
		}
		if rejected != nil {
			apply = slices.DeleteFunc(apply, func(e image.Entry) bool {
				_, lost := rejected.Get(e.Key)
				return lost
			})
		}
	}

	newVer := s.pub.begin(&s.counter)
	// Every allocated version must land, or the watermark would wedge
	// behind it forever — a failed merge lands its version empty.
	defer s.pub.end(newVer)

	for i := range apply {
		apply[i].Version = newVer
		apply[i].Writer = writer
	}
	delta.Version, delta.Entries = newVer, apply
	if len(apply) > 0 {
		// Merge into the codec before publishing the shadow stamps: a
		// reader that sees a new stamp is guaranteed the codec already
		// holds at least that value, and a failed merge leaves no stamp.
		if err := s.primary.Merge(delta, props); err != nil {
			return 0, 0, nil, fmt.Errorf("directory: merge into primary: %w", err)
		}
	}
	for _, e := range apply {
		k := e.Key
		st := s.stripeFor(k)
		st.mu.Lock()
		if _, existed := st.shadow[k]; existed {
			// The key's previous dirty record is now superseded.
			st.stale++
		}
		st.shadow[k] = shadowEntry{version: newVer, writer: writer, deleted: e.Deleted}
		st.insertDirty(dirtyRec{version: newVer, key: k})
		if st.stale > len(st.shadow)+16 {
			st.rebuild()
		}
		st.mu.Unlock()
	}
	s.mu.Lock()
	s.conflictsSeen += len(conflicts)
	s.insertLogLocked(UpdateRec{
		Version: newVer,
		Writer:  writer,
		Props:   props,
		Ops:     ops,
		At:      s.clock.Now(),
	})
	s.mu.Unlock()

	if rejected != nil {
		rejected.Version = newVer
	}
	return newVer, len(conflicts), rejected, nil
}

// rebuild regenerates the stripe's dirty index from its shadow: one
// record per key at its current version, sorted by (version, key). Called
// with the stripe exclusively held (its lock, or the gate's write side)
// when stale records pile up or when Absorb merges a snapshot out of
// order.
func (st *storeStripe) rebuild() {
	st.dirty = st.dirty[:0]
	for k, sh := range st.shadow {
		st.dirty = append(st.dirty, dirtyRec{version: sh.version, key: k})
	}
	sort.Slice(st.dirty, func(i, j int) bool {
		if st.dirty[i].version != st.dirty[j].version {
			return st.dirty[i].version < st.dirty[j].version
		}
		return st.dirty[i].key < st.dirty[j].key
	})
	st.stale = 0
}

// Extract snapshots the primary copy restricted to props, stamps entries
// with their shadow metadata, and — when since > 0 — trims the result to
// entries committed after since (a delta).
//
// The image's Version is the published watermark, read BEFORE touching
// the codec or the dirty index: every commit at or below the watermark
// landed (merge included) before the watermark advanced, so it is fully
// visible to this extract; commits above it may or may not appear, and
// stamping the image below them keeps them in the reader's next delta
// window either way. With no commit in flight the watermark is the
// current primary version.
//
// Delta pulls of a keyed primary take the incremental path: the dirty-key
// index pinpoints exactly which keys changed after since, so only those
// keys are extracted instead of snapshotting everything and discarding
// most of it. Either way the primary codec is called outside every lock.
func (s *Store) Extract(props property.Set, since vclock.Version) (*image.Image, error) {
	img, ver, err := s.extract(props, since, commitID{})
	if img == nil && err == nil {
		img = &image.Image{Version: ver}
	}
	return img, err
}

// commitID names one commit: the version it was assigned and its writer.
// The zero value names none.
type commitID struct {
	version vclock.Version
	writer  string
}

// names reports whether the stamp (version, writer) is this commit's.
func (c commitID) names(version vclock.Version, writer string) bool {
	return c.version != 0 && version == c.version && writer == c.writer
}

// extract is Extract for a delta that leaves out skip's entries: those
// whose shadow stamp is still exactly skip, so no later commit touched
// them. A pull names the puller's own last push that way (handlePull).
// It also returns the image's version, and a delta that finds nothing
// to carry is a nil image at that version: a pull reply with nothing in
// it carries no image.
func (s *Store) extract(props property.Set, since vclock.Version, skip commitID) (*image.Image, vclock.Version, error) {
	if since > 0 && s.keyed != nil {
		return s.extractDelta(props, since, skip)
	}
	img, err := s.extractFull(props, since, skip)
	if err != nil {
		return nil, 0, err
	}
	return img, img.Version, nil
}

// stampGated overwrites each entry's provenance with its shadow stamp.
// Caller holds the gate's read side.
func (s *Store) stampGated(img *image.Image) {
	for i := range img.Entries {
		e := &img.Entries[i]
		st := s.stripeFor(e.Key)
		st.mu.RLock()
		if sh, ok := st.shadow[e.Key]; ok {
			e.Version = sh.version
			e.Writer = sh.writer
		}
		st.mu.RUnlock()
	}
}

// withTombstones adds the tombstones whose keys img lacks, in one sort.
func withTombstones(img *image.Image, tombs []image.Entry) *image.Image {
	tombs = slices.DeleteFunc(tombs, func(t image.Entry) bool {
		_, present := img.Get(t.Key)
		return present
	})
	if len(tombs) == 0 {
		return img
	}
	return image.Of(img.Version, append(img.Entries, tombs...))
}

// extractFull is the classic path: full primary snapshot, shadow overlay,
// tombstone synthesis and, when since > 0, a trim to the entries committed
// after since, skip's left out. The image is this call's own, so the trim
// deletes in place.
func (s *Store) extractFull(props property.Set, since vclock.Version, skip commitID) (*image.Image, error) {
	pubVer := s.pub.published()
	img, err := s.primary.Extract(props)
	if err != nil {
		return nil, fmt.Errorf("directory: extract from primary: %w", err)
	}
	if img == nil {
		img = image.New()
	}
	s.gate.RLock()
	s.stampGated(img)
	// Deleted keys are gone from the primary extract, so a puller would
	// never learn about them; synthesize tombstones from the shadow.
	// (Merging a tombstone for a key a view never held is a harmless
	// no-op, so tombstones are not filtered by props.)
	var tombs []image.Entry
	for _, st := range s.stripes {
		st.mu.RLock()
		for k, sh := range st.shadow {
			if sh.deleted {
				tombs = append(tombs, image.Entry{Key: k, Version: sh.version, Writer: sh.writer, Deleted: true})
			}
		}
		st.mu.RUnlock()
	}
	s.gate.RUnlock()
	img = withTombstones(img, tombs)
	img.Version = pubVer
	if since > 0 {
		img.Entries = slices.DeleteFunc(img.Entries, func(e image.Entry) bool {
			return e.Version <= since || skip.names(e.Version, e.Writer)
		})
	}
	return img, nil
}

// extractDelta serves extract(props, since>0, skip) from the dirty-key
// index: binary-search each stripe's index for the first change after
// since, partition the tail into live keys and tombstones, and ask the
// keyed primary for just the live keys. skip's keys and, with a Scoper
// primary, live keys outside props are dropped first: the keyed extract
// would drop the latter too (the Scoper contract), so neither is ever
// extracted.
func (s *Store) extractDelta(props property.Set, since vclock.Version, skip commitID) (*image.Image, vclock.Version, error) {
	pubVer := s.pub.published()
	var liveKeys []string
	var tombs []image.Entry
	s.gate.RLock()
	for _, st := range s.stripes {
		st.mu.RLock()
		start := sort.Search(len(st.dirty), func(i int) bool { return st.dirty[i].version > since })
		for i := start; i < len(st.dirty); i++ {
			rec := st.dirty[i]
			sh, ok := st.shadow[rec.key]
			if !ok || sh.version != rec.version {
				continue // superseded record; the key's current version has its own
			}
			if skip.names(sh.version, sh.writer) {
				continue
			}
			if sh.deleted {
				// Tombstones are not filtered by props, mirroring the full path.
				tombs = append(tombs, image.Entry{Key: rec.key, Version: sh.version, Writer: sh.writer, Deleted: true})
			} else if s.scope == nil || s.scope.InScope(props, rec.key) {
				liveKeys = append(liveKeys, rec.key)
			}
		}
		st.mu.RUnlock()
	}
	s.gate.RUnlock()

	var img *image.Image
	if len(liveKeys) > 0 {
		var err error
		if img, err = s.keyed.ExtractKeys(props, liveKeys); err != nil {
			return nil, 0, fmt.Errorf("directory: extract from primary: %w", err)
		}
	}
	if img == nil {
		if len(tombs) == 0 {
			return nil, pubVer, nil
		}
		img = image.New()
	}

	s.gate.RLock()
	s.stampGated(img)
	s.gate.RUnlock()
	img = withTombstones(img, tombs)
	img.Version = pubVer
	return img, pubVer, nil
}

// UnseenOps implements the paper's data-quality metric for the committed
// part of the system state: the total Ops of update records that (i) were
// committed after the given version, (ii) were written by someone other
// than viewer, and (iii) touch data overlapping the viewer's props.
func (s *Store) UnseenOps(since vclock.Version, viewer string, props property.Set) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for i := len(s.log) - 1; i >= 0; i-- {
		rec := s.log[i]
		if rec.Version <= since {
			break // log is version-ordered
		}
		if rec.Writer == viewer {
			continue
		}
		if !props.IsEmpty() && !rec.Props.IsEmpty() && !props.Overlaps(rec.Props) {
			continue
		}
		total += rec.Ops
	}
	return total
}

// CheckInvariants verifies the store's internal bookkeeping and returns
// the first violation found (nil when consistent). It is the exported
// self-check the model checker (internal/modelcheck) runs after every
// explored transition, and existing tests assert it behind
// FLECC_TEST_INVARIANTS=1. Checked:
//
//   - every shadow entry's version is positive and ≤ the counter;
//   - the update log is strictly version-ordered and bounded by the counter;
//   - every shadow entry's current version has a live dirty-index record,
//     and no dirty record claims a version newer than the counter;
//   - the stale count never exceeds the index length;
//   - the published watermark has caught up with the counter.
func (s *Store) CheckInvariants() error {
	// Quiesce in-flight commits so the cross-stripe view is coherent.
	s.rlockStore()
	defer s.runlockStore()
	cur := s.counter.Current()
	if pub := s.pub.published(); pub != cur {
		return fmt.Errorf("store: published watermark v%d behind counter v%d with no commit in flight", pub, cur)
	}
	var prev vclock.Version
	for i, rec := range s.log {
		if rec.Version <= prev {
			return fmt.Errorf("store: log[%d] v%d not strictly after v%d", i, rec.Version, prev)
		}
		if rec.Version > cur {
			return fmt.Errorf("store: log[%d] v%d exceeds counter v%d", i, rec.Version, cur)
		}
		prev = rec.Version
	}
	for _, st := range s.stripes {
		for k, sh := range st.shadow {
			if sh.version == 0 {
				return fmt.Errorf("store: shadow %q has version 0", k)
			}
			if sh.version > cur {
				return fmt.Errorf("store: shadow %q at v%d exceeds counter v%d", k, sh.version, cur)
			}
		}
		live := map[string]vclock.Version{}
		var prevDirty vclock.Version
		for i, rec := range st.dirty {
			if rec.version > cur {
				return fmt.Errorf("store: dirty[%d] %q at v%d exceeds counter v%d", i, rec.key, rec.version, cur)
			}
			if rec.version < prevDirty {
				return fmt.Errorf("store: dirty[%d] %q at v%d out of order after v%d", i, rec.key, rec.version, prevDirty)
			}
			prevDirty = rec.version
			if sh, ok := st.shadow[rec.key]; ok && sh.version == rec.version {
				live[rec.key] = rec.version
			}
		}
		for k, sh := range st.shadow {
			if v, ok := live[k]; !ok || v != sh.version {
				return fmt.Errorf("store: shadow %q at v%d has no live dirty record", k, sh.version)
			}
		}
		if st.stale > len(st.dirty) {
			return fmt.Errorf("store: stale count %d exceeds dirty index length %d", st.stale, len(st.dirty))
		}
	}
	return nil
}

// Log returns a copy of the update log (for tests and tools).
func (s *Store) Log() []UpdateRec {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]UpdateRec, len(s.log))
	copy(out, s.log)
	return out
}

// LogLen returns the number of records in the update log.
func (s *Store) LogLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.log)
}

// CompactLog drops log records at or below the given version and returns
// how many it dropped; Manager.CompactLog calls it with the floor every
// live view has seen past. The kept tail shifts down in place and the
// vacated slots are cleared, so dropped records' property sets are freed
// and the backing array is reused by later commits.
func (s *Store) CompactLog(upTo vclock.Version) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.log), func(i int) bool { return s.log[i].Version > upTo })
	if i == 0 {
		return 0
	}
	n := copy(s.log, s.log[i:])
	clear(s.log[n:])
	s.log = s.log[:n]
	return i
}
