// Package image defines ObjectImage, the unit of state Flecc moves between
// views and the original component (paper §4.1, "Merge/Extract methods").
//
// Flecc propagates *modified data* rather than operation logs, because
// views are different layouts of the same component and may not implement
// each other's methods. An Image is a snapshot: a version plus keyed,
// versioned, opaque entries, kept sorted by key with no two entries
// sharing one. Which shared data it covers is not part of it — the
// extract or merge call that produces or consumes it is handed the
// property set (paper §4.1). The application supplies the
// extract/merge callbacks (Extractor/Merger interfaces); Flecc never
// interprets entry payloads — it only routes and versions them. Where two
// views' updates conflict, the directory store hands both sides to the
// application's Resolver (merge.go), in the style of Coda and Bayou.
//
// Ownership: an image returned by an extract, a decoder or a commit
// belongs to its receiver, which may change it until it hands it on (in
// a message, to Merge, as a return value). A decoded image is its
// receiver's: every transport decodes what it delivers, so no two
// receivers share one. A receiver keeps the entries it wants without
// copying them and may drop the others in place. An entry's Value is
// never changed in place once it is in an image.
package image

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"flecc/internal/property"
	"flecc/internal/vclock"
)

// Entry is one keyed datum inside an image. The payload is opaque to
// Flecc. Version is the primary-copy version at which this value was
// committed; Writer identifies the view whose update produced the value
// (empty for values that originate at the primary).
type Entry struct {
	Key     string
	Value   []byte
	Version vclock.Version
	Writer  string
	Deleted bool
}

// Clone returns a deep copy of the entry.
func (e Entry) Clone() Entry {
	e.Value = bytes.Clone(e.Value)
	return e
}

// Equal reports whether two entries carry the same payload and tombstone
// state (version/writer metadata is ignored — it describes provenance, not
// content).
func (e Entry) Equal(o Entry) bool {
	return e.Key == o.Key && e.Deleted == o.Deleted && bytes.Equal(e.Value, o.Value)
}

// Image is a snapshot of shared state. It carries no property set: the
// scope is an argument of the Extractor or Merger call.
type Image struct {
	// Version is the primary-copy version at extraction/commit time. A
	// view that holds an image with Version v has seen every primary
	// update numbered ≤ v.
	Version vclock.Version
	// Entries is the snapshot content, sorted by key, no key twice.
	// Code that edits the slice directly keeps that order.
	Entries []Entry
}

// New returns an empty image.
func New() *Image { return &Image{} }

// Of returns an image of entries, which it sorts by key in place: the one
// sort a builder that collects entries in arbitrary order (a map walk)
// needs. The keys must be distinct.
func Of(v vclock.Version, entries []Entry) *Image {
	slices.SortFunc(entries, func(a, b Entry) int { return strings.Compare(a.Key, b.Key) })
	return &Image{Version: v, Entries: entries}
}

// Clone returns a deep copy of the image: its version and entries.
func (im *Image) Clone() *Image {
	c := &Image{Version: im.Version, Entries: make([]Entry, len(im.Entries))}
	for i, e := range im.Entries {
		c.Entries[i] = e.Clone()
	}
	return c
}

// find returns the index of key's entry and true, or the index it would
// be inserted at and false.
func (im *Image) find(key string) (int, bool) {
	return slices.BinarySearchFunc(im.Entries, key, func(e Entry, k string) int { return strings.Compare(e.Key, k) })
}

// Put inserts or replaces an entry. A key that sorts after every entry is
// appended, so building an image in key order costs no search.
func (im *Image) Put(e Entry) {
	if n := len(im.Entries); n == 0 || im.Entries[n-1].Key < e.Key {
		im.Entries = append(im.Entries, e)
		return
	}
	i, ok := im.find(e.Key)
	if ok {
		im.Entries[i] = e
		return
	}
	im.Entries = slices.Insert(im.Entries, i, e)
}

// Get returns the entry for key and whether it exists.
func (im *Image) Get(key string) (Entry, bool) {
	if i, ok := im.find(key); ok {
		return im.Entries[i], true
	}
	return Entry{}, false
}

// Len returns the number of entries (including tombstones).
func (im *Image) Len() int { return len(im.Entries) }

// String summarizes the image for logs.
func (im *Image) String() string {
	return fmt.Sprintf("image{v%d, %d entries}", im.Version, len(im.Entries))
}

// Extractor produces an image of a replica's current state, restricted to
// the given property set. Views implement extractFromView; the original
// component implements extractFromObject — both have this shape (paper
// Figure 3).
//
// Extract may be called concurrently with itself and with Merge; see
// Merger for the codec's concurrency contract. Two optional capabilities
// let the protocol layers avoid walking the whole replica: KeyedExtractor
// (the caller names the keys) and ChangeExtractor (the codec names them).
type Extractor interface {
	Extract(props property.Set) (*Image, error)
}

// Merger folds an image into a replica's state. Views implement
// mergeIntoView; the original component implements mergeIntoObject.
// props is the scope of the merge, the only one: the image carries none.
// The empty set means the whole domain.
//
// Ownership: Merge may keep the entries' keys and values it is handed,
// without copying them (flecc.MapCodec stores each Value as it comes);
// the Image itself is the caller's again once Merge returns. So a caller
// that reuses its buffers across merges still hands every Merge values
// of their own: a hot standby decodes each replication batch into one
// reused record, but each batch's values section afresh.
//
// Concurrency contract, for every codec method (Extract, ExtractKeys,
// Merge): the protocol layers call them outside their own locks, so a
// codec must be safe for concurrent use. The directory store runs one
// Merge per commit in flight and Extract/ExtractKeys for every pull
// beside them; the only ordering it provides is that two concurrent Merge
// calls never carry the same key (directory.Store.Commit). A codec
// guarding its state with one mutex satisfies the contract.
type Merger interface {
	Merge(img *Image, props property.Set) error
}

// KeyedExtractor is an optional extension of Extractor: a codec that can
// produce an image of *specific keys* without walking its whole state. The
// directory store uses it to serve delta pulls incrementally — it knows
// (from its dirty-key index) exactly which keys changed since the puller's
// version, so a keyed codec turns a full extract-and-discard into a lookup
// of just those keys.
//
// Contract: the keys come in any order, and the result must contain
// exactly the requested keys that (a) currently exist in the replica and
// (b) pass the same property restriction Extract applies; keys that are
// absent or filtered out are simply omitted. Entry Version/Writer must be
// left zero, exactly as Extract leaves them — the store stamps provenance
// from its shadow.
// ExtractKeys is called concurrently like Extract (see Merger).
type KeyedExtractor interface {
	ExtractKeys(props property.Set, keys []string) (*Image, error)
}

// ChangeExtractor is an optional extension of Extractor: a codec that can
// say which keys changed. The cache manager uses it so that a push, a
// DM-initiated fetch and an invalidate encode only what the view touched
// since the last synchronization instead of the whole view; a codec
// without it is asked for everything every time.
//
// Contract: the codec keeps a private revision counter that every state
// change advances. ExtractChanged returns, under one consistent snapshot,
// (a) an image of every key inside props whose value or existence changed
// at a revision greater than since — a key that exists as a live entry
// with its current value, a key that was removed as an entry with Deleted
// set and no value — and (b) rev, the counter's value at that snapshot,
// which the caller hands back as since once it has dealt with the image.
// The codec may over-report (return a key that did not change, or report
// a change that restored the old value) and must never under-report: a
// missed key is a lost update. since == 0 means "everything": the result
// is exactly Extract(props), live entries only, and the caller infers
// removals from absence. Version/Writer are left zero, as in Extract. When
// nothing qualifies the image may be nil, so the common "nothing changed"
// answer need not allocate. A non-zero since at or past the current
// revision must give a nil image and the current revision: that is how a
// caller reads the revision (the cache manager does, after merging into a
// clean view), so it should not allocate either.
//
// A revision is meaningful only to the codec instance that returned it;
// it is never compared across instances or persisted. ExtractChanged is
// called concurrently like Extract (see Merger).
type ChangeExtractor interface {
	ExtractChanged(props property.Set, since uint64) (img *Image, rev uint64, err error)
}

// Scoper is an optional extension of Merger: a codec that can say whether
// Merge applies an entry under a property set. The directory store asks
// the original component before a commit, so an entry outside the
// writer's registered set is neither merged nor stamped as committed, and
// before a delta pull's keyed extract, so keys another view committed
// outside the puller's set are never asked for. InScope must agree with
// Merge and with ExtractKeys' restriction, and accept every key under the
// empty set. It depends on its arguments alone: the store calls it under
// its own metadata locks.
type Scoper interface {
	InScope(props property.Set, key string) bool
}

// Codec combines both directions; most application components implement
// the full Codec.
type Codec interface {
	Extractor
	Merger
}

// FuncCodec adapts two closures to a Codec, handy for tests and for small
// components that keep their state in plain maps.
type FuncCodec struct {
	ExtractFn func(props property.Set) (*Image, error)
	MergeFn   func(img *Image, props property.Set) error
}

// Extract implements Extractor.
func (f FuncCodec) Extract(props property.Set) (*Image, error) {
	if f.ExtractFn == nil {
		return nil, fmt.Errorf("image: FuncCodec has no ExtractFn")
	}
	return f.ExtractFn(props)
}

// Merge implements Merger.
func (f FuncCodec) Merge(img *Image, props property.Set) error {
	if f.MergeFn == nil {
		return fmt.Errorf("image: FuncCodec has no MergeFn")
	}
	return f.MergeFn(img, props)
}
