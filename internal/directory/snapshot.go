package directory

import (
	"fmt"
	"slices"

	"flecc/internal/property"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// The paper notes that the centralized protocol assumes the original
// component is always running and that "fail-safe mechanisms can be
// implemented" (§4.1). This file implements the mechanism: the directory
// manager's protocol metadata — the version counter, the per-key shadow,
// and the update log — can be snapshotted and absorbed into a standby
// directory manager, which then continues issuing versions where the
// failed primary left off. (The application data itself lives in the
// original component and is replicated by whatever means the application
// uses; Flecc only needs its metadata to survive.)

// ShadowRec is the exported form of one shadow entry.
type ShadowRec struct {
	Key     string
	Version vclock.Version
	Writer  string
	Deleted bool
}

// ViewRecord is the per-view protocol state a checkpoint or replication
// batch carries: the view's record (its touch part: name, mode, op
// class, seen, phase), its property set and its validity-trigger source
// text.
type ViewRecord struct {
	ViewTouch
	Props    property.Set
	Validity string
}

// Snapshot is the one form a directory manager's state takes when it
// leaves the process: a checkpoint file and a replication batch's data
// (ReplBatch.Snap) are both Snapshots, captured by Store.SnapshotSince
// or Manager.CaptureSince and written by the same section encoder.
type Snapshot struct {
	// Version is the last issued primary version.
	Version vclock.Version
	// Shadow carries the per-key commit metadata.
	Shadow []ShadowRec
	// Log is the update log (quality accounting).
	Log []UpdateRec
	// Views carries per-view registration state (modes, seen versions,
	// validity triggers): every view for Manager.CaptureSince, the changed
	// views for a replication batch.
	// A standby that restores it takes over without forcing every CM
	// through re-register/re-pull. Store.SnapshotSince leaves it nil.
	Views []ViewRecord
}

// check enforces what a store needs of any snapshot it absorbs —
// checkpoints come from disk and batches from a peer: every
// shadow version lies in 1..Version, and the log is strictly
// version-ordered and bounded by Version. Without it the counter could
// land below versions the store already holds and the next commit would
// reissue one.
func (snap *Snapshot) check() error {
	for _, r := range snap.Shadow {
		if r.Version == 0 || r.Version > snap.Version {
			return fmt.Errorf("directory: snapshot shadow %q at v%d outside v1..v%d", r.Key, r.Version, snap.Version)
		}
	}
	var prev vclock.Version
	for i, r := range snap.Log {
		if r.Version <= prev {
			return fmt.Errorf("directory: snapshot log[%d] v%d not strictly after v%d", i, r.Version, prev)
		}
		prev = r.Version
	}
	if prev > snap.Version {
		return fmt.Errorf("directory: snapshot log ends at v%d beyond its version v%d", prev, snap.Version)
	}
	return nil
}

// Absorb merges a snapshot into the store — the one way a snapshot is
// loaded, whether a checkpoint into a fresh store or a replication batch
// into a standby's. Shadow entries keep the newer version per key, the
// version-ordered logs are merged with the existing entry winning on a
// version tie (so a resent replication batch does not duplicate
// records), and the counter only fast-forwards — it never goes back, so
// a standby never issues a version it already absorbed.
//
// A snapshot that strictly extends the local log with version-ordered
// shadow records — every batch of a healthy replication stream — is
// appended in place: the log grows by the tail and the dirty index by
// exactly the absorbed keys. Anything else (a resend overlapping what
// already landed) takes the general merge and rebuilds the index.
//
// A snapshot that fails check is refused before anything is locked or
// changed.
func (s *Store) Absorb(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("directory: nil snapshot")
	}
	if err := snap.check(); err != nil {
		return err
	}
	s.lockStore()
	defer s.unlockStore()
	if s.extendedByLocked(snap) {
		for _, r := range snap.Shadow {
			st := s.stripeFor(r.Key)
			cur, existed := st.shadow[r.Key]
			if existed && cur.version >= r.Version {
				continue
			}
			if existed {
				st.stale++
			}
			st.shadow[r.Key] = shadowEntry{version: r.Version, writer: r.Writer, deleted: r.Deleted}
			st.insertDirty(dirtyRec{version: r.Version, key: r.Key})
			if st.stale > len(st.shadow)+16 {
				st.rebuild()
			}
		}
		s.log = append(s.log, snap.Log...)
	} else {
		s.mergeLocked(snap)
	}
	s.counter.AdvanceTo(snap.Version)
	return nil
}

// extendedByLocked reports whether snap qualifies for Absorb's append
// path: its log starts after the local log ends, and its shadow records
// arrive in version order (so each dirty-index insert lands at or near
// the tail instead of shifting the index).
func (s *Store) extendedByLocked(snap *Snapshot) bool {
	if len(snap.Log) > 0 && len(s.log) > 0 && snap.Log[0].Version <= s.log[len(s.log)-1].Version {
		return false
	}
	for i := 1; i < len(snap.Shadow); i++ {
		if snap.Shadow[i].Version < snap.Shadow[i-1].Version {
			return false
		}
	}
	return true
}

// mergeLocked is Absorb's general path: per-key newer-wins over the
// shadow, a two-way merge of the logs, and a full dirty-index rebuild.
func (s *Store) mergeLocked(snap *Snapshot) {
	for _, r := range snap.Shadow {
		st := s.stripeFor(r.Key)
		if cur, ok := st.shadow[r.Key]; !ok || cur.version < r.Version {
			st.shadow[r.Key] = shadowEntry{version: r.Version, writer: r.Writer, deleted: r.Deleted}
		}
	}
	merged := make([]UpdateRec, 0, len(s.log)+len(snap.Log))
	i, j := 0, 0
	for i < len(s.log) && j < len(snap.Log) {
		switch {
		case s.log[i].Version == snap.Log[j].Version:
			merged = append(merged, s.log[i])
			i++
			j++
		case s.log[i].Version < snap.Log[j].Version:
			merged = append(merged, s.log[i])
			i++
		default:
			merged = append(merged, snap.Log[j])
			j++
		}
	}
	merged = append(merged, s.log[i:]...)
	merged = append(merged, snap.Log[j:]...)
	s.log = merged
	for _, st := range s.stripes {
		st.rebuild()
	}
}

// snapFormat is the first byte of an encoded snapshot; bump it on an
// incompatible change. (Version 2 replaced the gob encoding; version 3
// made counts, lengths and versions uvarints; version 4 carries each
// view's phase where version 3 had its active byte. Older formats are not
// read: such a checkpoint fails to decode and fleccd starts cold.)
const snapFormat = 4

// EncodeSnapshot serializes a snapshot — a checkpoint file — as its
// format byte, its version, and the sections a replication batch
// carries.
func EncodeSnapshot(snap *Snapshot) []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.U8(snapFormat)
	e.Uvarint(uint64(snap.Version))
	encodeSnapSections(e, snap)
	return e.Copy()
}

// DecodeSnapshot parses EncodeSnapshot's output. Like decodeReplBatch it
// is total on hostile input and refuses trailing bytes. It also refuses a
// snapshot that fails check, so a bad checkpoint is a decode failure —
// fleccd's loud cold start, not a boot failure.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	d := wire.NewDecoder(data)
	if v := d.U8(); d.Err() == nil && v != snapFormat {
		return nil, fmt.Errorf("directory: unsupported snapshot format %d (want %d)", v, snapFormat)
	}
	snap := &Snapshot{Version: vclock.Version(d.Uvarint())}
	decodeSnapSections(d, snap)
	if err := decoded(d, "snapshot"); err != nil {
		return nil, err
	}
	if err := snap.check(); err != nil {
		return nil, err
	}
	return snap, nil
}

// decoded closes a top-level decode: the first error d latched, or the
// trailing bytes a well-formed blob never has.
func decoded(d *wire.Decoder, what string) error {
	if err := d.Err(); err != nil {
		return fmt.Errorf("directory: decode %s: %w", what, err)
	}
	if n := d.Remaining(); n != 0 {
		return fmt.Errorf("directory: decode %s: %d trailing bytes", what, n)
	}
	return nil
}

// Smallest encodings of each record kind (empty strings and sets, one-byte
// uvarints): the decoder sizes slices by the declared count only after
// checking the input that remains could hold that many.
const (
	minShadowRec = 1 + 1 + 1 + 1
	minLogRec    = 1 + 1 + 1 + 1 + 1
	minTouchRec  = 1 + 1 + 1 + 1 + 1
	minRegRec    = minTouchRec + 1 + 1
	minName      = 1
)

// encodeSnapSections writes a snapshot's shadow, log and registration
// sections — everything but its version, which checkpoints and batches
// place differently.
func encodeSnapSections(e *wire.Encoder, snap *Snapshot) {
	e.Count(len(snap.Shadow))
	for _, r := range snap.Shadow {
		e.Str(r.Key)
		e.Uvarint(uint64(r.Version))
		e.Str(r.Writer)
		e.Bool(r.Deleted)
	}
	e.Count(len(snap.Log))
	for _, r := range snap.Log {
		e.Uvarint(uint64(r.Version))
		e.Str(r.Writer)
		e.PropSet(r.Props)
		e.Uvarint(uint64(r.Ops))
		e.Uvarint(uint64(r.At))
	}
	e.Count(len(snap.Views))
	for _, v := range snap.Views {
		encodeTouch(e, v.ViewTouch)
		e.PropSet(v.Props)
		e.Str(v.Validity)
	}
}

// decodeSnapSections appends what encodeSnapSections wrote to snap's
// sections, each empty or nil on entry; errors latch in d.
func decodeSnapSections(d *wire.Decoder, snap *Snapshot) {
	n := d.Count(minShadowRec)
	snap.Shadow = slices.Grow(snap.Shadow, n)
	for i := 0; i < n; i++ {
		snap.Shadow = append(snap.Shadow, ShadowRec{
			Key: d.Key(), Version: vclock.Version(d.Uvarint()), Writer: d.Name(), Deleted: d.Bool(),
		})
	}
	n = d.Count(minLogRec)
	snap.Log = slices.Grow(snap.Log, n)
	for i := 0; i < n; i++ {
		snap.Log = append(snap.Log, UpdateRec{
			Version: vclock.Version(d.Uvarint()), Writer: d.Name(), Props: d.PropSet(),
			Ops: int(d.Uvarint()), At: vclock.Time(d.Uvarint()),
		})
	}
	n = d.Count(minRegRec)
	snap.Views = slices.Grow(snap.Views, n)
	for i := 0; i < n; i++ {
		snap.Views = append(snap.Views, ViewRecord{ViewTouch: decodeTouch(d), Props: d.PropSet(), Validity: d.Str()})
	}
}
