package directory

import (
	"fmt"

	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// The paper notes that the centralized protocol assumes the original
// component is always running and that "fail-safe mechanisms can be
// implemented" (§4.1). This file implements the mechanism: the directory
// manager's protocol metadata — the version counter, the per-key shadow,
// and the update log — can be snapshotted and restored into a standby
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

// Snapshot is the one form a directory manager's state takes when it
// leaves the process: a checkpoint file, a live-migration handover
// (TakeHandover) and a replication batch's data (ReplBatch.Snap) are all
// Snapshots, captured by Store.SnapshotSince or Manager.CaptureSince and
// written by the same section encoder.
type Snapshot struct {
	// Version is the last issued primary version.
	Version vclock.Version
	// Shadow carries the per-key commit metadata.
	Shadow []ShadowRec
	// Log is the update log (quality accounting).
	Log []UpdateRec
	// Views carries per-view registration state (modes, seen versions,
	// validity triggers): every view for Manager.CaptureSince, the moved
	// views for TakeHandover, the changed views for a replication batch.
	// A standby that restores it takes over without forcing every CM
	// through re-register/re-pull. Store.SnapshotSince leaves it nil.
	Views []HandoverView
}

// check enforces what a store needs of any snapshot it restores or
// absorbs — checkpoints come from disk and handovers and batches from a
// peer: every shadow version lies in 1..Version, and the log is strictly
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

// Restore replaces the store's metadata with the snapshot's. The primary
// codec is untouched; callers are responsible for the application data
// being consistent with the snapshot (e.g. restored from the same
// checkpoint).
func (s *Store) Restore(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("directory: nil snapshot")
	}
	if err := snap.check(); err != nil {
		return err
	}
	s.lockStore()
	defer s.unlockStore()
	for _, st := range s.stripes {
		st.shadow = map[string]shadowEntry{}
	}
	for _, r := range snap.Shadow {
		s.stripeFor(r.Key).shadow[r.Key] = shadowEntry{version: r.Version, writer: r.Writer, deleted: r.Deleted}
	}
	s.log = make([]UpdateRec, len(snap.Log))
	copy(s.log, snap.Log)
	s.counter.AdvanceTo(snap.Version)
	for _, st := range s.stripes {
		st.rebuild()
	}
	return nil
}

// snapFormat is the first byte of an encoded snapshot; bump it on an
// incompatible change. (Version 2 replaced the gob encoding; version 3
// made counts, lengths and versions uvarints; version 4 carries each
// view's phase where version 3 had its active byte. Older formats are not
// read: such a checkpoint fails to decode and fleccd starts cold.)
const snapFormat = 4

// EncodeSnapshot serializes a snapshot — a checkpoint file or a
// migration handover — as its format byte, its version, and the sections
// a replication batch carries.
func EncodeSnapshot(snap *Snapshot) []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.U8(snapFormat)
	e.Uvarint(uint64(snap.Version))
	encodeSnapSections(e, snap)
	return e.Copy()
}

// DecodeSnapshot parses EncodeSnapshot's output. Like DecodeReplBatch it
// is total on hostile input and refuses trailing bytes. It also refuses a
// snapshot that fails check, so a bad checkpoint is a decode failure —
// fleccd's loud cold start, not a boot failure — and a bad handover fails
// TMigrateApply, which aborts the migration.
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

// decodeSnapSections reads what encodeSnapSections wrote into snap;
// errors latch in d.
func decodeSnapSections(d *wire.Decoder, snap *Snapshot) {
	if n := d.Count(minShadowRec); n > 0 {
		snap.Shadow = make([]ShadowRec, n)
		for i := range snap.Shadow {
			snap.Shadow[i] = ShadowRec{
				Key: d.Str(), Version: vclock.Version(d.Uvarint()), Writer: d.Str(), Deleted: d.Bool(),
			}
		}
	}
	if n := d.Count(minLogRec); n > 0 {
		snap.Log = make([]UpdateRec, n)
		for i := range snap.Log {
			snap.Log[i] = UpdateRec{
				Version: vclock.Version(d.Uvarint()), Writer: d.Str(), Props: d.PropSet(),
				Ops: int(d.Uvarint()), At: vclock.Time(d.Uvarint()),
			}
		}
	}
	if n := d.Count(minRegRec); n > 0 {
		snap.Views = make([]HandoverView, n)
		for i := range snap.Views {
			snap.Views[i] = HandoverView{ViewTouch: decodeTouch(d), Props: d.PropSet(), Validity: d.Str()}
		}
	}
}
