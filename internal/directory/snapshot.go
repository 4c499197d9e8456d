package directory

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"flecc/internal/vclock"
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

// Snapshot is a serializable capture of a Store's protocol metadata.
type Snapshot struct {
	// Version is the last issued primary version.
	Version vclock.Version
	// Shadow carries the per-key commit metadata.
	Shadow []ShadowRec
	// Log is the update log (quality accounting).
	Log []UpdateRec
	// Views carries the per-view registration state (modes, seen
	// versions, validity triggers) when the snapshot was captured by
	// Manager.CaptureSnapshot. A standby that restores such a snapshot
	// takes over without forcing every CM through re-register/re-pull.
	// Store-level Snapshot leaves it nil; decoders of old blobs see nil.
	Views []HandoverView
}

// Snapshot captures the store's current metadata. It quiesces in-flight
// commits first, so the capture is complete up to its Version.
func (s *Store) Snapshot() *Snapshot {
	defer s.rlockStore()()
	snap := &Snapshot{Version: s.counter.Current()}
	for _, st := range s.stripes {
		for k, sh := range st.shadow {
			snap.Shadow = append(snap.Shadow, ShadowRec{
				Key: k, Version: sh.version, Writer: sh.writer, Deleted: sh.deleted,
			})
		}
	}
	snap.Log = make([]UpdateRec, len(s.log))
	copy(snap.Log, s.log)
	return snap
}

// Restore replaces the store's metadata with the snapshot's. The primary
// codec is untouched; callers are responsible for the application data
// being consistent with the snapshot (e.g. restored from the same
// checkpoint).
func (s *Store) Restore(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("directory: nil snapshot")
	}
	defer s.lockStore()()
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

// EncodeSnapshot serializes a snapshot (gob; property sets travel in their
// textual form through their TextMarshaler implementation).
func EncodeSnapshot(snap *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("directory: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot parses EncodeSnapshot's output.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	var snap Snapshot
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("directory: decode snapshot: %w", err)
	}
	return &snap, nil
}
