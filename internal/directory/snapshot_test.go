package directory

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"flecc/internal/property"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// sampleSnapshot has a record of every kind: a tombstone and a live
// shadow record, log records with property sets, and a view with props,
// mode, seen version and a validity trigger.
func sampleSnapshot() *Snapshot { return sampleBatch().Snap }

// snapSeeds are the fuzz seeds: a full snapshot, an empty one, then the
// malformed — well-formed bytes whose records break the store's
// invariants, truncations, a trailing byte, a foreign format byte and a
// declared count far beyond the input.
func snapSeeds() [][]byte {
	full := EncodeSnapshot(sampleSnapshot())
	return [][]byte{
		full,
		EncodeSnapshot(&Snapshot{}),
		EncodeSnapshot(&Snapshot{Version: 2, Shadow: []ShadowRec{{Key: "a", Version: 5}}, Log: []UpdateRec{{Version: 4}, {Version: 3}}}),
		nil,
		{snapFormat},
		full[:len(full)/2],
		full[:len(full)-1],
		append(bytes.Clone(full), 0xFF),
		append([]byte{snapFormat + 1}, full[1:]...),
		append([]byte{2}, full[1:]...),                                         // format 2 had fixed-width counts, lengths and versions
		append([]byte{3}, full[1:]...),                                         // format 3 had an active byte where format 4 has the phase
		append(bytes.Clone(full[:1+1]), binary.AppendUvarint(nil, 1<<32-1)...), // format, one-byte version, huge count
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	for _, snap := range []*Snapshot{sampleSnapshot(), {}, {Version: 7, Log: []UpdateRec{{Version: 7, Writer: "v1", Props: property.NewSet()}}}} {
		enc := EncodeSnapshot(snap)
		if enc[0] != snapFormat {
			t.Fatalf("first byte = %d, want the format version %d", enc[0], snapFormat)
		}
		got, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, snap) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, snap)
		}
	}
	for i, seed := range snapSeeds()[2:] {
		_, err := DecodeSnapshot(seed)
		if err == nil {
			t.Errorf("malformed seed %d accepted", i)
		} else if len(seed) > 0 && (seed[0] == 2 || seed[0] == 3) &&
			!strings.Contains(err.Error(), fmt.Sprintf("unsupported snapshot format %d (want 4)", seed[0])) {
			t.Errorf("format-%d seed %d: %v", seed[0], i, err)
		}
	}
}

// TestViewListRoundTrip: the name list a replication batch's removal
// records carry round-trips, and a truncated, overlong or empty input is
// refused.
func TestViewListRoundTrip(t *testing.T) {
	encode := func(names []string) []byte {
		e := wire.GetEncoder()
		defer wire.PutEncoder(e)
		encodeNames(e, names)
		return e.Copy()
	}
	decode := func(b []byte) ([]string, error) {
		d := wire.NewDecoder(b)
		names := decodeNames(d, nil)
		return names, decoded(d, "view list")
	}
	for _, names := range [][]string{nil, {"a"}, {"v1", "", "v3"}} {
		got, err := decode(encode(names))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, names) {
			t.Fatalf("round trip: %q, want %q", got, names)
		}
	}
	blob := encode([]string{"a"})
	for _, bad := range [][]byte{nil, blob[:len(blob)-1], append(bytes.Clone(blob), 0), binary.AppendUvarint(nil, 1<<32-1)} {
		if _, err := decode(bad); err == nil {
			t.Errorf("malformed view list %x accepted", bad)
		}
	}
}

// TestRestoreAbsorbRefuseInconsistentSnapshot: a snapshot whose records
// break the store's invariants — a checkpoint from disk, a batch from a
// peer — is refused by Absorb before it touches the store. Accepted,
// it would leave the counter below versions the store holds, and the
// next commit would reissue one.
func TestRestoreAbsorbRefuseInconsistentSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name string
		snap *Snapshot
	}{
		{"log out of order and past the counter", &Snapshot{
			Version: 2, Shadow: []ShadowRec{{Key: "a", Version: 5}}, Log: []UpdateRec{{Version: 4}, {Version: 3}},
		}},
		{"shadow past the counter", &Snapshot{Version: 1, Shadow: []ShadowRec{{Key: "a", Version: 9}}}},
		{"shadow at v0", &Snapshot{Version: 3, Shadow: []ShadowRec{{Key: "a"}}}},
		{"duplicate log version", &Snapshot{Version: 5, Log: []UpdateRec{{Version: 3}, {Version: 3}}}},
		{"log past the counter", &Snapshot{Version: 2, Log: []UpdateRec{{Version: 1}, {Version: 3}}}},
	} {
		st := NewStore(newMapStore(), vclock.NewSim())
		if _, _, _, err := st.Commit("w", delta("k", "x"), 1); err != nil {
			t.Fatal(err)
		}
		if err := st.Absorb(tc.snap); err == nil {
			t.Errorf("%s: Absorb accepted it", tc.name)
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("%s: refused snapshot damaged the store: %v", tc.name, err)
		}
		if v, _, _, err := st.Commit("w", delta("k", "y"), 1); err != nil || v != 2 {
			t.Fatalf("%s: next commit issued v%d (%v), want v2", tc.name, v, err)
		}
	}
}

func FuzzDecodeSnapshot(f *testing.F) {
	for _, seed := range snapSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		// Whatever the decoder accepts re-encodes to a fixed point.
		enc := EncodeSnapshot(snap)
		snap2, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if !bytes.Equal(enc, EncodeSnapshot(snap2)) {
			t.Fatal("decode∘encode is not stable")
		}
		// And it passes check: a fresh store absorbs it and stays
		// consistent.
		st := NewStore(newMapStore(), vclock.NewSim())
		if err := st.Absorb(snap); err != nil {
			t.Fatalf("Absorb refused a decoded snapshot: %v", err)
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("restored snapshot breaks the store: %v", err)
		}
	})
}
