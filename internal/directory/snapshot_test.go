package directory

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"flecc/internal/property"
	"flecc/internal/vclock"
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
		} else if len(seed) > 0 && seed[0] == 2 && !strings.Contains(err.Error(), "unsupported snapshot format 2 (want 3)") {
			t.Errorf("format-2 seed %d: %v", i, err)
		}
	}
}

func TestViewListRoundTrip(t *testing.T) {
	for _, names := range [][]string{nil, {"a"}, {"v1", "", "v3"}} {
		got, err := decodeViewList(EncodeViewList(names))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, names) {
			t.Fatalf("round trip: %q, want %q", got, names)
		}
	}
	if names, err := decodeViewList(nil); err != nil || names != nil {
		t.Fatalf("empty blob: %q, %v; want all views", names, err)
	}
	blob := EncodeViewList([]string{"a"})
	for _, bad := range [][]byte{blob[:len(blob)-1], append(bytes.Clone(blob), 0), binary.AppendUvarint(nil, 1<<32-1)} {
		if _, err := decodeViewList(bad); err == nil {
			t.Errorf("malformed view list %x accepted", bad)
		}
	}
}

// TestRestoreAbsorbRefuseInconsistentSnapshot: a snapshot whose records
// break the store's invariants — a checkpoint from disk, a handover or
// batch from a peer — is refused before it touches the store. Accepted,
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
		if err := st.Restore(tc.snap); err == nil {
			t.Errorf("%s: Restore accepted it", tc.name)
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

// TestHandoverRoundTrip: a handover taken from one manager, sent through
// the snapshot codec and absorbed by a fresh one leaves the target with
// exactly the source's metadata and the moved view's record — and the
// source without the view.
func TestHandoverRoundTrip(t *testing.T) {
	h := newLaneHarness(t, Options{})
	eps := map[string]property.Set{"g0": property.MustSet("P={0..4}"), "g1": property.MustSet("P={5..9}")}
	for name, props := range eps {
		ep := h.register(name, props.String())
		for i := 0; i < 3; i++ {
			if _, err := lanePush(ep, name, map[string]string{name + ":k": string(rune('a' + i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	src := h.dm.CaptureSince(0)

	hand, err := h.dm.TakeHandover([]string{"g1"})
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSnapshot(EncodeSnapshot(hand))
	if err != nil {
		t.Fatal(err)
	}
	target, err := New("dm2", newLaneKV(), vclock.NewSim(), h.net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	if err := target.AbsorbHandover(back); err != nil {
		t.Fatal(err)
	}

	want := &Snapshot{Version: src.Version, Shadow: src.Shadow, Log: src.Log}
	for _, v := range src.Views {
		if v.Name == "g1" {
			want.Views = append(want.Views, v)
		}
	}
	if got := target.CaptureSince(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("target after handover:\n got %+v\nwant %+v", got, want)
	}
	if views := h.dm.CaptureSince(0).Views; len(views) != 1 || views[0].Name != "g0" {
		t.Fatalf("source still holds %+v, want only g0", views)
	}
	if err := target.CheckInvariants(); err != nil {
		t.Fatal(err)
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
		// And it passes check: a store restores it and stays consistent.
		st := NewStore(newMapStore(), vclock.NewSim())
		if err := st.Restore(snap); err != nil {
			t.Fatalf("Restore refused a decoded snapshot: %v", err)
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("restored snapshot breaks the store: %v", err)
		}
	})
}
