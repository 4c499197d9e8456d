package directory

import (
	"bytes"
	"reflect"
	"testing"

	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/wire"
)

// seededTables returns stream tables warmed by decoding every fuzz seed.
func seededTables() *wire.Tables {
	tb := wire.NewTables()
	for _, seed := range replSeeds() {
		_, _ = decodeReplBatch(tb.NewDecoder(seed), new(batchBuf))
	}
	return tb
}

// checkTablesAgree decodes data through fresh tables, through the same
// tables again (now holding what data put there) and through tables
// warmed by the fuzz seeds, and fails unless each gives the batch or the
// error the uncached decode gave (b, err).
func checkTablesAgree(t *testing.T, data []byte, b *ReplBatch, err error) {
	t.Helper()
	fresh := wire.NewTables()
	for i, tb := range []*wire.Tables{fresh, fresh, seededTables()} {
		got, gotErr := decodeReplBatch(tb.NewDecoder(data), new(batchBuf))
		switch {
		case (err == nil) != (gotErr == nil):
			t.Fatalf("decode %d through tables: error %v, uncached %v", i, gotErr, err)
		case err != nil && gotErr.Error() != err.Error():
			t.Fatalf("decode %d through tables: error %q, uncached %q", i, gotErr, err)
		case err == nil && !reflect.DeepEqual(got, b):
			t.Fatalf("decode %d through tables diverged:\n got %+v\nwant %+v", i, got, b)
		}
	}
}

// TestStreamTablesTruncationsAgree: every prefix of a batch, and every
// one-byte corruption of it, decodes through stream tables to exactly
// what the uncached decode gives — the same batch or the same error — so
// a short read latched before a scope stays latched when the scope
// lookup rewinds.
func TestStreamTablesTruncationsAgree(t *testing.T) {
	full := EncodeReplBatch(sampleBatch())
	for n := 0; n <= len(full); n++ {
		b, err := DecodeReplBatch(full[:n])
		checkTablesAgree(t, full[:n], b, err)
	}
	for i := range full {
		for _, c := range []byte{0x00, 0x01, 0x7F, 0xFF} {
			data := bytes.Clone(full)
			data[i] = c
			b, err := DecodeReplBatch(data)
			checkTablesAgree(t, data, b, err)
		}
	}
}

// TestStreamTablesNoAliasing: a batch decoded through stream tables owns
// everything it holds. Overwriting its blob and decoding another batch
// through the same tables leaves its names, keys and scopes as they were.
func TestStreamTablesNoAliasing(t *testing.T) {
	tb := wire.NewTables()
	if _, err := decodeReplBatch(tb.NewDecoder(EncodeReplBatch(sampleBatch())), new(batchBuf)); err != nil {
		t.Fatal(err)
	}
	// Half the batch repeats what the tables hold, half is new to them.
	src := sampleBatch()
	src.Snap.Log = append(src.Snap.Log, UpdateRec{Version: 9, Writer: "v7", Props: property.MustSet("Flights={200..203}"), Ops: 1})
	src.Snap.Log[1].Version = 8
	src.Snap.Log[0].Version = 7
	src.Snap.Shadow = append(src.Snap.Shadow, ShadowRec{Key: "f/200", Version: 9, Writer: "v7"})
	src.Img.Put(image.Entry{Key: "f/200", Value: []byte("seats=1"), Version: 9, Writer: "v7"})
	src.Touches = append(src.Touches, ViewTouch{Name: "v7", Seen: 9, Phase: PhaseActive})
	blob := EncodeReplBatch(src)
	got, err := decodeReplBatch(tb.NewDecoder(blob), new(batchBuf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, src) {
		t.Fatalf("decoded batch diverged:\n got %+v\nwant %+v", got, src)
	}
	for i := range blob {
		blob[i] = 'X'
	}
	other := sampleBatch()
	other.Snap.Log[0].Props = property.MustSet("Flights={300}")
	other.Snap.Shadow[0].Key = "f/300"
	if _, err := decodeReplBatch(tb.NewDecoder(EncodeReplBatch(other)), new(batchBuf)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, src) {
		t.Fatalf("overwriting the blob and decoding another batch changed the first:\n got %+v\nwant %+v", got, src)
	}
}
