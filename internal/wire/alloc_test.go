package wire

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"flecc/internal/image"
	"flecc/internal/vclock"
)

func allocTestMessage(entries int) *Message {
	img := image.New()
	for i := 0; i < entries; i++ {
		img.Put(image.Entry{
			Key:     fmt.Sprintf("flight/%03d", i),
			Value:   []byte("NYC|SFO|200|57|19900"),
			Version: vclock.Version(i),
			Writer:  "agent-042",
		})
	}
	img.Version = vclock.Version(entries)
	return &Message{
		Type: TPush, Seq: 42, From: "agent-042", View: "agent-042",
		Ops: 7, Img: img,
	}
}

// TestCodecEncodeAllocs pins the allocation budget of the encode hot path.
// With the pooled scratch buffer, Encode allocates the returned slice and
// nothing else — not a chain of buffer growths proportional to message
// size, nothing for the image's key order, which the image already keeps,
// and no rendering of a property set, which images do not carry. The
// bounds are the measured counts plus one, which -race takes (its pool
// drops objects at random); a failure here means someone dropped the
// pool or added a per-entry allocation.
func TestCodecEncodeAllocs(t *testing.T) {
	m := allocTestMessage(40)
	// Warm the pool so the measurement sees steady state.
	for i := 0; i < 4; i++ {
		Encode(m)
	}
	got := testing.AllocsPerRun(100, func() { Encode(m) })
	// Result copy (1).
	const maxEncode = 2
	if got > maxEncode {
		t.Errorf("Encode allocs/op = %.1f, want <= %d", got, maxEncode)
	}

	got = testing.AllocsPerRun(100, func() {
		if err := WriteFrame(io.Discard, m); err != nil {
			t.Fatal(err)
		}
	})
	// WriteFrame reuses the pooled buffer outright: no result copy (0).
	const maxFrameAllocs = 1
	if got > maxFrameAllocs {
		t.Errorf("WriteFrame allocs/op = %.1f, want <= %d", got, maxFrameAllocs)
	}
}

// repeatFrames serves the same pre-framed bytes forever, so a steady-state
// read loop can be measured without re-writing frames inside the run.
type repeatFrames struct {
	b   []byte
	off int
}

func (r *repeatFrames) Read(p []byte) (int, error) {
	if r.off == len(r.b) {
		r.off = 0
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

// TestRoundTripAllocs pins the steady-state allocation budget of a full
// WriteFrame + FrameReader.Read round trip — the per-message cost of the
// buffered wire path. The ceilings are what pooling and the reader's name
// and key tables buy: the write side is alloc-free for small messages, and
// the read side allocates only the decoded Message with its image, the
// entry slice and one copy of the values — never the payload buffer, the
// length header, or a node name or key it has read before. Measured at
// the ceilings, under -race too.
func TestRoundTripAllocs(t *testing.T) {
	cases := []struct {
		name string
		m    *Message
		max  float64
	}{
		// Decode of a tiny ack allocates the Message and nothing else: its
		// From is interned. WriteFrame is alloc-free.
		{"small-ack", &Message{Type: TAck, Seq: 7, From: "dm", Version: 9}, 1},
		// A one-entry push, the reserve loop's: the Message and its image
		// (one object), the entry slice and the value.
		{"one-entry-push", allocTestMessage(1), 3},
		// A keyed-image push pays no more than a one-entry one: the
		// Message and its image are one object, the entry slice is sized
		// from the declared count, the values are one copy, the key and
		// the writer are interned, images carry no property set, and the
		// write side walks the image in its own key order.
		{"keyed-push", allocTestMessage(8), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, tc.m); err != nil {
				t.Fatal(err)
			}
			fr := NewFrameReader(&repeatFrames{b: buf.Bytes()})
			// Warm the pool and the reader scratch.
			for i := 0; i < 8; i++ {
				if err := WriteFrame(io.Discard, tc.m); err != nil {
					t.Fatal(err)
				}
				if _, err := fr.Read(); err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(200, func() {
				if err := WriteFrame(io.Discard, tc.m); err != nil {
					t.Fatal(err)
				}
				if _, err := fr.Read(); err != nil {
					t.Fatal(err)
				}
			})
			if got > tc.max {
				t.Errorf("round-trip allocs/op = %.1f, want <= %.0f", got, tc.max)
			}
		})
	}
}

// TestDecodedValuesOneCopy: a decoded image's values are one owned copy
// of the frame's bytes, so decoding an 8-entry image costs as many
// allocations as decoding a 1-entry one (the message with its image, the
// entry slice and the values, keys and writers interned). Each value is
// clipped to its own length: appending to one never reaches the next, and
// none reads the frame's bytes once it is decoded.
func TestDecodedValuesOneCopy(t *testing.T) {
	decoded := func(entries int) (*Message, float64) {
		m := allocTestMessage(entries)
		f, err := EncodeFrame(m, m.Seq, m.From)
		if err != nil {
			t.Fatal(err)
		}
		tables := NewTables()
		got, err := f.Decode(tables) // warms the tables
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := f.Decode(tables); err != nil {
				t.Fatal(err)
			}
		})
		for i := range f.Bytes() {
			f.Bytes()[i] = 0xff
		}
		f.Release()
		if !messagesEqual(m, got) {
			t.Fatalf("%d-entry image reads the frame's bytes after decoding", entries)
		}
		return got, allocs
	}
	_, one := decoded(1)
	got, eight := decoded(8)
	if eight != one {
		t.Errorf("decoding 8 entries: %v allocs, 1 entry: %v; want the same", eight, one)
	}
	ents := got.Img.Entries
	next := bytes.Clone(ents[1].Value)
	for i, e := range ents {
		if cap(e.Value) != len(e.Value) {
			t.Fatalf("value %d: cap %d past its length %d", i, cap(e.Value), len(e.Value))
		}
	}
	_ = append(ents[0].Value, "overrun"...)
	if !bytes.Equal(ents[1].Value, next) {
		t.Errorf("appending to value 0 rewrote value 1: %q, want %q", ents[1].Value, next)
	}
}
