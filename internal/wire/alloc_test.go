package wire

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/vclock"
)

func allocTestMessage(entries int) *Message {
	img := image.New(property.MustSet("Flights={100..139}"))
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
// With the pooled scratch buffer, Encode allocates the returned slice plus
// the image's Keys slice — not a chain of buffer growths proportional to
// message size, and no rendering of the image's property set, which is not
// sent. The bounds are the measured counts plus two; a failure here means
// someone dropped the pool or added a per-entry allocation.
func TestCodecEncodeAllocs(t *testing.T) {
	m := allocTestMessage(40)
	// Warm the pool so the measurement sees steady state.
	for i := 0; i < 4; i++ {
		Encode(m)
	}
	got := testing.AllocsPerRun(100, func() { Encode(m) })
	// Result copy (1) + one Keys() slice (1).
	const maxEncode = 4
	if got > maxEncode {
		t.Errorf("Encode allocs/op = %.1f, want <= %d", got, maxEncode)
	}

	got = testing.AllocsPerRun(100, func() {
		if err := WriteFrame(io.Discard, m); err != nil {
			t.Fatal(err)
		}
	})
	// WriteFrame reuses the pooled buffer outright: no result copy.
	const maxFrameAllocs = 3
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
// table buy: the write side is alloc-free for small messages, and the read
// side allocates only the decoded Message (plus its non-name strings and
// entries) — never the payload buffer, the length header, or a node name
// it has read before.
func TestRoundTripAllocs(t *testing.T) {
	cases := []struct {
		name string
		m    *Message
		max  float64
	}{
		// Decode of a tiny ack allocates the Message and nothing else: its
		// From is interned. WriteFrame is alloc-free.
		{"small-ack", &Message{Type: TAck, Seq: 7, From: "dm", Version: 9}, 1},
		// A keyed-image push pays for the decoded image: per entry a key,
		// a value copy and the map insert — nothing for the interned
		// writer, and nothing for a property set, which images no longer
		// carry (21 measured).
		{"keyed-push", allocTestMessage(8), 23},
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
