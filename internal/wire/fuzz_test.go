package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"flecc/internal/image"
	"flecc/internal/property"
)

// seedCorpus returns one encoded message per protocol Type (plus a few
// interesting shapes: empty, image-bearing, blob-bearing, truncated,
// version-corrupted, a reserved type, and a real v3 encoding), seeding
// both FuzzDecode and the deterministic no-panic sweep.
func seedCorpus() [][]byte {
	img := image.New()
	img.Put(image.Entry{Key: "f/100", Value: []byte("seats=3"), Version: 2, Writer: "a1"})
	img.Version = 2

	perType := []*Message{
		{Type: TRegister, From: "a1", View: "a1", Mode: Strong,
			Props: property.MustSet("Flights={100..102}"),
			Trig:  Triggers{Push: "t > 5", Pull: "every(10)", Validity: "staleness < 3"}},
		{Type: TUnregister, From: "a1"},
		{Type: TInit, From: "a1"},
		{Type: TPull, From: "a1", Since: 7, Op: OpRead},
		{Type: TPush, From: "a1", Img: img, Ops: 4},
		{Type: TAcquire, From: "a1", Op: OpWrite},
		{Type: TRelease, From: "a1"},
		{Type: TSetMode, From: "a1", Mode: Weak},
		{Type: TSetProps, From: "a1", Props: property.MustSet("Seats=[0,400]")},
		{Type: TInvalidate, View: "a2"},
		{Type: TUpdate, View: "a2", Img: img, Version: 9},
		{Type: TAck, Seq: 3, From: "dm", Version: 9},
		{Type: TImage, Seq: 4, From: "dm", Img: img, Version: 2},
		{Type: TErr, Seq: 5, From: "dm", Err: "view not registered"},
		{Type: TRouted, View: "a1", Blob: Encode(&Message{Type: TPull, From: "a1"})},
		{Type: THello, From: "a1"},
		{Type: THelloAck, Seq: 1, From: "dm"},
		{Type: TReplicate, From: "dm!s0", Blob: []byte{4, 5, 6}},
		{Type: TReplAck, Seq: 2, From: "dm!s0r", Version: 11},
	}
	var seeds [][]byte
	for _, m := range perType {
		seeds = append(seeds, Encode(m))
	}
	// A second TUpdate seed: it keeps the later seeds' numbers
	// (FuzzDecode/seed#N) where they were.
	seeds = append(seeds, Encode(&Message{Type: TUpdate, View: "a2", Img: img, Version: 9}))
	// Degenerate shapes.
	full := Encode(sampleMessage())
	v3, err := hex.DecodeString(v3Ack)
	if err != nil {
		panic(err)
	}
	seeds = append(seeds,
		// Types no message may carry: refused.
		Encode(&Message{Type: Type(16), Blob: []byte("a1\x00a2")}),
		Encode(&Message{Type: Type(17), Blob: []byte{1, 2, 3}}),
		v3, // fixed-width fields and u32 lengths
		nil,
		[]byte{codecVersion},
		full[:len(full)/2],              // truncated mid-message
		append([]byte{99}, full[1:]...), // bad codec version
		append([]byte{2}, full[1:]...),  // v2: images still carried a property set
		append(bytes.Clone(full), 0xFF), // trailing garbage
		bytes.Repeat([]byte{codecVersion}, 64),
	)
	// Image keys that repeat or run backwards: refused.
	for _, frame := range unsortedImageFrames() {
		seeds = append(seeds, frame)
	}
	return seeds
}

// FuzzDecode asserts Decode never panics on arbitrary input, that a
// message it accepts has a sendable type, that an image it accepts has
// strictly increasing keys, that any input it accepts re-encodes and
// re-decodes stably (decode∘encode is an identity on the decoded form), and that a FrameReader — which interns
// node names through its name table — decodes it to the same message, the
// second time (names now in the table) as well as the first.
func FuzzDecode(f *testing.F) {
	for _, seed := range seedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		if !m.Type.sendable() {
			t.Fatalf("accepted a message of type %s, which no message may carry", m.Type)
		}
		if m.Img != nil {
			for i := 1; i < m.Img.Len(); i++ {
				if m.Img.Entries[i-1].Key >= m.Img.Entries[i].Key {
					t.Fatalf("accepted an image whose keys do not strictly increase: %q then %q", m.Img.Entries[i-1].Key, m.Img.Entries[i].Key)
				}
			}
		}
		b := Encode(m)
		m2, err := Decode(b)
		if err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if !messagesEqual(m, m2) {
			t.Fatal("decode∘encode is not stable")
		}
		framed := binary.LittleEndian.AppendUint32(nil, uint32(len(data)))
		framed = append(framed, data...)
		fr := NewFrameReader(bytes.NewReader(append(bytes.Clone(framed), framed...)))
		for i := 0; i < 2; i++ {
			got, err := fr.Read()
			if err != nil {
				t.Fatalf("FrameReader read %d rejected what Decode accepted: %v", i, err)
			}
			if !messagesEqual(m, got) {
				t.Fatalf("FrameReader read %d decoded differently from Decode", i)
			}
		}
	})
}

func TestDecodeSeedCorpusNoPanic(t *testing.T) {
	for _, seed := range seedCorpus() {
		_, _ = Decode(seed) // must not panic
	}
}
