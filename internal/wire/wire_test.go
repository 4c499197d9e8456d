package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/vclock"
)

func sampleImage() *image.Image {
	im := image.New()
	im.Version = 7
	im.Put(image.Entry{Key: "f/100", Value: []byte("seats=42"), Version: 5, Writer: "agent-1"})
	im.Put(image.Entry{Key: "f/101", Value: nil, Version: 6, Writer: "agent-2", Deleted: true})
	return im
}

func sampleMessage() *Message {
	return &Message{
		Type:    TRegister,
		Seq:     42,
		From:    "agent-1",
		View:    "agent-1",
		Mode:    Strong,
		Op:      OpRead,
		Since:   3,
		Version: 9,
		Props:   property.MustSet("Flights={100..102}; Seats=[0,400]"),
		Trig:    Triggers{Push: "(t > 1500)", Pull: "every(500)", Validity: "t > 0"},
		Img:     sampleImage(),
		Blob:    []byte{0xde, 0xad, 0xbe, 0xef},
		Err:     "",
	}
}

// messagesEqual reports whether decoded message b carries everything the
// codec transmits of a. An image travels as its version and entries.
func messagesEqual(a, b *Message) bool {
	if a.Type != b.Type || a.Seq != b.Seq || a.From != b.From || a.View != b.View ||
		a.Mode != b.Mode || a.Op != b.Op || a.Since != b.Since || a.Version != b.Version ||
		a.Ops != b.Ops || a.Trig != b.Trig || a.Err != b.Err || !bytes.Equal(a.Blob, b.Blob) {
		return false
	}
	if !a.Props.Equal(b.Props) {
		return false
	}
	if (a.Img == nil) != (b.Img == nil) {
		return false
	}
	if a.Img != nil {
		if a.Img.Version != b.Img.Version || !slices.EqualFunc(a.Img.Entries, b.Img.Entries, image.Entry.Equal) {
			return false
		}
		// Entry metadata must survive too.
		for i, e := range a.Img.Entries {
			oe := b.Img.Entries[i]
			if e.Version != oe.Version || e.Writer != oe.Writer {
				return false
			}
		}
	}
	return true
}

func TestRoundTripFull(t *testing.T) {
	m := sampleMessage()
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if !messagesEqual(m, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", m, got)
	}
}

func TestRoundTripMinimal(t *testing.T) {
	m := &Message{Type: TAck, Seq: 1, From: "dm"}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if !messagesEqual(m, got) {
		t.Fatalf("minimal round trip mismatch: %+v vs %+v", m, got)
	}
	if got.Img != nil {
		t.Fatal("nil image should stay nil")
	}
	if !got.Props.IsEmpty() {
		t.Fatal("empty props should stay empty")
	}
}

// A message and its image decode as one object, but only a message that
// carries an image has one: an ack's Img stays nil, and an image with no
// entries comes back as an empty image, not as none — through Decode and
// through a FrameReader alike.
func TestDecodeImagePresence(t *testing.T) {
	for _, tc := range []struct {
		m    *Message
		want bool // Img non-nil
	}{
		{&Message{Type: TAck, Seq: 7, From: "dm", Version: 9}, false},
		{&Message{Type: TImage, Seq: 8, From: "dm", Version: 9, Img: image.New()}, true},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, tc.m); err != nil {
			t.Fatal(err)
		}
		viaReader, err := NewFrameReader(bytes.NewReader(buf.Bytes())).Read()
		if err != nil {
			t.Fatal(err)
		}
		viaDecode, err := Decode(Encode(tc.m))
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []*Message{viaDecode, viaReader} {
			if (got.Img != nil) != tc.want || got.Img != nil && (got.Img.Len() != 0 || got.Img.Entries != nil) {
				t.Errorf("%s decoded with image %+v, want an image: %t, and no entries", tc.m.Type, got.Img, tc.want)
			}
			if !messagesEqual(tc.m, got) {
				t.Errorf("%s decoded as %v, want %v", tc.m.Type, got, tc.m)
			}
		}
	}
}

func TestRoundTripError(t *testing.T) {
	m := &Message{Type: TErr, Seq: 2, From: "dm", Err: "view not registered"}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Err != m.Err {
		t.Fatalf("err = %q", got.Err)
	}
	rerr := ErrorOf(got)
	if rerr == nil || !strings.Contains(rerr.Error(), "view not registered") {
		t.Fatalf("ErrorOf = %v", rerr)
	}
	if ErrorOf(&Message{Type: TAck}) != nil {
		t.Fatal("ErrorOf(ack) should be nil")
	}
}

func TestFraming(t *testing.T) {
	var buf bytes.Buffer
	msgs := []*Message{
		sampleMessage(),
		{Type: TPull, Seq: 2, From: "a", Since: 5},
		{Type: TAck, Seq: 2, From: "dm", Version: 8},
	}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !messagesEqual(want, got) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("reading past the end should fail")
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := Encode(sampleMessage())
	for cut := 0; cut < len(full); cut++ {
		if _, err := Decode(full[:cut]); err == nil {
			t.Fatalf("Decode of %d/%d bytes should fail", cut, len(full))
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	b := append(Encode(sampleMessage()), 0xFF)
	if _, err := Decode(b); err == nil {
		t.Fatal("trailing bytes should fail")
	}
}

func TestDecodeBadVersion(t *testing.T) {
	b := Encode(sampleMessage())
	b[0] = 99
	if _, err := Decode(b); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
}

// TestDecodeRefusesV2: a v2 frame — whose images still carried a property
// set — is refused outright rather than misread as v3.
func TestDecodeRefusesV2(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, sampleMessage()); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	frame[4] = 2 // the version byte follows the u32 length prefix
	if _, err := Decode(frame[4:]); err == nil || !strings.Contains(err.Error(), "unsupported codec version 2") {
		t.Fatalf("Decode of a v2 message: want the version error, got %v", err)
	}
	if _, err := NewFrameReader(bytes.NewReader(frame)).Read(); err == nil || !strings.Contains(err.Error(), "unsupported codec version 2") {
		t.Fatalf("FrameReader on a v2 frame: want the version error, got %v", err)
	}
}

// v3Ack is a v3 encoding of TAck{Seq: 1001, From: "dm", Version: 4244},
// as the last v3 codec wrote it: fixed-width Seq, Since, Version and Ops,
// u32 length prefixes and presence bytes for every field.
const v3Ack = "030ce90300000000000002000000646d000000000000000000000000000094100000000000000000000000000000000000000000000000000000000000000000"

// TestDecodeRefusesV4: a v4 frame is refused at the version byte, not at
// the first granted reply, whose presence bit a v4 decoder does not know.
// A v4 ack is a v5 ack under another version byte.
func TestDecodeRefusesV4(t *testing.T) {
	msg := Encode(&Message{Type: TAck, Seq: 1, From: "dm", Version: 9})
	msg[0] = 4
	if _, err := Decode(msg); err == nil || !strings.Contains(err.Error(), "unsupported codec version 4") {
		t.Fatalf("Decode of a v4 message: want the version error, got %v", err)
	}
	frame := append(binary.LittleEndian.AppendUint32(nil, uint32(len(msg))), msg...)
	if _, err := NewFrameReader(bytes.NewReader(frame)).Read(); err == nil || !strings.Contains(err.Error(), "unsupported codec version 4") {
		t.Fatalf("FrameReader on a v4 frame: want the version error, got %v", err)
	}
}

// TestDecodeRefusesV3: a v3 frame — fixed-width fields and u32 lengths —
// is refused outright rather than misread as v4.
func TestDecodeRefusesV3(t *testing.T) {
	msg, err := hex.DecodeString(v3Ack)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(msg); err == nil || !strings.Contains(err.Error(), "unsupported codec version 3") {
		t.Fatalf("Decode of a v3 message: want the version error, got %v", err)
	}
	frame := append(binary.LittleEndian.AppendUint32(nil, uint32(len(msg))), msg...)
	if _, err := NewFrameReader(bytes.NewReader(frame)).Read(); err == nil || !strings.Contains(err.Error(), "unsupported codec version 3") {
		t.Fatalf("FrameReader on a v3 frame: want the version error, got %v", err)
	}
	if _, err := ReadFrame(bytes.NewReader(frame)); err == nil || !strings.Contains(err.Error(), "unsupported codec version 3") {
		t.Fatalf("ReadFrame on a v3 frame: want the version error, got %v", err)
	}
}

// TestDecodeRefusesUnnamedTypes: a type byte without a name — TInvalid,
// the reserved numbers 16 and 17 live shard migration once used, and
// anything past the last type — is refused on every decode path, and
// every named type round-trips.
func TestDecodeRefusesUnnamedTypes(t *testing.T) {
	for _, typ := range []Type{TInvalid, 16, 17, TReplAck + 1, 255} {
		msg := Encode(&Message{Type: typ, From: "x"})
		if _, err := Decode(msg); err == nil || !strings.Contains(err.Error(), "unknown message type") {
			t.Errorf("Decode of type %d: want the type error, got %v", typ, err)
		}
		frame := append(binary.LittleEndian.AppendUint32(nil, uint32(len(msg))), msg...)
		if _, err := NewFrameReader(bytes.NewReader(frame)).Read(); err == nil {
			t.Errorf("FrameReader accepted type %d", typ)
		}
	}
	named := 0
	for i, name := range typeNames {
		typ := Type(i)
		if typ == TInvalid || name == "" {
			continue
		}
		named++
		got, err := Decode(Encode(&Message{Type: typ, From: "x"}))
		if err != nil || got.Type != typ {
			t.Errorf("type %s: round trip gave %v, %v", typ, got, err)
		}
	}
	if named != 19 {
		t.Errorf("%d named types round-tripped, want 19", named)
	}
}

// TestMessageSizes pins the framed size (u32 prefix included) of the
// frames a reserve loop and a clean weak-mode fetch exchange, with fixed
// names and Seq. A body field costs bytes only when it is set, so a new
// field that costs every message bytes fails here. The v3 sizes of the
// same frames were 74, 140, 146, 68, 76 and 86 bytes.
func TestMessageSizes(t *testing.T) {
	entry := func(writer string, version vclock.Version) *image.Image {
		im := image.New()
		im.Version = version
		im.Put(image.Entry{Key: "flight/0107", Value: []byte("NYC|SFO|200|57|19900"), Version: version, Writer: writer})
		return im
	}
	for _, tc := range []struct {
		name string
		m    *Message
		want int
	}{
		// The reserve loop: pull, its 1-entry image reply, the 1-entry
		// push, and the ack carrying the new version.
		{"pull", &Message{Type: TPull, Seq: 1000, From: "agent-07", Since: 4242}, 21},
		{"image-reply", &Message{Type: TImage, Seq: 1000, From: "dm", Version: 4243, Img: entry("agent-03", 4243)}, 63},
		{"push", &Message{Type: TPush, Seq: 1001, From: "agent-07", Ops: 1, Img: entry("agent-07", 0)}, 66},
		{"ack", &Message{Type: TAck, Seq: 1001, From: "dm", Version: 4244}, 15},
		// The steady state once the view's pull names the ack it folded:
		// the reply leaves that push out, so it is empty.
		{"pull naming an ack", &Message{Type: TPull, Seq: 1002, From: "agent-07", Since: 4243, Version: 4244}, 23},
		{"empty image reply", &Message{Type: TImage, Seq: 1002, From: "dm", Version: 4244, Img: &image.Image{Version: 4244}}, 18},
		// A granting reply: the Grant bit is past the bitmap's first
		// byte, so it costs one byte, and no field follows it.
		{"granting reply", &Message{Type: TImage, Seq: 1002, From: "dm", Version: 4244, Img: &image.Image{Version: 4244}, Grant: true}, 19},
		// A clean sharer's fetch: the directory's pull and the empty image
		// it gets back.
		{"fetch", &Message{Type: TPull, Seq: 77, From: "dm", View: "agent-07"}, 20},
		{"fetch-reply", &Message{Type: TImage, Seq: 77, From: "agent-07", Img: image.New()}, 20},
	} {
		f, err := EncodeFrame(tc.m, tc.m.Seq, tc.m.From)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Len(); got != tc.want {
			t.Errorf("%s: %d bytes framed, want %d", tc.name, got, tc.want)
		}
		f.Release()
	}
}

// TestDecodeRejectsMalformedVarints: each malformed shape is an error,
// raised without a panic, from Decode and from a FrameReader alike.
func TestDecodeRejectsMalformedVarints(t *testing.T) {
	// head is an ack's header: version, Type, Seq 1, From "dm", View "".
	head := []byte{codecVersion, byte(TAck), 1, 2, 'd', 'm', 0}
	with := func(parts ...[]byte) []byte { return bytes.Join(append([][]byte{head}, parts...), nil) }
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	elevenBytes := append(bytes.Repeat([]byte{0x80}, 10), 0x01)
	for _, tc := range []struct {
		name, want string
		b          []byte
	}{
		{"unknown presence bit", "unknown presence bits", with(uv(knownFields + 1))},
		{"11-byte uvarint", "malformed uvarint", with(uv(hasSince), elevenBytes)},
		{"11-byte Seq", "malformed uvarint", append([]byte{codecVersion, byte(TAck)}, elevenBytes...)},
		{"overflowing uvarint", "malformed uvarint", with(uv(hasVersion), bytes.Repeat([]byte{0xFF}, 9), []byte{0x02})},
		{"overlong uvarint", "malformed uvarint", with(uv(hasVersion), []byte{0x81, 0x00})},
		{"ops of 2^32", "ops count", with(uv(hasOps), uv(1<<32))},
		{"string length past the end", "truncated", with(uv(hasErr), uv(200), []byte("abc"))},
		{"From length past the end", "truncated", []byte{codecVersion, byte(TAck), 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 'd'}},
		{"entry count past the end", "truncated", with(uv(hasImg), uv(1), uv(1<<31))},
	} {
		if _, err := Decode(tc.b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Decode error %v, want one containing %q", tc.name, err, tc.want)
		}
		frame := append(binary.LittleEndian.AppendUint32(nil, uint32(len(tc.b))), tc.b...)
		if _, err := NewFrameReader(bytes.NewReader(frame)).Read(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: FrameReader error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// The shapes above are malformed only in the varint under test: with
	// it well-formed, the same message decodes.
	if _, err := Decode(with(uv(hasOps), uv(1<<32-1))); err != nil {
		t.Fatalf("ops of 2^32-1: %v", err)
	}
}

func TestDecodeBadProps(t *testing.T) {
	m := &Message{Type: TRegister, From: "x", Props: property.MustSet("A={1}")}
	b := Encode(m)
	// Corrupt the props text: find "A={1}" and break it.
	b = bytes.Replace(b, []byte("A={1}"), []byte("A=!!!"), 1)
	if _, err := Decode(b); err == nil {
		t.Fatal("bad props payload should fail")
	}
}

func TestReadFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB frame
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("oversized frame should fail")
	}
}

func TestTypeAndModeStrings(t *testing.T) {
	if TPull.String() != "pull" || TInvalidate.String() != "invalidate" {
		t.Fatal("type names wrong")
	}
	if Type(200).String() == "" {
		t.Fatal("unknown type should still render")
	}
	if Strong.String() != "strong" || Weak.String() != "weak" {
		t.Fatal("mode names wrong")
	}
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Fatal("op names wrong")
	}
}

func TestMessageString(t *testing.T) {
	s := sampleMessage().String()
	for _, want := range []string{"register", "seq=42", "agent-1", "img(v7,2)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestIsReply(t *testing.T) {
	for _, typ := range []Type{TAck, TImage, TErr, TReplAck} {
		if !(&Message{Type: typ}).IsReply() {
			t.Fatalf("%v should be a reply", typ)
		}
	}
	for _, typ := range []Type{TRegister, TPull, TInvalidate, TReplicate} {
		if (&Message{Type: typ}).IsReply() {
			t.Fatalf("%v should not be a reply", typ)
		}
	}
}

func genMessage(r *rand.Rand) *Message {
	m := &Message{
		Type:    Type(1 + r.Intn(13)),
		Seq:     r.Uint64(),
		From:    randWord(r),
		View:    randWord(r),
		Mode:    Mode(r.Intn(2)),
		Op:      OpClass(r.Intn(2)),
		Since:   vclock.Version(r.Uint64() % 1000),
		Version: vclock.Version(r.Uint64() % 1000),
		Ops:     uint32(r.Intn(100)),
		Err:     randWord(r),
	}
	if r.Intn(2) == 0 {
		m.Trig = Triggers{Push: "t > 5", Pull: "every(10)", Validity: ""}
	}
	if r.Intn(3) == 0 {
		m.Blob = []byte(randWord(r))
	}
	if r.Intn(2) == 0 {
		m.Props = property.NewSet(property.New("P", property.DiscreteInts(r.Intn(10), r.Intn(10)+10)))
	}
	if r.Intn(2) == 0 {
		im := image.New()
		for i := r.Intn(4); i > 0; i-- {
			im.Put(image.Entry{
				Key:     randWord(r),
				Value:   []byte(randWord(r)),
				Version: vclock.Version(r.Intn(100)),
				Writer:  randWord(r),
				Deleted: r.Intn(4) == 0,
			})
		}
		im.Version = vclock.Version(r.Intn(100))
		m.Img = im
	}
	return m
}

func randWord(r *rand.Rand) string {
	n := r.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func TestQuickRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	f := func() bool {
		m := genMessage(r)
		got, err := Decode(Encode(m))
		if err != nil {
			return false
		}
		return messagesEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Encoding is deterministic: identical messages produce identical bytes
// (required for reproducible experiment byte counts).
func TestQuickEncodeDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	f := func() bool {
		m := genMessage(r)
		return bytes.Equal(Encode(m), Encode(m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeFuzzNoPanic(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	for i := 0; i < 2000; i++ {
		n := r.Intn(200)
		b := make([]byte, n)
		r.Read(b)
		if n > 0 {
			b[0] = codecVersion // get past the version gate sometimes
		}
		_, _ = Decode(b) // must not panic
	}
}

// unsortedImageFrames returns push frames whose image keys repeat or run
// backwards, built by renaming a key in a valid frame ("k2" → "k1", "k1" →
// "k3"), as no Image can hold them.
func unsortedImageFrames() map[string][]byte {
	img := image.New()
	img.Put(image.Entry{Key: "k1", Value: []byte("x")})
	img.Put(image.Entry{Key: "k2", Value: []byte("y")})
	good := Encode(&Message{Type: TPush, Img: img})
	return map[string][]byte{
		"repeated":  bytes.Replace(good, []byte("k2"), []byte("k1"), 1),
		"backwards": bytes.Replace(good, []byte("k1"), []byte("k3"), 1),
	}
}

// TestDecodeRejectsUnsortedImage: an image's keys travel in strictly
// increasing order. A frame whose keys repeat or run backwards is refused,
// instead of decoding to fewer entries than it declares (a repeat) or to
// an image that is not sorted. Messages, replication batches and
// snapshots all read images through Decoder.ImageEntries.
func TestDecodeRejectsUnsortedImage(t *testing.T) {
	for name, frame := range unsortedImageFrames() {
		m, err := Decode(frame)
		if err == nil {
			t.Fatalf("%s keys: decoded to %v, want a refusal", name, m.Img.Entries)
		}
		if !strings.Contains(err.Error(), "not after") {
			t.Errorf("%s keys: error %q does not name the key order", name, err)
		}
	}
}

func TestEntryMetadataOrderIndependent(t *testing.T) {
	// An image keeps its entries in key order, so logically equal images
	// encode identically regardless of insertion order.
	a := image.New()
	a.Put(image.Entry{Key: "b", Value: []byte("2")})
	a.Put(image.Entry{Key: "a", Value: []byte("1")})
	b := image.New()
	b.Put(image.Entry{Key: "a", Value: []byte("1")})
	b.Put(image.Entry{Key: "b", Value: []byte("2")})
	ma := Encode(&Message{Type: TPush, Img: a})
	mb := Encode(&Message{Type: TPush, Img: b})
	if !reflect.DeepEqual(ma, mb) {
		t.Fatal("encoding should be insertion-order independent")
	}
}

// TestPropSetBinaryRoundTrip: the binary property-set form (used by
// records other packages build from the Encoder primitives) round-trips
// every domain kind, and refuses what it cannot represent.
func TestPropSetBinaryRoundTrip(t *testing.T) {
	for _, src := range []string{
		"", "Flights={100..139}", "Seats=[0,400]", "Class={economy,first}; Seats=[-1.5,2.25]; Flights={7}",
	} {
		want := property.MustSet(src)
		e := GetEncoder()
		e.PropSet(want)
		d := NewDecoder(e.Copy())
		PutEncoder(e)
		got := d.PropSet()
		if d.Err() != nil || d.Remaining() != 0 {
			t.Fatalf("%q: err %v, %d bytes left", src, d.Err(), d.Remaining())
		}
		if !got.Equal(want) {
			t.Fatalf("%q round-tripped to %q", src, got)
		}
	}
	e := GetEncoder()
	defer PutEncoder(e)
	for name, build := range map[string]func(){
		"unknown kind": func() { e.Count(1); e.Str("P"); e.U8(9) },
		"inverted interval": func() {
			e.Count(1)
			e.Str("P")
			e.U8(uint8(property.KindInterval))
			e.U64(math.Float64bits(2))
			e.U64(math.Float64bits(1))
		},
		"no members":      func() { e.Count(1); e.Str("P"); e.U8(uint8(property.KindDiscrete)); e.Count(0) },
		"no name":         func() { e.Count(1); e.Str(""); e.U8(uint8(property.KindDiscrete)); e.Count(1); e.Str("x") },
		"oversized count": func() { e.Count(1 << 30) },
	} {
		e.buf = e.buf[:0]
		build()
		d := NewDecoder(e.Copy())
		if d.PropSet(); d.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
