package wire

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"flecc/internal/image"
	"flecc/internal/property"
)

// Preencode must be invisible on the wire: a message with Pre attached
// encodes byte-identically to the same message without it, for every
// generated shape. This is what lets a fan-out round share one body across
// targets without perturbing figure byte counts.
func TestPreencodeBytesIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for i := 0; i < 300; i++ {
		m := genMessage(r)
		plain := Encode(m)
		m.Pre = Preencode(m)
		pre := Encode(m)
		if !bytes.Equal(plain, pre) {
			t.Fatalf("message %d: Pre-attached encoding differs (%d vs %d bytes)", i, len(plain), len(pre))
		}
	}
}

// The per-link header really is per-link: two targets sharing one Pre but
// differing in Seq/From/View must decode to their own header fields and a
// common body.
func TestPreencodeSharedAcrossTargets(t *testing.T) {
	base := sampleMessage()
	base.Pre = Preencode(base)
	for _, target := range []string{"agent-1", "agent-2", "agent-3"} {
		m := *base // shallow clone shares Img and Pre
		m.View = target
		m.Seq = uint64(len(target))
		got, err := Decode(Encode(&m))
		if err != nil {
			t.Fatalf("target %s: %v", target, err)
		}
		if got.View != target || got.Seq != m.Seq {
			t.Fatalf("target %s: header fields lost (view=%q seq=%d)", target, got.View, got.Seq)
		}
		want := *base
		want.View = target
		want.Seq = m.Seq
		if !messagesEqual(&want, got) {
			t.Fatalf("target %s: body mismatch", target)
		}
	}
}

// EncodeFrame output must be byte-identical to WriteFrame for the same
// message, with and without an attached Pre, across the inline and
// segmented (large-body) paths.
func TestEncodeFrameMatchesWriteFrame(t *testing.T) {
	big := allocTestMessage(600) // body comfortably over inlineBody
	if Preencode(big).BodyLen() <= inlineBody {
		t.Fatal("test message too small to exercise the segmented path")
	}
	msgs := []*Message{
		{Type: TAck, Seq: 1, From: "dm"},
		sampleMessage(),
		big,
	}
	for i, m := range msgs {
		for _, withPre := range []bool{false, true} {
			mm := *m
			if withPre {
				mm.Pre = Preencode(&mm)
			}
			var want bytes.Buffer
			if err := WriteFrame(&want, &mm); err != nil {
				t.Fatal(err)
			}
			f, err := EncodeFrame(&mm, mm.Seq, mm.From)
			if err != nil {
				t.Fatal(err)
			}
			if f.Len() != want.Len() {
				t.Fatalf("msg %d pre=%v: Len = %d, want %d", i, withPre, f.Len(), want.Len())
			}
			var gotW bytes.Buffer
			if _, err := f.WriteTo(&gotW); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotW.Bytes(), want.Bytes()) {
				t.Fatalf("msg %d pre=%v: WriteTo bytes differ", i, withPre)
			}
			var gotS []byte
			for _, seg := range f.Segments() {
				gotS = append(gotS, seg...)
			}
			if !bytes.Equal(gotS, want.Bytes()) {
				t.Fatalf("msg %d pre=%v: Segments bytes differ", i, withPre)
			}
			f.Release()
		}
	}
}

// A large pre-encoded body is referenced, not copied: the frame carries two
// segments and the second aliases the Frame's bytes.
func TestEncodeFrameSegmentsLargeBody(t *testing.T) {
	m := allocTestMessage(600)
	m.Pre = Preencode(m)
	f, err := EncodeFrame(m, m.Seq, m.From)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	segs := f.Segments()
	if len(segs) != 2 {
		t.Fatalf("want 2 segments for a large shared body, got %d", len(segs))
	}
	if &segs[1][0] != &m.Pre.body[0] {
		t.Fatal("large body should be referenced, not copied")
	}
}

func TestEncodeFrameTooLarge(t *testing.T) {
	val := strings.Repeat("x", maxFrame/4)
	img := image.New(property.MustSet("A={1..8}"))
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		img.Put(image.Entry{Key: k, Value: []byte(val), Version: 1, Writer: "w"})
	}
	m := &Message{Type: TPush, Img: img}
	if _, err := EncodeFrame(m, m.Seq, m.From); err == nil {
		t.Fatal("oversized frame should fail to encode")
	}
}

// FrameReader must read back-to-back frames off a stream identically to
// ReadFrame, including across its internal buffer boundary and for frames
// larger than the buffer.
func TestFrameReaderStream(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	var msgs []*Message
	var buf bytes.Buffer
	for i := 0; i < 200; i++ {
		m := genMessage(r)
		msgs = append(msgs, m)
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	big := allocTestMessage(3000) // frame well over frameReaderBuf
	msgs = append(msgs, big)
	if err := WriteFrame(&buf, big); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(iotest{r: &buf})
	for i, want := range msgs {
		got, err := fr.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !messagesEqual(want, got) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, err := fr.Read(); err != io.EOF {
		t.Fatalf("want EOF past the end, got %v", err)
	}
}

// iotest dribbles reads in small odd-sized chunks so frames straddle read
// boundaries.
type iotest struct{ r io.Reader }

func (d iotest) Read(p []byte) (int, error) {
	if len(p) > 7 {
		p = p[:7]
	}
	return d.r.Read(p)
}

func TestFrameReaderLimits(t *testing.T) {
	fr := NewFrameReader(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF}))
	if _, err := fr.Read(); err == nil {
		t.Fatal("oversized frame should fail")
	}
}

// Decoded messages must not alias the reader's scratch: reading the next
// frame cannot mutate the previous message — its byte slices, its plain
// strings, or the node names the reader interned. The renamed frames share
// one layout, so the second read overwrites the very bytes each name of
// the first was read from.
func TestFrameReaderNoAliasing(t *testing.T) {
	renamed := func(name string) *Message {
		m := allocTestMessage(10)
		m.From, m.View = name, name
		for k, e := range m.Img.Entries {
			e.Writer = name
			m.Img.Entries[k] = e
		}
		return m
	}
	msgs := []*Message{sampleMessage(), allocTestMessage(10), renamed("agent-111"), renamed("agent-222"), renamed("agent-111")}
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	var got []*Message
	for range msgs {
		m, err := fr.Read() // each read overwrites the scratch
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	for i, want := range msgs {
		if !messagesEqual(want, got[i]) {
			t.Fatalf("message %d corrupted by a later read", i)
		}
	}
	if len(fr.names) == 0 {
		t.Fatal("no node name went through the name table")
	}
}

// The name table stays at its cap however many distinct names a stream
// carries, and every frame still decodes to its own names; names the table
// holds come back as the table's string, not a fresh copy.
func TestFrameReaderInternBounded(t *testing.T) {
	const n = 10000
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		m := &Message{Type: TAck, Seq: uint64(i), From: fmt.Sprintf("node-%05d", i), View: "dm"}
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	long := strings.Repeat("n", maxNameLen+1)
	if err := WriteFrame(&buf, &Message{Type: TAck, From: long}); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf)
	for i := 0; i < n; i++ {
		m, err := fr.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if want := fmt.Sprintf("node-%05d", i); m.From != want || m.View != "dm" || m.Seq != uint64(i) {
			t.Fatalf("frame %d decoded as From=%q View=%q Seq=%d", i, m.From, m.View, m.Seq)
		}
		if held, ok := fr.names[m.From]; ok && unsafe.StringData(held) != unsafe.StringData(m.From) {
			t.Fatalf("frame %d: %q is in the table but came back as a fresh copy", i, m.From)
		}
	}
	if m, err := fr.Read(); err != nil || m.From != long {
		t.Fatalf("long name: %v", err)
	}
	if got := len(fr.names); got != maxNames {
		t.Fatalf("name table holds %d names, want its cap %d", got, maxNames)
	}
	if _, ok := fr.names[long]; ok {
		t.Fatal("a name over maxNameLen was interned")
	}
}
