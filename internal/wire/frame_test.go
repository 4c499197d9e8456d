package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"flecc/internal/image"
)

// EncodeFrame output must be byte-identical to WriteFrame for the same
// message, from a bare ack to a body far larger than the pooled buffer.
func TestEncodeFrameMatchesWriteFrame(t *testing.T) {
	msgs := []*Message{
		{Type: TAck, Seq: 1, From: "dm"},
		sampleMessage(),
		allocTestMessage(600),
	}
	for i, m := range msgs {
		var want bytes.Buffer
		if err := WriteFrame(&want, m); err != nil {
			t.Fatal(err)
		}
		f, err := EncodeFrame(m, m.Seq, m.From)
		if err != nil {
			t.Fatal(err)
		}
		if f.Len() != want.Len() {
			t.Fatalf("msg %d: Len = %d, want %d", i, f.Len(), want.Len())
		}
		if !bytes.Equal(f.Bytes(), want.Bytes()) {
			t.Fatalf("msg %d: Bytes differ from WriteFrame", i)
		}
		f.Release()
	}
}

func TestEncodeFrameTooLarge(t *testing.T) {
	val := strings.Repeat("x", maxFrame/4)
	img := image.New()
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

// TestFrameMemoryFollowsBytes: a length prefix alone buys no memory. A
// stream that declares a maxFrame frame, sends 1 KiB of it and ends costs
// the reader what arrived (plus its fixed buffers), not the declared 16
// MiB — through the established peer's FrameReader and through the
// handshake's ReadFrame alike. A frame that does arrive whole, larger than
// the first read step, still reads back intact.
func TestFrameMemoryFollowsBytes(t *testing.T) {
	stream := binary.LittleEndian.AppendUint32(nil, maxFrame)
	stream = append(stream, make([]byte, 1<<10)...)
	for _, tc := range []struct {
		name string
		read func(io.Reader) (*Message, error)
	}{
		{"FrameReader", func(r io.Reader) (*Message, error) { return NewFrameReader(r).Read() }},
		{"ReadFrame", ReadFrame},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := tc.read(bytes.NewReader(stream))
		runtime.ReadMemStats(&after)
		if err != io.ErrUnexpectedEOF {
			t.Errorf("%s: cut frame read %v, want io.ErrUnexpectedEOF", tc.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 256<<10 {
			t.Errorf("%s: a declared %d-byte frame with 1 KiB sent allocated %d bytes", tc.name, maxFrame, grew)
		}

		big := allocTestMessage(8000) // several read steps
		var buf bytes.Buffer
		if err := WriteFrame(&buf, big); err != nil {
			t.Fatal(err)
		}
		if buf.Len() < 4*minReadStep {
			t.Fatalf("test frame of %d bytes does not span several read steps", buf.Len())
		}
		got, err := tc.read(&buf)
		if err != nil || !messagesEqual(big, got) {
			t.Errorf("%s: large frame read back wrong (%v)", tc.name, err)
		}
	}
}

// Decoded messages must not alias the reader's scratch: reading the next
// frame cannot mutate the previous message — its byte slices, its plain
// strings, or the node names and keys the reader interned. The renamed
// frames share one layout, and so do the rekeyed ones, so the second read
// overwrites the very bytes each name, key and value of the first was
// read from.
func TestFrameReaderNoAliasing(t *testing.T) {
	renamed := func(name string) *Message {
		m := allocTestMessage(10)
		m.From, m.View = name, name
		for i := range m.Img.Entries {
			m.Img.Entries[i].Writer = name
		}
		return m
	}
	rekeyed := func(leg byte) *Message {
		m := allocTestMessage(10)
		for i := range m.Img.Entries {
			e := &m.Img.Entries[i]
			e.Key = fmt.Sprintf("leg-%c/%03d", leg, i)
			e.Value = bytes.Repeat([]byte{leg}, len(e.Value))
		}
		return m
	}
	msgs := []*Message{sampleMessage(), allocTestMessage(10), renamed("agent-111"), renamed("agent-222"), renamed("agent-111"), rekeyed('a'), rekeyed('b')}
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
	// The values survive whatever the reader does with its scratch next.
	scratch := fr.scratch[:cap(fr.scratch)]
	for i := range scratch {
		scratch[i] = 0xff
	}
	for i, want := range msgs {
		if !messagesEqual(want, got[i]) {
			t.Fatalf("message %d shares memory with the reader's scratch", i)
		}
	}
	if len(fr.t.names) == 0 {
		t.Fatal("no node name went through the name table")
	}
	if _, ok := fr.t.keys["leg-a/000"]; !ok {
		t.Fatal("no key went through the key table")
	}
	if e := got[5].Img.Entries[0]; e.Key != "leg-a/000" || !bytes.Equal(e.Value, bytes.Repeat([]byte{'a'}, len(e.Value))) {
		t.Fatalf("frame A's first entry reads %q = %q after frame B reused the scratch", e.Key, e.Value)
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
		if held, ok := fr.t.names[m.From]; ok && unsafe.StringData(held) != unsafe.StringData(m.From) {
			t.Fatalf("frame %d: %q is in the table but came back as a fresh copy", i, m.From)
		}
	}
	if m, err := fr.Read(); err != nil || m.From != long {
		t.Fatalf("long name: %v", err)
	}
	if got := len(fr.t.names); got != maxEntries {
		t.Fatalf("name table holds %d names, want its cap %d", got, maxEntries)
	}
	if _, ok := fr.t.names[long]; ok {
		t.Fatal("a name over maxNameLen was interned")
	}

	// Image keys go through a table of their own with the same caps: a
	// stream of distinct keys fills it to its cap and no further, and does
	// not crowd node names out of theirs.
	buf.Reset()
	keyed := func(key string) *Message {
		img := image.New()
		img.Put(image.Entry{Key: key, Value: []byte("v"), Writer: "dm"})
		return &Message{Type: TPush, From: "dm", Img: img}
	}
	for i := 0; i < n; i++ {
		if err := WriteFrame(&buf, keyed(fmt.Sprintf("flight/%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	longKey := strings.Repeat("k", maxNameLen+1)
	for _, m := range []*Message{keyed(longKey), {Type: TAck, From: "dm"}} {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	fr = NewFrameReader(&buf)
	for i := 0; i < n; i++ {
		m, err := fr.Read()
		if err != nil {
			t.Fatalf("keyed frame %d: %v", i, err)
		}
		key := m.Img.Entries[0].Key
		if want := fmt.Sprintf("flight/%05d", i); key != want {
			t.Fatalf("keyed frame %d decoded key %q, want %q", i, key, want)
		}
		if held, ok := fr.t.keys[key]; ok && unsafe.StringData(held) != unsafe.StringData(key) {
			t.Fatalf("keyed frame %d: %q is in the table but came back as a fresh copy", i, key)
		}
	}
	if m, err := fr.Read(); err != nil || m.Img.Entries[0].Key != longKey {
		t.Fatalf("long key: %v", err)
	}
	if got := len(fr.t.keys); got != maxEntries {
		t.Fatalf("key table holds %d keys, want its cap %d", got, maxEntries)
	}
	if _, ok := fr.t.keys[longKey]; ok {
		t.Fatal("a key over maxNameLen was interned")
	}
	m, err := fr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if held, ok := fr.t.names["dm"]; !ok || unsafe.StringData(held) != unsafe.StringData(m.From) {
		t.Fatalf("after %d distinct keys a node name comes back as a fresh copy (in the name table: %t)", n, ok)
	}
}
