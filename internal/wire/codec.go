package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/vclock"
)

// The binary format is little-endian with length-prefixed strings and byte
// slices. Field presence is driven entirely by the message Type where
// possible and by explicit presence bytes for optional payloads (Props,
// Img), so the encoding stays self-describing enough for fuzzing while
// remaining compact. A message on a stream is framed by a u32 length.

const (
	// maxFrame bounds a single framed message (16 MiB) as a defense
	// against corrupted length prefixes.
	maxFrame = 16 << 20
	// codecVersion is bumped on incompatible format changes.
	// v2 appended the Blob payload (routed/migration traffic); v3 dropped
	// the property set from images (an image is its version and entries).
	codecVersion = 3
)

// Encoder is the append-only little-endian writer behind every encoding in
// this package. Encoders are pooled: GetEncoder hands out a recycled
// scratch buffer, PutEncoder returns it. Other packages that put their own
// records on the wire (the directory manager's replication batches) build
// them from the same primitives, so there is one binary dialect.
type Encoder struct{ buf []byte }

// encoders pools encode scratch buffers: the hot path (every Call on every
// transport) serializes into a recycled buffer and copies out the exact
// result, instead of growing a fresh slice per message.
var encoders = sync.Pool{
	New: func() any { return &Encoder{buf: make([]byte, 0, 512)} },
}

// maxPooledBuf caps the scratch we keep: an occasional huge image must not
// pin its buffer in the pool forever.
const maxPooledBuf = 1 << 20

// GetEncoder returns an empty pooled encoder. Release it with PutEncoder
// once the bytes have been copied out or written.
func GetEncoder() *Encoder {
	e := encoders.Get().(*Encoder)
	e.buf = e.buf[:0]
	return e
}

// PutEncoder recycles an encoder; its buffer must not be used afterwards.
func PutEncoder(e *Encoder) {
	if cap(e.buf) <= maxPooledBuf {
		encoders.Put(e)
	}
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a presence/flag byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Str appends a u32-length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes appends a u32-length-prefixed byte slice.
func (e *Encoder) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Copy returns the encoded bytes in a fresh slice the caller keeps; the
// encoder itself can go back to the pool.
func (e *Encoder) Copy() []byte {
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	return out
}

// Decoder is the bounds-checked reader matching Encoder. The first short
// read latches an error (Err) and every later read returns zero values, so
// callers decode a whole record and check once. Strings and byte slices
// are copied out of the input, and nothing is allocated before the
// declared length has been checked against the bytes that remain.
type Decoder struct {
	buf   []byte
	off   int
	err   error
	names nameTable // interns node names when set (FrameReader)
}

// NewDecoder reads from b, which it never modifies or retains past the
// values it returns.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decoding error (nil while everything fit).
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated message reading %s at offset %d", what, d.off)
	}
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail("u8")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// Bool reads a presence/flag byte.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Count reads a u32 element count for a sequence whose elements occupy at
// least minSize encoded bytes each, and fails when the input that remains
// cannot hold that many — so a caller may size a slice by the result
// without trusting the declared number.
func (d *Decoder) Count(minSize int) int { return d.length("count", minSize) }

func (d *Decoder) length(what string, minSize int) int {
	n := d.U32()
	if d.err != nil || uint64(n)*uint64(minSize) > uint64(d.Remaining()) {
		d.fail(what)
		return 0
	}
	return int(n)
}

// Str reads a u32-length-prefixed string.
func (d *Decoder) Str() string {
	n := d.length("string", 1)
	if d.err != nil {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// name reads a node name (From, View, an entry's Writer): a string
// interned through the decoder's name table when it has one.
func (d *Decoder) name() string {
	if d.names == nil {
		return d.Str()
	}
	n := d.length("string", 1)
	if d.err != nil || n == 0 {
		return ""
	}
	s := d.names.intern(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// Bytes reads a u32-length-prefixed byte slice (nil when empty).
func (d *Decoder) Bytes() []byte {
	n := d.length("bytes", 1)
	if d.err != nil || n == 0 {
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:d.off+n])
	d.off += n
	return b
}

// Encode serializes a message to a fresh byte slice (without framing).
// The result is the caller's to keep — encoding scratch is pooled
// internally.
func Encode(m *Message) []byte {
	e := GetEncoder()
	e.message(m)
	out := e.Copy()
	PutEncoder(e)
	return out
}

func (e *Encoder) message(m *Message) {
	e.header(m, m.Seq, m.From)
	if m.Pre != nil {
		e.buf = append(e.buf, m.Pre.body...)
		return
	}
	e.body(m)
}

// header serializes the per-link fields: the ones a fan-out round stamps
// freshly for every target (Type, Seq, From, View) plus the codec version.
// seq and from stand in for m's own (EncodeFrame). header followed by
// body is byte-identical to the pre-split encoding.
func (e *Encoder) header(m *Message, seq uint64, from string) {
	e.U8(codecVersion)
	e.U8(uint8(m.Type))
	e.U64(seq)
	e.Str(from)
	e.Str(m.View)
}

// body serializes everything after the header — the shareable part a
// Preencode captures once per round.
func (e *Encoder) body(m *Message) {
	e.U8(uint8(m.Mode))
	e.U8(uint8(m.Op))
	e.U64(uint64(m.Since))
	e.U64(uint64(m.Version))
	e.U32(m.Ops)
	// Props: presence + textual form (round-trips exactly; see property
	// package tests). Only registration messages set it.
	if m.Props.IsEmpty() {
		e.Bool(false)
	} else {
		e.Bool(true)
		e.Str(m.Props.String())
	}
	e.Str(m.Trig.Push)
	e.Str(m.Trig.Pull)
	e.Str(m.Trig.Validity)
	e.Bool(m.Img != nil)
	if m.Img != nil {
		e.ImageEntries(m.Img)
	}
	e.Bytes(m.Blob)
	e.Str(m.Err)
}

// ImageEntries appends an image's version and entries in key order. It is
// the whole of an image on a message: the property set stays behind, since
// the receiver scopes by the set the view registered. Records that do keep
// a set (replication batches) place it beside this in their own form.
func (e *Encoder) ImageEntries(im *image.Image) {
	e.U64(uint64(im.Version))
	e.U32(uint32(im.Len()))
	for _, k := range im.Keys() {
		ent := im.Entries[k]
		e.Str(ent.Key)
		e.Bytes(ent.Value)
		e.U64(uint64(ent.Version))
		e.Str(ent.Writer)
		e.Bool(ent.Deleted)
	}
}

// PropSet appends a property set in binary form: the properties in name
// order, each as name, kind, and either the interval bounds (IEEE-754
// bits) or the sorted discrete members. Unlike the textual form Message
// carries, decoding it runs no parser.
func (e *Encoder) PropSet(s property.Set) {
	props := s.Properties()
	e.U32(uint32(len(props)))
	for _, p := range props {
		e.Str(p.Name)
		e.U8(uint8(p.Domain.Kind()))
		switch p.Domain.Kind() {
		case property.KindInterval:
			lo, hi := p.Domain.Bounds()
			e.U64(math.Float64bits(lo))
			e.U64(math.Float64bits(hi))
		case property.KindDiscrete:
			members := p.Domain.Members()
			e.U32(uint32(len(members)))
			for _, m := range members {
				e.Str(m)
			}
		}
	}
}

// Decode parses a message produced by Encode.
func Decode(b []byte) (*Message, error) { return decode(b, nil) }

// decode is Decode with node names interned through names (nil: none).
func decode(b []byte, names nameTable) (*Message, error) {
	d := &Decoder{buf: b, names: names}
	ver := d.U8()
	if d.err == nil && ver != codecVersion {
		return nil, fmt.Errorf("wire: unsupported codec version %d", ver)
	}
	m := &Message{}
	m.Type = Type(d.U8())
	m.Seq = d.U64()
	m.From = d.name()
	m.View = d.name()
	m.Mode = Mode(d.U8())
	m.Op = OpClass(d.U8())
	m.Since = vclock.Version(d.U64())
	m.Version = vclock.Version(d.U64())
	m.Ops = d.U32()
	if d.Bool() {
		txt := d.Str()
		if d.err == nil {
			props, err := property.ParseSet(txt)
			if err != nil {
				return nil, fmt.Errorf("wire: bad props payload: %w", err)
			}
			m.Props = props
		}
	}
	m.Trig.Push = d.Str()
	m.Trig.Pull = d.Str()
	m.Trig.Validity = d.Str()
	if d.Bool() {
		m.Img = image.New(property.Set{})
		if err := d.ImageEntries(m.Img); err != nil {
			return nil, err
		}
	}
	m.Blob = d.Bytes()
	m.Err = d.Str()
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("wire: %d trailing bytes after message", len(b)-d.off)
	}
	return m, nil
}

// imageEntryMin is the smallest encoded image entry: three empty
// length-prefixed fields, a version and the tombstone flag.
const imageEntryMin = 4 + 4 + 8 + 4 + 1

// ImageEntries reads what Encoder.ImageEntries wrote into im.
func (d *Decoder) ImageEntries(im *image.Image) error {
	im.Version = vclock.Version(d.U64())
	n := d.Count(imageEntryMin)
	for i := 0; i < n; i++ {
		var ent image.Entry
		ent.Key = d.Str()
		ent.Value = d.Bytes()
		ent.Version = vclock.Version(d.U64())
		ent.Writer = d.name()
		ent.Deleted = d.Bool()
		if d.err != nil {
			break
		}
		im.Put(ent)
	}
	return d.err
}

// PropSet reads what Encoder.PropSet wrote. A property with no name, an
// empty domain (inverted or NaN bounds, no members) or an unknown kind is
// an error, not a silently shorter set.
func (d *Decoder) PropSet() property.Set {
	n := d.Count(4 + 1)
	props := make([]property.Property, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		name := d.Str()
		var dom property.Domain
		switch kind := property.Kind(d.U8()); kind {
		case property.KindInterval:
			lo := math.Float64frombits(d.U64())
			hi := math.Float64frombits(d.U64())
			dom = property.Interval(lo, hi)
		case property.KindDiscrete:
			members := make([]string, d.Count(4))
			for j := range members {
				members[j] = d.Str()
			}
			dom = property.Discrete(members...)
		}
		if d.err == nil && (name == "" || dom.IsEmpty()) {
			d.err = fmt.Errorf("wire: bad property %q in binary set at offset %d", name, d.off)
		}
		props = append(props, property.New(name, dom))
	}
	return property.NewSet(props...)
}

// WriteFrame writes one length-prefixed message to w. It encodes into a
// pooled buffer with the length prefix in place, so a frame costs one
// Write and no per-message allocation.
func WriteFrame(w io.Writer, m *Message) error {
	e := GetEncoder()
	defer PutEncoder(e)
	e.U32(0) // length prefix, patched below
	e.message(m)
	payload := len(e.buf) - 4
	if payload > maxFrame {
		return fmt.Errorf("wire: message too large (%d bytes)", payload)
	}
	binary.LittleEndian.PutUint32(e.buf[:4], uint32(payload))
	_, err := w.Write(e.buf)
	return err
}

// ReadFrame reads one length-prefixed message from r.
func ReadFrame(r io.Reader) (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return Decode(payload)
}
