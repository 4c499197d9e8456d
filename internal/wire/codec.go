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

// The binary format is little-endian. Counts, string and byte-slice
// lengths, versions and other small integers are unsigned LEB128 varints
// (uvarints) in their shortest form; fixed-width integers remain for the
// frame's u32 length prefix and for fields whose values are not small. A
// message is a header (version, Type, Seq, From, View) and a body whose
// first uvarint is a presence bitmap: a body field costs bytes only when
// it is set. A message on a stream is framed by a u32 length.

const (
	// maxFrame bounds a single framed message (16 MiB) as a defense
	// against corrupted length prefixes.
	maxFrame = 16 << 20
	// codecVersion is bumped on incompatible format changes.
	// v2 appended the Blob payload (routed/migration traffic); v3 dropped
	// the property set from images (an image is its version and entries);
	// v4 made lengths, counts and versions uvarints and sends a body field
	// only when its presence bit is set; v5 added the Grant bit, which a v4
	// decoder refuses as unknown.
	codecVersion = 5
)

// Presence bits of a message body, in the order the set fields follow the
// bitmap. The fields a reserve loop's frames carry sit in the low seven
// bits, so their bitmap is one byte.
const (
	hasVersion = 1 << iota
	hasSince
	hasOps
	hasOp
	hasImg
	hasMode
	hasBlob
	hasProps
	hasPush
	hasPull
	hasValidity
	hasErr
	// hasGrant carries Message.Grant in the bit alone: no body bytes.
	hasGrant

	knownFields = 1<<iota - 1
)

// Encoder is the append-only writer behind every encoding in this
// package. Encoders are pooled: GetEncoder hands out a recycled scratch
// buffer, PutEncoder returns it. Other packages that put their own records
// on the wire (the directory manager's replication batches and snapshots)
// build them from the same primitives, so there is one binary dialect.
type Encoder struct {
	buf []byte
}

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

// Uvarint appends v as an unsigned LEB128 varint: one byte below 128.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Count appends a sequence's element count (see Decoder.Count).
func (e *Encoder) Count(n int) { e.Uvarint(uint64(n)) }

// Str appends a uvarint-length-prefixed string.
func (e *Encoder) Str(s string) {
	e.Count(len(s))
	e.buf = append(e.buf, s...)
}

// Bytes appends a uvarint-length-prefixed byte slice.
func (e *Encoder) Bytes(b []byte) {
	e.Count(len(b))
	e.buf = append(e.buf, b...)
}

// Encoded returns the encoded bytes in the encoder's own buffer: valid
// until the encoder is written to again or goes back to the pool. A
// caller that must keep them takes Copy instead.
func (e *Encoder) Encoded() []byte { return e.buf }

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
	buf []byte
	off int
	err error
	t   *Tables // interns names and keys, caches scopes, when set
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

// Fail latches err as the decoding error unless one is already latched:
// a record decoder's own validity checks stop the decode like a short read.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
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

// Uvarint reads an unsigned LEB128 varint. Only the shortest encoding of
// a value is accepted: an overlong form (a trailing zero byte) and one
// that overflows 64 bits are errors, so every value has one encoding.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	switch {
	case n == 0:
		d.fail("uvarint")
		return 0
	case n < 0 || (n > 1 && d.buf[d.off+n-1] == 0):
		d.Fail(fmt.Errorf("wire: malformed uvarint at offset %d", d.off))
		return 0
	}
	d.off += n
	return v
}

// Count reads a uvarint element count for a sequence whose elements
// occupy at least minSize (≥ 1) encoded bytes each, and fails when the
// input that remains cannot hold that many — so a caller may size a slice
// by the result without trusting the declared number.
func (d *Decoder) Count(minSize int) int { return d.length("count", minSize) }

func (d *Decoder) length(what string, minSize int) int {
	n := d.Uvarint()
	if d.err != nil || n > uint64(d.Remaining()/minSize) {
		d.fail(what)
		return 0
	}
	return int(n)
}

// Str reads a uvarint-length-prefixed string.
func (d *Decoder) Str() string {
	n := d.length("string", 1)
	if d.err != nil {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// Name reads a node name (From, View, an entry's or a record's writer):
// a Str interned through the decoder's name table when it has Tables.
func (d *Decoder) Name() string {
	if d.t == nil {
		return d.Str()
	}
	return d.interned(d.t.names)
}

// Key reads an image or shadow key: a Str interned through the decoder's
// key table when it has Tables.
func (d *Decoder) Key() string {
	if d.t == nil {
		return d.Str()
	}
	return d.interned(d.t.keys)
}

// interned reads a string through table t.
func (d *Decoder) interned(t map[string]string) string {
	n := d.length("string", 1)
	if d.err != nil || n == 0 {
		return ""
	}
	s := intern(t, d.buf[d.off:d.off+n])
	d.off += n
	return s
}

// skip passes over a uvarint-length-prefixed string or byte slice.
func (d *Decoder) skip() {
	d.off += d.length("string", 1)
}

// Bytes reads a uvarint-length-prefixed byte slice (nil when empty).
func (d *Decoder) Bytes() []byte {
	v := d.span()
	if v == nil {
		return nil
	}
	b := make([]byte, len(v))
	copy(b, v)
	return b
}

// span reads a uvarint-length-prefixed byte slice as a subslice of the
// input (nil when empty): the caller copies it before the input goes.
func (d *Decoder) span() []byte {
	n := d.length("bytes", 1)
	if d.err != nil || n == 0 {
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
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
	e.body(m)
}

// header serializes the codec version and the per-link fields (Type,
// Seq, From, View). seq and from stand in for m's own, so EncodeFrame
// stamps a link's sequence number and sender without copying m.
func (e *Encoder) header(m *Message, seq uint64, from string) {
	e.U8(codecVersion)
	e.U8(uint8(m.Type))
	e.Uvarint(seq)
	e.Str(from)
	e.Str(m.View)
}

// presence returns the bitmap of m's set body fields: non-zero numbers,
// non-empty strings, sets and blobs, a non-nil image and a grant.
func presence(m *Message) uint64 {
	var bits uint64
	set := func(bit uint64, ok bool) {
		if ok {
			bits |= bit
		}
	}
	set(hasVersion, m.Version != 0)
	set(hasSince, m.Since != 0)
	set(hasOps, m.Ops != 0)
	set(hasOp, m.Op != 0)
	set(hasImg, m.Img != nil)
	set(hasMode, m.Mode != 0)
	set(hasBlob, len(m.Blob) != 0)
	set(hasProps, !m.Props.IsEmpty())
	set(hasPush, m.Trig.Push != "")
	set(hasPull, m.Trig.Pull != "")
	set(hasValidity, m.Trig.Validity != "")
	set(hasErr, m.Err != "")
	set(hasGrant, m.Grant)
	return bits
}

// body serializes everything after the header: the presence bitmap,
// then each set field in bit order.
func (e *Encoder) body(m *Message) {
	bits := presence(m)
	e.Uvarint(bits)
	if bits&hasVersion != 0 {
		e.Uvarint(uint64(m.Version))
	}
	if bits&hasSince != 0 {
		e.Uvarint(uint64(m.Since))
	}
	if bits&hasOps != 0 {
		e.Uvarint(uint64(m.Ops))
	}
	if bits&hasOp != 0 {
		e.U8(uint8(m.Op))
	}
	if bits&hasImg != 0 {
		e.ImageEntries(m.Img)
	}
	if bits&hasMode != 0 {
		e.U8(uint8(m.Mode))
	}
	if bits&hasBlob != 0 {
		e.Bytes(m.Blob)
	}
	if bits&hasProps != 0 {
		// The textual form round-trips exactly (see the property package
		// tests). Only registration messages set it.
		e.Str(m.Props.String())
	}
	if bits&hasPush != 0 {
		e.Str(m.Trig.Push)
	}
	if bits&hasPull != 0 {
		e.Str(m.Trig.Pull)
	}
	if bits&hasValidity != 0 {
		e.Str(m.Trig.Validity)
	}
	if bits&hasErr != 0 {
		e.Str(m.Err)
	}
}

// ImageEntries appends an image's version and entries, in the image's key
// order: the whole of an image, on a message or in a replication batch.
func (e *Encoder) ImageEntries(im *image.Image) {
	e.Uvarint(uint64(im.Version))
	e.Count(im.Len())
	for _, ent := range im.Entries {
		e.Str(ent.Key)
		e.Bytes(ent.Value)
		e.Uvarint(uint64(ent.Version))
		e.Str(ent.Writer)
		e.Bool(ent.Deleted)
	}
}

// PropSet appends a property set in binary form: the properties in name
// order, each as name, kind, and either the interval bounds (IEEE-754
// bits) or the sorted discrete members. Unlike the textual form Message
// carries, decoding it runs no parser. It only reads the set, so it
// allocates nothing.
func (e *Encoder) PropSet(s property.Set) {
	e.Count(s.Len())
	s.Each(func(p property.Property) {
		e.Str(p.Name)
		e.U8(uint8(p.Domain.Kind()))
		switch p.Domain.Kind() {
		case property.KindInterval:
			lo, hi := p.Domain.Bounds()
			e.U64(math.Float64bits(lo))
			e.U64(math.Float64bits(hi))
		case property.KindDiscrete:
			n := p.Domain.Size()
			e.Count(n)
			for i := 0; i < n; i++ {
				e.Str(p.Domain.Member(i))
			}
		}
	})
}

// Decode parses a message produced by Encode.
func Decode(b []byte) (*Message, error) { return decode(b, nil) }

// decode is Decode through tables t (nil: none). A message and its image
// are one allocation: the header is read first, so the presence bits say
// which of the two shapes to allocate.
func decode(b []byte, t *Tables) (*Message, error) {
	d := &Decoder{buf: b, t: t}
	ver := d.U8()
	if d.err == nil && ver != codecVersion {
		return nil, fmt.Errorf("wire: unsupported codec version %d", ver)
	}
	typ := Type(d.U8())
	if d.err == nil && !typ.sendable() {
		return nil, fmt.Errorf("wire: unknown message type %d", uint8(typ))
	}
	seq := d.Uvarint()
	from := d.Name()
	view := d.Name()
	bits := d.Uvarint()
	if bits&^knownFields != 0 {
		return nil, fmt.Errorf("wire: unknown presence bits %#x", bits&^knownFields)
	}
	var m *Message
	if bits&hasImg != 0 {
		s := &struct {
			Message
			img image.Image
		}{}
		s.Img = &s.img
		m = &s.Message
	} else {
		m = NewMessage()
	}
	m.Type, m.Seq, m.From, m.View = typ, seq, from, view
	if bits&hasVersion != 0 {
		m.Version = vclock.Version(d.Uvarint())
	}
	if bits&hasSince != 0 {
		m.Since = vclock.Version(d.Uvarint())
	}
	if bits&hasOps != 0 {
		ops := d.Uvarint()
		if ops > math.MaxUint32 {
			return nil, fmt.Errorf("wire: ops count %d exceeds 32 bits", ops)
		}
		m.Ops = uint32(ops)
	}
	if bits&hasOp != 0 {
		m.Op = OpClass(d.U8())
	}
	if bits&hasImg != 0 && d.err == nil {
		if err := d.ImageEntries(m.Img); err != nil {
			return nil, err
		}
	}
	if bits&hasMode != 0 {
		m.Mode = Mode(d.U8())
	}
	if bits&hasBlob != 0 {
		m.Blob = d.Bytes()
	}
	if bits&hasProps != 0 {
		txt := d.Str()
		if d.err == nil {
			props, err := property.ParseSet(txt)
			if err != nil {
				return nil, fmt.Errorf("wire: bad props payload: %w", err)
			}
			m.Props = props
		}
	}
	if bits&hasPush != 0 {
		m.Trig.Push = d.Str()
	}
	if bits&hasPull != 0 {
		m.Trig.Pull = d.Str()
	}
	if bits&hasValidity != 0 {
		m.Trig.Validity = d.Str()
	}
	if bits&hasErr != 0 {
		m.Err = d.Str()
	}
	m.Grant = bits&hasGrant != 0
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("wire: %d trailing bytes after message", len(b)-d.off)
	}
	return m, nil
}

// messages pools the messages that carry no image of their own:
// NewMessage and the decoder take them from it, marked, and Recycle puts
// them back. A decoded message with an image is one object with it and is
// left to the collector.
var messages = sync.Pool{New: func() any { return new(Message) }}

// NewMessage returns a zero message from the pool. Whoever holds it last
// hands it back with Recycle: a transport once it has encoded it as a
// handler's reply, a caller once Call has returned it.
func NewMessage() *Message {
	m := messages.Get().(*Message)
	m.pooled = true
	return m
}

// Recycle returns a pooled message once nothing reads it any more: a
// decoded request after its handler has returned, a reply after its
// caller has read it, a NewMessage once it is encoded. It zeroes the
// message first, so whoever kept it reads a zero message. Recycle takes
// only what the pool made: a struct literal, a package-level shared
// reply, and a decoded message that carries an image are left alone, and
// so is a message already recycled, until the pool hands it out again.
// A value copy of a pooled message (r := *m) carries the mark but not the
// pool's memory: it never goes to Recycle.
func Recycle(m *Message) {
	if m == nil || !m.pooled {
		return
	}
	*m = Message{}
	messages.Put(m)
}

// imageEntryMin is the smallest encoded image entry: three empty
// length-prefixed fields, a one-byte version and the tombstone flag.
const imageEntryMin = 5

// ImageEntries reads what Encoder.ImageEntries wrote into im. The keys
// must strictly increase: an unsorted or repeated key fails the decode
// instead of yielding an image that is not one. Keys and writers go
// through the decoder's tables when it has them (a FrameReader's).
//
// The values of an image that decodes share one owned buffer, sized
// exactly: each is a capacity-clipped subslice of it, so appending to one
// value reallocates it instead of reaching its neighbour, and none
// aliases the input. After an error they may still point into the input.
func (d *Decoder) ImageEntries(im *image.Image) error {
	im.Version = vclock.Version(d.Uvarint())
	n := d.Count(imageEntryMin)
	if n > 0 {
		im.Entries = make([]image.Entry, 0, n)
	}
	total := 0
	for i := 0; i < n; i++ {
		var ent image.Entry
		ent.Key = d.Key()
		ent.Value = d.span()
		ent.Version = vclock.Version(d.Uvarint())
		ent.Writer = d.Name()
		ent.Deleted = d.Bool()
		if d.err != nil {
			break
		}
		if i > 0 && ent.Key <= im.Entries[i-1].Key {
			d.Fail(fmt.Errorf("wire: image key %q not after %q", ent.Key, im.Entries[i-1].Key))
			break
		}
		total += len(ent.Value)
		im.Entries = append(im.Entries, ent)
	}
	if d.err != nil || total == 0 {
		return d.err
	}
	// The values still point into the input: move them into one copy.
	own := make([]byte, 0, total)
	for i := range im.Entries {
		v := &im.Entries[i].Value
		if *v != nil {
			j := len(own)
			own = append(own, *v...)
			*v = own[j:len(own):len(own)]
		}
	}
	return nil
}

// PropSet reads what Encoder.PropSet wrote. A property with no name, an
// empty domain (inverted or NaN bounds, no members) or an unknown kind is
// an error, not a silently shorter set. Through Tables, a set whose bytes
// decoded validly before comes back from the scope table: the bytes are
// measured without allocating, looked up, and decoded only on a miss.
func (d *Decoder) PropSet() property.Set {
	if d.t == nil {
		return d.propSet()
	}
	start, err := d.off, d.err
	d.skipPropSet()
	if d.err == nil {
		if s, ok := d.t.scopes[string(d.buf[start:d.off])]; ok {
			return s
		}
	}
	// Rewind and decode: a malformed run fails there, with the error an
	// uncached decode reports.
	d.off, d.err = start, err
	s := d.propSet()
	if run := d.buf[start:d.off]; d.err == nil && fits(len(d.t.scopes), len(run), maxScopeLen) {
		if d.t.scopes == nil {
			d.t.scopes = map[string]property.Set{}
		}
		d.t.scopes[string(run)] = s
	}
	return s
}

// propSet decodes a binary property set.
func (d *Decoder) propSet() property.Set {
	n := d.Count(1 + 1)
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
			members := make([]string, d.Count(1))
			for j := range members {
				members[j] = d.Str()
			}
			dom = property.Discrete(members...)
		}
		if d.err == nil && (name == "" || dom.IsEmpty()) {
			d.Fail(fmt.Errorf("wire: bad property %q in binary set at offset %d", name, d.off))
		}
		props = append(props, property.New(name, dom))
	}
	return property.NewSet(props...)
}

// skipPropSet passes over a binary property set, allocating nothing. It
// checks only what it needs to find the set's end; propSet does the rest.
func (d *Decoder) skipPropSet() {
	n := d.Count(1 + 1)
	for i := 0; i < n && d.err == nil; i++ {
		d.skip()
		switch property.Kind(d.U8()) {
		case property.KindInterval:
			d.U64()
			d.U64()
		case property.KindDiscrete:
			for j := d.Count(1); j > 0 && d.err == nil; j-- {
				d.skip()
			}
		default:
			d.fail("property kind")
		}
	}
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
	payload, err := ReadPayload(r, nil, int(n))
	if err != nil {
		return nil, err
	}
	return Decode(payload)
}
