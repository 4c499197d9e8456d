package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// This file is the coalesced wire path: pre-encoded shareable bodies for
// encode-once fan-out (Frame / Preencode), socket-ready framed encodings
// that can reference a shared body without copying it (EncodedFrame), and
// a buffered frame reader with a reusable payload scratch (FrameReader).
//
// A frame is a u32 length prefix followed by the header (codec version,
// Type, Seq, From, View) and the body (the presence bitmap and the set
// fields). header||body is exactly what Encode produces, so a frame's
// bytes do not depend on whether its body was pre-encoded.

// Frame is a shareable pre-encoded message body — everything after the
// per-link header (Type/Seq/From/View). A directory-manager round that
// sends the same payload to N views encodes the body once with Preencode
// and stamps only the small header per target. A Frame is immutable after
// Preencode and safe to share across concurrent sends.
type Frame struct {
	body []byte
}

// Preencode serializes m's body fields once and returns the shareable
// Frame. Attach it to each per-target message via Message.Pre; the
// message's body fields must stay untouched afterwards (byte-stream
// transports trust the Frame to match them).
func Preencode(m *Message) *Frame {
	e := GetEncoder()
	e.body(m)
	body := e.Copy()
	PutEncoder(e)
	return &Frame{body: body}
}

// inlineBody bounds the pre-encoded body size that EncodeFrame copies
// into the header buffer: below it a memcpy is cheaper than carrying a
// second writev segment through the write path.
const inlineBody = 4 << 10

// EncodedFrame is one message framed for a byte stream: a buffer holding
// the length prefix and header, plus (for large pre-encoded bodies) a
// reference to the shared body bytes. Frames are pooled together with
// their buffer: EncodeFrame takes one from the pool, and Release puts it
// back, so it must be called exactly once, after the bytes have been
// written (or abandoned). The write queue takes ownership on enqueue and
// is the only caller of Release.
type EncodedFrame struct {
	enc  Encoder // length prefix + header [+ body]
	body []byte  // shared pre-encoded body, nil when inlined in enc.buf
}

// frames pools EncodedFrames together with their buffers.
var frames = sync.Pool{
	New: func() any { return &EncodedFrame{enc: Encoder{buf: make([]byte, 0, 512)}} },
}

// EncodeFrame serializes m into a socket-ready frame whose header carries
// seq and from in place of m.Seq and m.From: a transport stamps a
// caller's request this way without copying or mutating it (pass m.Seq
// and m.From to send m as it is). When m carries a large pre-encoded body
// the frame references it instead of copying, so a fan-out round's body
// bytes are serialized once and shared by every target's frame.
func EncodeFrame(m *Message, seq uint64, from string) (*EncodedFrame, error) {
	f := frames.Get().(*EncodedFrame)
	e := &f.enc
	e.buf = e.buf[:0]
	e.U32(0) // length prefix, patched below
	e.header(m, seq, from)
	switch {
	case m.Pre == nil:
		e.body(m)
	case len(m.Pre.body) <= inlineBody:
		e.buf = append(e.buf, m.Pre.body...)
	default:
		f.body = m.Pre.body
	}
	payload := len(e.buf) - 4 + len(f.body)
	if payload > maxFrame {
		f.Release()
		return nil, fmt.Errorf("wire: message too large (%d bytes)", payload)
	}
	binary.LittleEndian.PutUint32(e.buf[:4], uint32(payload))
	return f, nil
}

// Len returns the total frame size in bytes (length prefix included).
func (f *EncodedFrame) Len() int { return len(f.enc.buf) + len(f.body) }

// Segments returns the frame's byte segments in write order: one segment
// for a self-contained frame, two when a large shared body rides behind
// the header. The segments alias internal buffers — valid until Release.
func (f *EncodedFrame) Segments() [][]byte {
	if f.body == nil {
		return [][]byte{f.enc.buf}
	}
	return [][]byte{f.enc.buf, f.body}
}

// WriteTo writes the whole frame to w.
func (f *EncodedFrame) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(f.enc.buf)
	total := int64(n)
	if err != nil || f.body == nil {
		return total, err
	}
	n, err = w.Write(f.body)
	return total + int64(n), err
}

// Release returns the frame to the pool. The frame (and any Segments
// slices taken from it) must not be used afterwards; a second Release
// would hand one frame to two owners.
func (f *EncodedFrame) Release() {
	f.body = nil
	if cap(f.enc.buf) <= maxPooledBuf {
		frames.Put(f)
	}
}

// frameReaderBuf is the FrameReader's stream buffer size: large enough
// that a burst of small frames (the group-commit write path batches them)
// costs one read syscall, small enough to be cheap per connection.
const frameReaderBuf = 32 << 10

// FrameReader reads length-prefixed messages from a byte stream through
// a buffered reader and a reusable payload scratch, so a steady state of
// small frames costs amortized read syscalls and no per-frame payload
// allocation. Decoding copies every byte slice and string it returns out
// of the scratch, so reusing the scratch across frames is safe. Node-name
// fields (From, View, an image entry's Writer) go through the reader's
// name table: a name seen before comes back as the same string, not a
// fresh copy. Not safe for concurrent use.
type FrameReader struct {
	br      *bufio.Reader
	hdr     [4]byte // length prefix of the frame being read
	scratch []byte
	names   nameTable
}

// NewFrameReader wraps r for buffered frame reads.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, frameReaderBuf), names: nameTable{}}
}

// Buffered reports how many stream bytes are already buffered: non-zero
// means the next Read will not block on the underlying reader. The
// transport read loop uses it to hold reply flushes while a request
// burst is still draining (cork), so pipelined replies batch.
func (fr *FrameReader) Buffered() int { return fr.br.Buffered() }

// Read reads and decodes the next frame.
func (fr *FrameReader) Read() (*Message, error) {
	if _, err := io.ReadFull(fr.br, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(fr.hdr[:]))
	if n > maxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	payload, err := ReadPayload(fr.br, fr.scratch, n)
	if err != nil {
		return nil, err
	}
	// An occasional huge frame does not pin a huge scratch for the
	// connection's lifetime.
	if cap(payload) <= maxPooledBuf {
		fr.scratch = payload
	}
	return decode(payload, fr.names)
}

// minReadStep is the first allocation ReadPayload makes for a frame that
// does not fit its scratch.
const minReadStep = 64 << 10

// ReadPayload reads an n-byte frame payload from r into scratch, reusing
// it when n fits. A larger payload — a frame here, a sealed one in
// secure.Conn — is read in steps that double from minReadStep, so the
// memory a frame costs follows the bytes that arrive, not its prefix.
func ReadPayload(r io.Reader, scratch []byte, n int) ([]byte, error) {
	buf := scratch[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, max(2*cap(buf), minReadStep)))
			copy(grown, buf)
			buf = grown
		}
		got, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+got]
		if err == io.EOF && len(buf) > 0 {
			err = io.ErrUnexpectedEOF // the frame started, so it is cut short
		}
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Name-table bounds: a connection speaks with a handful of nodes, so a
// small table catches every name it repeats, and the caps keep hostile
// input (a stream of distinct or huge names) from growing it. Names past
// either cap are allocated per frame, as without the table.
const (
	maxNames   = 256
	maxNameLen = 128
)

// nameTable interns node names for one FrameReader. Its strings are copies,
// never views of the payload scratch.
type nameTable map[string]string

func (t nameTable) intern(b []byte) string {
	if s, ok := t[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(t) < maxNames && len(b) <= maxNameLen {
		t[s] = s
	}
	return s
}
