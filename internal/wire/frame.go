package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// This file is the coalesced wire path: pre-encoded shareable bodies for
// encode-once fan-out (Frame / Preencode), socket-ready framed encodings
// that can reference a shared body without copying it (EncodedFrame), and
// a buffered frame reader with a reusable payload scratch (FrameReader).
//
// The byte format is unchanged: a frame is still a u32 length prefix
// followed by header (codec version, Type, Seq, From, View) and body
// (everything else), and header||body is byte-identical to the pre-split
// single-buffer encoding, so old and new peers interoperate and figure
// byte counts stay stable.

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

// BodyLen returns the encoded body size in bytes.
func (f *Frame) BodyLen() int { return len(f.body) }

// inlineBody bounds the pre-encoded body size that EncodeFrame copies
// into the header buffer: below it a memcpy is cheaper than carrying a
// second writev segment through the write path.
const inlineBody = 4 << 10

// EncodedFrame is one message framed for a byte stream: a pooled buffer
// holding the length prefix and header, plus (for large pre-encoded
// bodies) a reference to the shared body bytes. It is produced by
// EncodeFrame and must be released exactly once after the bytes have been
// written (or abandoned) — the write queue takes ownership on enqueue.
type EncodedFrame struct {
	enc  *Encoder // pooled; enc.buf = length prefix + header [+ body]
	body []byte   // shared pre-encoded body, nil when inlined in enc.buf
}

// EncodeFrame serializes m into a socket-ready frame. When m carries a
// large pre-encoded body the frame references it instead of copying, so a
// fan-out round's body bytes are serialized once and shared by every
// target's frame.
func EncodeFrame(m *Message) (*EncodedFrame, error) {
	e := GetEncoder()
	e.U32(0) // length prefix, patched below
	e.header(m)
	f := &EncodedFrame{enc: e}
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

// Release returns the frame's pooled header buffer. The frame (and any
// Segments slices taken from it) must not be used afterwards.
func (f *EncodedFrame) Release() {
	if f.enc != nil {
		PutEncoder(f.enc)
		f.enc = nil
	}
	f.body = nil
}

// frameReaderBuf is the FrameReader's stream buffer size: large enough
// that a burst of small frames (the group-commit write path batches them)
// costs one read syscall, small enough to be cheap per connection.
const frameReaderBuf = 32 << 10

// FrameReader reads length-prefixed messages from a byte stream through
// a buffered reader and a reusable payload scratch, so a steady state of
// small frames costs amortized read syscalls and no per-frame payload
// allocation. Decode copies every string and byte slice it returns, so
// reusing the scratch across frames is safe. Not safe for concurrent use.
type FrameReader struct {
	br      *bufio.Reader
	scratch []byte
}

// NewFrameReader wraps r for buffered frame reads.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, frameReaderBuf)}
}

// Buffered reports how many stream bytes are already buffered: non-zero
// means the next Read will not block on the underlying reader. The
// transport read loop uses it to hold reply flushes while a request
// burst is still draining (cork), so pipelined replies batch.
func (fr *FrameReader) Buffered() int { return fr.br.Buffered() }

// Read reads and decodes the next frame.
func (fr *FrameReader) Read() (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.br, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > maxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	payload := fr.payload(n)
	if _, err := io.ReadFull(fr.br, payload); err != nil {
		return nil, err
	}
	return Decode(payload)
}

// payload returns an n-byte buffer, reusing the scratch when it fits. An
// occasional huge frame gets a one-off allocation instead of pinning a
// huge scratch for the connection's lifetime.
func (fr *FrameReader) payload(n int) []byte {
	if n > maxPooledBuf {
		return make([]byte, n)
	}
	if cap(fr.scratch) < n {
		fr.scratch = make([]byte, n)
	}
	return fr.scratch[:n]
}
