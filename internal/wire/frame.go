package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// This file is the coalesced wire path: socket-ready framed encodings
// (EncodedFrame) and a buffered frame reader with a reusable payload
// scratch (FrameReader).
//
// A frame is a u32 length prefix followed by the header (codec version,
// Type, Seq, From, View) and the body (the presence bitmap and the set
// fields). header||body is exactly what Encode produces.

// EncodedFrame is one message framed for a byte stream: a buffer holding
// the length prefix, header and body. Frames are pooled together with
// their buffer: EncodeFrame takes one from the pool, and Release puts it
// back, so it must be called exactly once, after the bytes have been
// written (or abandoned). The write queue takes ownership on enqueue and
// is the only caller of Release.
type EncodedFrame struct {
	enc Encoder
}

// frames pools EncodedFrames together with their buffers.
var frames = sync.Pool{
	New: func() any { return &EncodedFrame{enc: Encoder{buf: make([]byte, 0, 512)}} },
}

// EncodeFrame serializes m into a socket-ready frame whose header carries
// seq and from in place of m.Seq and m.From: a transport stamps a
// caller's request this way without copying or mutating it (pass m.Seq
// and m.From to send m as it is).
func EncodeFrame(m *Message, seq uint64, from string) (*EncodedFrame, error) {
	f := frames.Get().(*EncodedFrame)
	e := &f.enc
	e.buf = e.buf[:0]
	e.U32(0) // length prefix, patched below
	e.header(m, seq, from)
	e.body(m)
	payload := len(e.buf) - 4
	if payload > maxFrame {
		f.Release()
		return nil, fmt.Errorf("wire: message too large (%d bytes)", payload)
	}
	binary.LittleEndian.PutUint32(e.buf[:4], uint32(payload))
	return f, nil
}

// Len returns the total frame size in bytes (length prefix included).
func (f *EncodedFrame) Len() int { return len(f.enc.buf) }

// Bytes returns the whole frame. The slice aliases the frame's buffer:
// it is valid until Release.
func (f *EncodedFrame) Bytes() []byte { return f.enc.buf }

// Release returns the frame to the pool. The frame (and any Bytes slice
// taken from it) must not be used afterwards; a second Release would
// hand one frame to two owners.
func (f *EncodedFrame) Release() {
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
// name table and image entry keys through its key table: a string seen
// before comes back as the same string, not a fresh copy. The two tables
// are apart, so a stream of distinct keys cannot crowd node names out.
// Not safe for concurrent use.
type FrameReader struct {
	br      *bufio.Reader
	hdr     [4]byte // length prefix of the frame being read
	scratch []byte
	names   nameTable
	keys    nameTable
}

// NewFrameReader wraps r for buffered frame reads.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, frameReaderBuf), names: nameTable{}, keys: nameTable{}}
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
	return decode(payload, fr.names, fr.keys)
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

// Table bounds, for node names and image keys alike: a connection speaks
// with a handful of nodes about the keys of a few views, so a small table
// catches every string it repeats, and the caps keep hostile input (a
// stream of distinct or huge strings) from growing it. Strings past
// either cap are allocated per frame, as without the table.
const (
	maxNames   = 256
	maxNameLen = 128
)

// nameTable interns node names or image keys for one FrameReader. Its
// strings are copies, never views of the payload scratch.
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
