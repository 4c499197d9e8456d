// Package secure implements the encryptor/decryptor component pair that
// PSF's planning module inserts around insecure links (paper §3.1: "the
// security requirements of [a] security-sensitive ... application can be
// satisfied by placing encryption/decryption components around insecure
// links"; §5.1: "the privacy of a transaction is ensured by deploying
// encryptor/decryptor pairs around insecure links").
//
// The pair seals byte frames with a stdlib-only authenticated stream
// construction: a SHA-256-counter keystream for confidentiality and an
// encrypt-then-MAC HMAC-SHA256 tag for integrity, with a random per-frame
// nonce. Conn wraps a net.Conn (or any io.ReadWriter) so the existing
// framed TCP transport runs unchanged over a protected link.
package secure

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"flecc/internal/wire"
)

const (
	nonceLen = 16
	macLen   = sha256.Size
	// maxFrame bounds a sealed frame (must cover the transport's frames).
	maxFrame = 17 << 20
)

// ErrTampered reports an authentication failure on Open.
var ErrTampered = errors.New("secure: frame authentication failed")

// Pair is one encryptor/decryptor component pair sharing a symmetric key.
// It is safe for concurrent use.
type Pair struct {
	encKey [32]byte // keystream key
	macKey [32]byte // HMAC key
}

// NewPair derives a pair from an arbitrary-length shared secret.
func NewPair(secret []byte) *Pair {
	p := &Pair{}
	p.encKey = sha256.Sum256(append([]byte("flecc-enc:"), secret...))
	p.macKey = sha256.Sum256(append([]byte("flecc-mac:"), secret...))
	return p
}

// keystreamXOR XORs data in place with the SHA-256 counter keystream for
// the given nonce.
func (p *Pair) keystreamXOR(nonce, data []byte) {
	var block [8]byte
	buf := make([]byte, 0, len(p.encKey)+nonceLen+8)
	for i := 0; i < len(data); i += sha256.Size {
		binary.LittleEndian.PutUint64(block[:], uint64(i/sha256.Size))
		buf = buf[:0]
		buf = append(buf, p.encKey[:]...)
		buf = append(buf, nonce...)
		buf = append(buf, block[:]...)
		ks := sha256.Sum256(buf)
		for j := 0; j < sha256.Size && i+j < len(data); j++ {
			data[i+j] ^= ks[j]
		}
	}
}

func (p *Pair) mac(nonce, ct []byte) []byte {
	h := hmac.New(sha256.New, p.macKey[:])
	h.Write(nonce)
	h.Write(ct)
	return h.Sum(nil)
}

// Seal encrypts and authenticates plaintext into an envelope:
// nonce || ciphertext || mac.
func (p *Pair) Seal(plaintext []byte) ([]byte, error) {
	env := make([]byte, nonceLen+len(plaintext)+macLen)
	nonce := env[:nonceLen]
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("secure: nonce: %w", err)
	}
	ct := env[nonceLen : nonceLen+len(plaintext)]
	copy(ct, plaintext)
	p.keystreamXOR(nonce, ct)
	copy(env[nonceLen+len(plaintext):], p.mac(nonce, ct))
	return env, nil
}

// Open authenticates and decrypts an envelope produced by Seal.
func (p *Pair) Open(env []byte) ([]byte, error) {
	if len(env) < nonceLen+macLen {
		return nil, fmt.Errorf("secure: envelope too short (%d bytes)", len(env))
	}
	nonce := env[:nonceLen]
	ct := env[nonceLen : len(env)-macLen]
	tag := env[len(env)-macLen:]
	if !hmac.Equal(tag, p.mac(nonce, ct)) {
		return nil, ErrTampered
	}
	pt := make([]byte, len(ct))
	copy(pt, ct)
	p.keystreamXOR(nonce, pt)
	return pt, nil
}

// Conn runs a byte stream through the pair: every Write becomes one sealed
// length-prefixed frame; Read returns the decrypted stream. It implements
// net.Conn when wrapping one (deadline methods delegate), so the Flecc TCP
// transport can run over it unchanged.
type Conn struct {
	inner io.ReadWriteCloser
	pair  *Pair
	// rbuf holds decrypted-but-unread bytes.
	rbuf []byte
}

// NewConn protects a stream with the pair.
func NewConn(inner io.ReadWriteCloser, pair *Pair) *Conn {
	return &Conn{inner: inner, pair: pair}
}

// Write seals p as one frame.
func (c *Conn) Write(p []byte) (int, error) {
	env, err := c.pair.Seal(p)
	if err != nil {
		return 0, err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(env)))
	if _, err := c.inner.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := c.inner.Write(env); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Read returns decrypted bytes, reading and opening whole frames as
// needed.
func (c *Conn) Read(p []byte) (int, error) {
	for len(c.rbuf) == 0 {
		var hdr [4]byte
		if _, err := io.ReadFull(c.inner, hdr[:]); err != nil {
			return 0, err
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n > maxFrame {
			return 0, fmt.Errorf("secure: frame of %d bytes exceeds limit", n)
		}
		env, err := wire.ReadPayload(c.inner, nil, int(n))
		if err != nil {
			return 0, err
		}
		pt, err := c.pair.Open(env)
		if err != nil {
			return 0, err
		}
		c.rbuf = pt
	}
	n := copy(p, c.rbuf)
	c.rbuf = c.rbuf[n:]
	return n, nil
}

// Close closes the underlying stream.
func (c *Conn) Close() error { return c.inner.Close() }

// netConn is Conn plus the net.Conn surface, for wrapping real sockets.
type netConn struct {
	*Conn
	nc net.Conn
}

func (c *netConn) LocalAddr() net.Addr                { return c.nc.LocalAddr() }
func (c *netConn) RemoteAddr() net.Addr               { return c.nc.RemoteAddr() }
func (c *netConn) SetDeadline(t time.Time) error      { return c.nc.SetDeadline(t) }
func (c *netConn) SetReadDeadline(t time.Time) error  { return c.nc.SetReadDeadline(t) }
func (c *netConn) SetWriteDeadline(t time.Time) error { return c.nc.SetWriteDeadline(t) }

// WrapNetConn protects a net.Conn; the result is a net.Conn.
func WrapNetConn(nc net.Conn, pair *Pair) net.Conn {
	return &netConn{Conn: NewConn(nc, pair), nc: nc}
}

// Listener wraps an accepting listener so every accepted connection is
// protected — the "decryptor" end of the pair, deployed next to the
// protected component.
type Listener struct {
	net.Listener
	pair *Pair
}

// NewListener protects ln with the pair.
func NewListener(ln net.Listener, pair *Pair) *Listener {
	return &Listener{Listener: ln, pair: pair}
}

// Accept wraps the accepted connection.
func (l *Listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return WrapNetConn(nc, l.pair), nil
}

// Dial connects to a protected listener — the "encryptor" end of the
// pair, deployed next to the client.
func Dial(addr string, pair *Pair) (net.Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return WrapNetConn(nc, pair), nil
}
