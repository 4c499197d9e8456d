package secure

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"testing/quick"
)

func TestSealOpenRoundTrip(t *testing.T) {
	p := NewPair([]byte("shared-secret"))
	msg := []byte("confirmTickets(1, 105)")
	env, err := p.Seal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(env, msg) {
		t.Fatal("envelope leaks plaintext")
	}
	got, err := p.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	p := NewPair([]byte("k"))
	env, _ := p.Seal([]byte("payload"))
	for i := 0; i < len(env); i++ {
		bad := append([]byte(nil), env...)
		bad[i] ^= 0x01
		if _, err := p.Open(bad); !errors.Is(err, ErrTampered) {
			t.Fatalf("flip at %d: err = %v, want ErrTampered", i, err)
		}
	}
}

func TestOpenRejectsShortAndWrongKey(t *testing.T) {
	p := NewPair([]byte("k"))
	if _, err := p.Open([]byte("short")); err == nil {
		t.Fatal("short envelope should fail")
	}
	env, _ := p.Seal([]byte("payload"))
	other := NewPair([]byte("different"))
	if _, err := other.Open(env); !errors.Is(err, ErrTampered) {
		t.Fatalf("wrong key: %v", err)
	}
}

func TestNoncesDiffer(t *testing.T) {
	p := NewPair([]byte("k"))
	a, _ := p.Seal([]byte("same"))
	b, _ := p.Seal([]byte("same"))
	if bytes.Equal(a, b) {
		t.Fatal("identical envelopes for identical plaintexts (nonce reuse?)")
	}
}

func TestEmptyPlaintext(t *testing.T) {
	p := NewPair([]byte("k"))
	env, err := p.Seal(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Open(env)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestQuickSealOpen(t *testing.T) {
	p := NewPair([]byte("quick"))
	r := rand.New(rand.NewSource(70))
	f := func() bool {
		n := r.Intn(500)
		msg := make([]byte, n)
		r.Read(msg)
		env, err := p.Seal(msg)
		if err != nil {
			return false
		}
		got, err := p.Open(env)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// pipeRWC adapts an io.Pipe pair into an io.ReadWriteCloser.
type pipeRWC struct {
	io.Reader
	io.Writer
}

func (pipeRWC) Close() error { return nil }

func TestConnStream(t *testing.T) {
	p := NewPair([]byte("stream"))
	ar, bw := io.Pipe()
	br, aw := io.Pipe()
	a := NewConn(pipeRWC{Reader: ar, Writer: aw}, p)
	b := NewConn(pipeRWC{Reader: br, Writer: bw}, p)

	go func() {
		b.Write([]byte("hello "))
		b.Write([]byte("world"))
	}()
	buf := make([]byte, 64)
	total := ""
	for len(total) < len("hello world") {
		n, err := a.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		total += string(buf[:n])
	}
	if total != "hello world" {
		t.Fatalf("got %q", total)
	}
	// Short reads drain the buffered frame.
	go a.Write([]byte("xyz"))
	one := make([]byte, 1)
	var got []byte
	for i := 0; i < 3; i++ {
		if _, err := b.Read(one); err != nil {
			t.Fatal(err)
		}
		got = append(got, one[0])
	}
	if string(got) != "xyz" {
		t.Fatalf("got %q", got)
	}
}

func TestConnRejectsCorruptStream(t *testing.T) {
	p := NewPair([]byte("k"))
	var wire bytes.Buffer
	w := NewConn(pipeRWC{Reader: &wire, Writer: &wire}, p)
	if _, err := w.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	raw := wire.Bytes()
	raw[len(raw)-1] ^= 0xFF // corrupt the MAC
	r := NewConn(pipeRWC{Reader: bytes.NewReader(raw), Writer: io.Discard}, p)
	if _, err := r.Read(make([]byte, 16)); !errors.Is(err, ErrTampered) {
		t.Fatalf("err = %v", err)
	}
}

// TestConnMemoryFollowsBytes: a sealed frame's length prefix alone buys
// no memory. A stream that declares a maxFrame frame, sends 1 KiB of it
// and ends costs the reader what arrived, not the declared 17 MiB; a
// sealed frame larger than the first read step still opens whole.
func TestConnMemoryFollowsBytes(t *testing.T) {
	p := NewPair([]byte("k"))
	stream := binary.LittleEndian.AppendUint32(nil, maxFrame)
	stream = append(stream, make([]byte, 1<<10)...)
	r := NewConn(pipeRWC{Reader: bytes.NewReader(stream), Writer: io.Discard}, p)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := r.Read(make([]byte, 16))
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Errorf("cut frame read %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 256<<10 {
		t.Errorf("a declared %d-byte frame with 1 KiB sent allocated %d bytes", maxFrame, grew)
	}

	big := make([]byte, 300<<10) // several read steps
	rand.New(rand.NewSource(1)).Read(big)
	var link bytes.Buffer
	if _, err := NewConn(pipeRWC{Reader: &link, Writer: &link}, p).Write(big); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(io.LimitReader(NewConn(pipeRWC{Reader: &link, Writer: io.Discard}, p), int64(len(big))))
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("large frame read back wrong (%d of %d bytes, %v)", len(got), len(big), err)
	}
}

func TestProtectedTCPLink(t *testing.T) {
	pair := NewPair([]byte("link-key"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sln := NewListener(ln, pair)
	defer sln.Close()

	done := make(chan error, 1)
	go func() {
		conn, err := sln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, 64)
		n, err := conn.Read(buf)
		if err != nil {
			done <- err
			return
		}
		_, err = conn.Write(append([]byte("echo: "), buf[:n]...))
		done <- err
	}()

	c, err := Dial(ln.Addr().String(), pair)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "echo: ping" {
		t.Fatalf("got %q", buf[:n])
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// net.Conn surface works.
	if c.LocalAddr() == nil || c.RemoteAddr() == nil {
		t.Fatal("addr methods")
	}
}
