package transport

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// barrier holds every handler that reaches it until n have arrived. A
// handler gives up after a generous wait, so a failing test still shuts
// down instead of hanging in Close.
type barrier struct {
	n    int32
	in   atomic.Int32
	open chan struct{}
}

func newBarrier(n int) *barrier { return &barrier{n: int32(n), open: make(chan struct{})} }

func (b *barrier) pass(req *wire.Message) *wire.Message {
	if b.in.Add(1) == b.n {
		close(b.open)
	}
	select {
	case <-b.open:
		return &wire.Message{Type: wire.TAck, Version: req.Since}
	case <-time.After(10 * time.Second):
		return &wire.Message{Type: wire.TErr, Err: fmt.Sprintf("barrier: %d of %d handlers arrived", b.in.Load(), b.n)}
	}
}

// callAll issues one call per Since in [from, from+n) on separate
// goroutines and returns the first error, or a timeout when the calls are
// not all back within 15s.
func callAll(call func(*wire.Message) (*wire.Message, error), typ wire.Type, from, n int) error {
	errs := make(chan error, n)
	for i := from; i < from+n; i++ {
		go func(since vclock.Version) {
			reply, err := call(&wire.Message{Type: typ, Since: since})
			if err == nil && reply.Version != since {
				err = fmt.Errorf("call %d got the reply for %d", since, reply.Version)
			}
			errs <- err
		}(vclock.Version(i))
	}
	timeout := time.After(15 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if err != nil {
				return err
			}
		case <-timeout:
			return fmt.Errorf("%d of %d calls still out after 15s", n-i, n)
		}
	}
	return nil
}

// TestTCPWorkersServeConcurrently: a connection serves every request in
// flight at once. Four times the parked-worker cap of requests block
// together on a barrier that opens only once all of them are inside, and
// one handler's nested call back over the same connection completes while
// the others wait. A second burst runs on the workers the first one left
// parked, plus new ones. Both ends then close within 5s.
func TestTCPWorkersServeConcurrently(t *testing.T) {
	const n = 4 * maxIdleWorkers
	var gate atomic.Pointer[barrier]
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var s *Server
	s = Serve(ln, "dm", func(req *wire.Message) *wire.Message {
		if req.Type == wire.TPush {
			if _, err := s.Call(req.From, &wire.Message{Type: wire.TInvalidate}); err != nil {
				return &wire.Message{Type: wire.TErr, Err: "nested call: " + err.Error()}
			}
		}
		return gate.Load().pass(req)
	}, 5*time.Second)
	defer closeWithin(t, "server", s.Close)
	c, err := Dial(s.Addr().String(), "cm1", echoHandler, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, "client", c.Close)
	for round := 0; round < 2; round++ {
		gate.Store(newBarrier(n))
		err := callAll(func(req *wire.Message) (*wire.Message, error) {
			if req.Since == vclock.Version(round*n) {
				req.Type = wire.TPush // the one handler that calls back
			}
			return c.Call("dm", req)
		}, wire.TPull, round*n, n)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestTCPWorkersDrainOnClose: parked workers leave with their connection.
// Bursts of four times the cap each way leave at most the cap parked at
// each end; a client's Close, and later the server's Close, each return
// within 5s and bring the goroutine count back to what it was before that
// connection existed.
func TestTCPWorkersDrainOnClose(t *testing.T) {
	const n = 4 * maxIdleWorkers
	var gate atomic.Pointer[barrier]
	handler := func(req *wire.Message) *wire.Message { return gate.Load().pass(req) }
	burst := func(s *Server, c *Client, name string) {
		t.Helper()
		gate.Store(newBarrier(2 * n))
		serverErr := make(chan error, 1)
		go func() {
			serverErr <- callAll(func(req *wire.Message) (*wire.Message, error) { return s.Call(name, req) }, wire.TInvalidate, 0, n)
		}()
		if err := callAll(func(req *wire.Message) (*wire.Message, error) { return c.Call("dm", req) }, wire.TPull, 0, n); err != nil {
			t.Fatalf("client calls: %v", err)
		}
		if err := <-serverErr; err != nil {
			t.Fatalf("server calls: %v", err)
		}
	}
	// With one connection open: its two read loops and what each end
	// keeps parked.
	idle := func(serving int) int { return serving + 2 + 2*maxIdleWorkers }

	before := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, "dm", handler, 5*time.Second)
	defer s.Close()
	serving := runtime.NumGoroutine()

	c1, err := Dial(s.Addr().String(), "cm1", handler, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	burst(s, c1, "cm1")
	settleGoroutines(t, "after a burst", idle(serving))
	closeWithin(t, "client", c1.Close)
	settleGoroutines(t, "after the client's Close", serving)

	c2, err := Dial(s.Addr().String(), "cm2", handler, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	burst(s, c2, "cm2")
	settleGoroutines(t, "after a burst", idle(serving))
	closeWithin(t, "server", s.Close) // c2's read loop ends with the connection, and its workers with it
	settleGoroutines(t, "after the server's Close", before)
}

// closeWithin runs stop and fails the test if it has not returned in 5s.
func closeWithin(t *testing.T, what string, stop func() error) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s Close still waiting after 5s", what)
	}
}

// settleGoroutines waits up to 5s for the goroutine count to fall to want.
func settleGoroutines(t *testing.T, when string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("%s: %d goroutines, want <= %d\n%s", when, runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
