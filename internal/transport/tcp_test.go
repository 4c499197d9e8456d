package transport

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"flecc/internal/wire"
)

func newTestServer(t *testing.T, h Handler) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, "dm", h, 5*time.Second)
	t.Cleanup(func() { s.Close() })
	return s
}

func dialTest(t *testing.T, s *Server, name string, h Handler) *Client {
	t.Helper()
	c, err := Dial(s.Addr().String(), name, h, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestTCPRequestReply(t *testing.T) {
	s := newTestServer(t, func(req *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TAck, Version: req.Since + 1}
	})
	c := dialTest(t, s, "cm1", echoHandler)
	reply, err := c.Call("dm", &wire.Message{Type: wire.TPull, Since: 41})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Version != 42 || reply.From != "dm" {
		t.Fatalf("reply = %+v", reply)
	}
}

// clientNames returns the names of the server's connected clients.
func clientNames(s *Server) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for n := range s.clients {
		out = append(out, n)
	}
	return out
}

func TestTCPServerLearnsClientNames(t *testing.T) {
	s := newTestServer(t, echoHandler)
	c := dialTest(t, s, "agent-7", echoHandler)
	if _, err := c.Call("dm", &wire.Message{Type: wire.TRegister, View: "agent-7"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		names := clientNames(s)
		if len(names) == 1 && names[0] == "agent-7" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("clients = %v", names)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTCPServerInitiatedCall(t *testing.T) {
	s := newTestServer(t, echoHandler)
	invalidated := make(chan string, 1)
	c := dialTest(t, s, "cm1", func(req *wire.Message) *wire.Message {
		if req.Type == wire.TInvalidate {
			invalidated <- req.View
			return &wire.Message{Type: wire.TImage}
		}
		return nil
	})
	// Client must speak first so the server learns its name.
	if _, err := c.Call("dm", &wire.Message{Type: wire.TRegister}); err != nil {
		t.Fatal(err)
	}
	var reply *wire.Message
	var err error
	deadline := time.Now().Add(2 * time.Second)
	for {
		reply, err = s.Call("cm1", &wire.Message{Type: wire.TInvalidate, View: "cm1"})
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TImage {
		t.Fatalf("reply = %+v", reply)
	}
	select {
	case v := <-invalidated:
		if v != "cm1" {
			t.Fatalf("invalidated view = %q", v)
		}
	case <-time.After(time.Second):
		t.Fatal("invalidate handler never ran")
	}
}

func TestTCPNestedCallDuringServe(t *testing.T) {
	// Server handler calls back to the requesting client mid-request —
	// exactly what the DM does when a pull triggers an invalidation of
	// another view; here the "other view" is the same client for
	// simplicity of plumbing.
	var s *Server
	s = newTestServer(t, func(req *wire.Message) *wire.Message {
		if req.Type == wire.TPull {
			reply, err := s.Call(req.From, &wire.Message{Type: wire.TInvalidate})
			if err != nil || reply.Type != wire.TImage {
				return &wire.Message{Type: wire.TErr, Err: "nested call failed"}
			}
		}
		return &wire.Message{Type: wire.TAck}
	})
	c := dialTest(t, s, "cm1", func(req *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TImage}
	})
	// Prime the name mapping.
	if _, err := c.Call("dm", &wire.Message{Type: wire.TRegister}); err != nil {
		t.Fatal(err)
	}
	reply, err := c.Call("dm", &wire.Message{Type: wire.TPull})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TAck {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestTCPCallToUnknownClient(t *testing.T) {
	s := newTestServer(t, echoHandler)
	if _, err := s.Call("ghost", &wire.Message{Type: wire.TUpdate}); err == nil {
		t.Fatal("call to unconnected client should fail")
	}
}

func TestTCPErrReply(t *testing.T) {
	s := newTestServer(t, func(req *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TErr, Err: "denied"}
	})
	c := dialTest(t, s, "cm1", echoHandler)
	_, err := c.Call("dm", &wire.Message{Type: wire.TAcquire})
	if err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPHandlerPanicBecomesErr(t *testing.T) {
	s := newTestServer(t, func(req *wire.Message) *wire.Message {
		panic("kaboom")
	})
	c := dialTest(t, s, "cm1", echoHandler)
	_, err := c.Call("dm", &wire.Message{Type: wire.TInit})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPClientCloseFailsCalls(t *testing.T) {
	s := newTestServer(t, echoHandler)
	c := dialTest(t, s, "cm1", echoHandler)
	c.Close()
	if _, err := c.Call("dm", &wire.Message{Type: wire.TInit}); err == nil {
		t.Fatal("call after close should fail")
	}
}

func TestTCPServerCloseDisconnectsClients(t *testing.T) {
	s := newTestServer(t, echoHandler)
	c := dialTest(t, s, "cm1", echoHandler)
	if _, err := c.Call("dm", &wire.Message{Type: wire.TRegister}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := c.Call("dm", &wire.Message{Type: wire.TPull}); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client calls should fail after server close")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	s := newTestServer(t, func(req *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TAck, View: req.View}
	})
	const clients, calls = 6, 25
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		name := "cm" + string(rune('a'+i))
		c := dialTest(t, s, name, echoHandler)
		wg.Add(1)
		go func(c *Client, name string) {
			defer wg.Done()
			for j := 0; j < calls; j++ {
				reply, err := c.Call("dm", &wire.Message{Type: wire.TPull, View: name})
				if err != nil {
					t.Error(err)
					return
				}
				if reply.View != name {
					t.Errorf("cross-wired reply: got %q want %q", reply.View, name)
					return
				}
			}
		}(c, name)
	}
	wg.Wait()
}

func TestTCPLargePayload(t *testing.T) {
	s := newTestServer(t, func(req *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TImage, Img: req.Img}
	})
	c := dialTest(t, s, "cm1", echoHandler)
	img := sampleBigImage(2000)
	reply, err := c.Call("dm", &wire.Message{Type: wire.TPush, Img: img})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Img == nil || reply.Img.Len() != img.Len() {
		t.Fatalf("image did not round trip: %v", reply.Img)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", "cm", echoHandler, time.Second); err == nil {
		t.Fatal("dial to closed port should fail")
	}
}

// TestDialTimeoutAgainstNonAcceptingListener covers the failure mode the
// hello handshake exists for: a listening socket whose owner never
// accepts. The kernel completes the TCP connect (backlog), so only the
// unanswered hello reveals that nothing is serving — Dial must give up
// within its timeout instead of hanging.
func TestDialTimeoutAgainstNonAcceptingListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Deliberately never ln.Accept().

	start := time.Now()
	c, err := Dial(ln.Addr().String(), "v1", nil, 200*time.Millisecond)
	elapsed := time.Since(start)
	if err == nil {
		c.Close()
		t.Fatal("Dial should fail against a non-accepting listener")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Dial took %v; the timeout did not bound the handshake", elapsed)
	}
}

// TestDialHandshake checks the happy path: the hello is answered during
// the server's admission and teaches it the client's name before any
// protocol message flows, so server-initiated calls work immediately.
func TestDialHandshake(t *testing.T) {
	s := newTestServer(t, func(req *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TAck}
	})
	// The handler sends what it saw, not req: the client recycles req once
	// the handler returns.
	got := make(chan wire.Type, 1)
	c, err := Dial(s.Addr().String(), "v1", func(req *wire.Message) *wire.Message {
		got <- req.Type
		return &wire.Message{Type: wire.TAck}
	}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The handshake alone must register the client with the server.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if names := clientNames(s); len(names) == 1 && names[0] == "v1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server clients = %v, want [v1]", clientNames(s))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := s.Call("v1", &wire.Message{Type: wire.TInvalidate, View: "v1"}); err != nil {
		t.Fatal(err)
	}
	if typ := <-got; typ != wire.TInvalidate {
		t.Fatalf("client saw %s", typ)
	}
}

// A server call issued the moment the hello arrives must not overtake the
// hello's ack: the server's observer sees THello, starts a call to the
// dialer, and holds the read loop until a frame has been written. The
// dialer's handshake must still read THelloAck first, and the call must
// then reach its handler.
func TestHelloAckPrecedesServerCalls(t *testing.T) {
	s := newTestServer(t, func(req *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TAck}
	})
	callErr := make(chan error, 1)
	var once sync.Once
	s.AddObserver(ObserverFunc(func(from, to string, m *wire.Message) {
		if m.Type != wire.THello {
			return
		}
		once.Do(func() {
			go func() {
				_, err := s.Call("cm1", &wire.Message{Type: wire.TInvalidate, View: "cm1"})
				callErr <- err
			}()
			deadline := time.Now().Add(2 * time.Second)
			for s.WireStats().Frames < 1 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		})
	}))
	got := make(chan wire.Type, 1)
	c, err := Dial(s.Addr().String(), "cm1", func(req *wire.Message) *wire.Message {
		got <- req.Type
		return &wire.Message{Type: wire.TAck}
	}, 5*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v (a server call overtook the hello ack)", err)
	}
	defer c.Close()
	if err := <-callErr; err != nil {
		t.Fatalf("server call: %v", err)
	}
	if typ := <-got; typ != wire.TInvalidate {
		t.Fatalf("client handler saw %s, want %s", typ, wire.TInvalidate)
	}
}
