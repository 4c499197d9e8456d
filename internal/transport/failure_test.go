package transport

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"flecc/internal/wire"
)

// TestTCPDuplicateNameRejected: a second connection claiming a live name
// must be refused at the handshake instead of hijacking the registration,
// and the original peer keeps working.
func TestTCPDuplicateNameRejected(t *testing.T) {
	s := newTestServer(t, echoHandler)
	c1 := dialTest(t, s, "cm1", echoHandler)

	if _, err := Dial(s.Addr().String(), "cm1", echoHandler, 5*time.Second); err == nil {
		t.Fatal("second dial under a live name must fail")
	} else if !strings.Contains(err.Error(), "already connected") {
		t.Fatalf("rejection reason: %v", err)
	}

	// The original holder is unaffected.
	if _, err := c1.Call("dm", &wire.Message{Type: wire.TPull}); err != nil {
		t.Fatalf("original client broken by impostor: %v", err)
	}

	// Once the holder goes away, the name is reusable — that is what a
	// reconnecting cache manager does after its old link died.
	c1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		c2, err := Dial(s.Addr().String(), "cm1", echoHandler, 5*time.Second)
		if err == nil {
			defer c2.Close()
			if _, err := c2.Call("dm", &wire.Message{Type: wire.TPull}); err != nil {
				t.Fatalf("reconnected client: %v", err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("name never became reusable: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPServerCloseDrainsGoroutines: Close must wait for the accept loop
// and every peer's read loop and workers, not strand them.
func TestTCPServerCloseDrainsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, "dm", echoHandler, 5*time.Second)
	var clients []*Client
	for _, name := range []string{"cm1", "cm2", "cm3"} {
		c, err := Dial(s.Addr().String(), name, echoHandler, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		if _, err := c.Call("dm", &wire.Message{Type: wire.TPull}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range clients {
		c.Close()
	}
	s.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC() // nudge finished goroutines off the scheduler
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCallDoesNotMutateCallerMessage: transports stamp Seq/From on a clone,
// so a caller can safely reuse one request across retries (and the race
// detector stays quiet when a retry overlaps a slow first attempt).
func TestCallDoesNotMutateCallerMessage(t *testing.T) {
	t.Run("inproc", func(t *testing.T) {
		n := NewInproc()
		n.Attach("dm", echoHandler)
		cm, _ := n.Attach("cm1", echoHandler)
		req := &wire.Message{Type: wire.TPull, Since: 7}
		if _, err := cm.Call("dm", req); err != nil {
			t.Fatal(err)
		}
		if req.Seq != 0 || req.From != "" {
			t.Fatalf("caller's message mutated: Seq=%d From=%q", req.Seq, req.From)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		s := newTestServer(t, echoHandler)
		c := dialTest(t, s, "cm1", echoHandler)
		req := &wire.Message{Type: wire.TPull, Since: 7}
		if _, err := c.Call("dm", req); err != nil {
			t.Fatal(err)
		}
		if req.Seq != 0 || req.From != "" {
			t.Fatalf("caller's message mutated: Seq=%d From=%q", req.Seq, req.From)
		}
	})
}
