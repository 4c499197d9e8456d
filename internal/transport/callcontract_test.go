package transport_test

import (
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"flecc/internal/image"
	"flecc/internal/shard"
	"flecc/internal/transport"
	"flecc/internal/wire"
)

// TestCallNeverWritesRequest holds every endpoint to the Call contract: the
// request a caller hands Call is read, never written, so one message may be
// sent by several goroutines at once (the directory shares each view's
// collect requests across rounds). Eight goroutines call with one message;
// under -race a write shows as a data race, and the message must come back
// field-for-field as it went out.
func TestCallNeverWritesRequest(t *testing.T) {
	reply := func(*wire.Message) *wire.Message { return &wire.Message{Type: wire.TAck} }
	attach := func(t *testing.T, n transport.Network, name string) transport.Endpoint {
		t.Helper()
		ep, err := n.Attach(name, reply)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	// Each case returns the calling endpoint and the callee's name.
	cases := []struct {
		name string
		rig  func(t *testing.T) (transport.Endpoint, string)
	}{
		{"inproc", func(t *testing.T) (transport.Endpoint, string) {
			n := transport.NewInproc()
			attach(t, n, "callee")
			return attach(t, n, "caller"), "callee"
		}},
		{"faulty", func(t *testing.T) (transport.Endpoint, string) {
			n := transport.NewFaulty(transport.NewInproc(), 1)
			n.AddObserver(transport.ObserverFunc(func(_, _ string, m *wire.Message) { _ = m.Seq }))
			attach(t, n, "callee")
			return attach(t, n, "caller"), "callee"
		}},
		{"bridge", func(t *testing.T) (transport.Endpoint, string) {
			b := shard.NewBridge()
			t.Cleanup(func() { b.Close() })
			attach(t, b, "callee")
			return attach(t, b, "caller"), "callee"
		}},
		{"tcp-client", func(t *testing.T) (transport.Endpoint, string) {
			_, c := tcpPair(t, reply)
			return c, "dm"
		}},
		{"tcp-server", func(t *testing.T) (transport.Endpoint, string) {
			s, c := tcpPair(t, reply)
			// The server can call a client once it has admitted it.
			if _, err := c.Call("dm", &wire.Message{Type: wire.TPull}); err != nil {
				t.Fatal(err)
			}
			return s, "cm"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ep, to := tc.rig(t)
			img := image.New()
			img.Put(image.Entry{Key: "k", Value: []byte("v"), Version: 3, Writer: "w"})
			req := &wire.Message{Type: wire.TPush, View: "v", Since: 7, Version: 9, Ops: 2, Img: img}
			want := *req
			wantImg := img.Clone()
			var wg sync.WaitGroup
			for range 8 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range 25 {
						if _, err := ep.Call(to, req); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if !reflect.DeepEqual(*req, want) {
				t.Errorf("Call wrote the request: %+v, want %+v", *req, want)
			}
			if !reflect.DeepEqual(req.Img, wantImg) {
				t.Errorf("Call wrote the request's image: %+v, want %+v", req.Img, wantImg)
			}
		})
	}
}

// tcpPair serves "dm" on a loopback listener and dials it as "cm"; both
// answer every request with h.
func tcpPair(t *testing.T, h transport.Handler) (*transport.Server, *transport.Client) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := transport.Serve(ln, "dm", h, 5*time.Second)
	t.Cleanup(func() { s.Close() })
	c, err := transport.Dial(s.Addr().String(), "cm", h, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}
