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

// contractRig builds a calling endpoint whose callee answers with h, and
// returns it with the callee's name.
type contractRig struct {
	name string
	rig  func(t *testing.T, h transport.Handler) (transport.Endpoint, string)
}

// contractRigs are the transports the call contracts hold on: Inproc,
// Faulty wrapping it (with an observer, so requests pass through the
// observed path), and TCP in both directions.
var contractRigs = []contractRig{
	{"inproc", func(t *testing.T, h transport.Handler) (transport.Endpoint, string) {
		n := transport.NewInproc()
		attach(t, n, "callee", h)
		return attach(t, n, "caller", h), "callee"
	}},
	{"faulty", func(t *testing.T, h transport.Handler) (transport.Endpoint, string) {
		n := transport.NewFaulty(transport.NewInproc(), 1)
		n.AddObserver(transport.ObserverFunc(func(_, _ string, m *wire.Message) { _ = m.Seq }))
		attach(t, n, "callee", h)
		return attach(t, n, "caller", h), "callee"
	}},
	{"tcp-client", func(t *testing.T, h transport.Handler) (transport.Endpoint, string) {
		s, c := tcpPair(t, h)
		s.AddObserver(transport.ObserverFunc(func(_, _ string, m *wire.Message) { _ = m.Seq }))
		return c, "dm"
	}},
	{"tcp-server", func(t *testing.T, h transport.Handler) (transport.Endpoint, string) {
		s, c := tcpPair(t, h)
		c.AddObserver(transport.ObserverFunc(func(_, _ string, m *wire.Message) { _ = m.Seq }))
		// The server can call a client once it has admitted it.
		if _, err := c.Call("dm", &wire.Message{Type: wire.TPull}); err != nil {
			t.Fatal(err)
		}
		return s, "cm"
	}},
}

func attach(t *testing.T, n transport.Network, name string, h transport.Handler) transport.Endpoint {
	t.Helper()
	ep, err := n.Attach(name, h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return ep
}

// TestCallNeverWritesRequest holds every endpoint to the Call contract: the
// request a caller hands Call is read, never written, so one message may be
// sent by several goroutines at once (the directory shares each view's
// collect requests across rounds). Eight goroutines call with one message;
// under -race a write shows as a data race, and the message must come back
// field-for-field as it went out. The shard bridge, which delivers by
// pointer, holds to it too.
func TestCallNeverWritesRequest(t *testing.T) {
	reply := func(*wire.Message) *wire.Message { return &wire.Message{Type: wire.TAck} }
	bridge := contractRig{"bridge", func(t *testing.T, h transport.Handler) (transport.Endpoint, string) {
		b := shard.NewBridge()
		t.Cleanup(func() { b.Close() })
		attach(t, b, "callee", h)
		return attach(t, b, "caller", h), "callee"
	}}
	for _, tc := range append([]contractRig{bridge}, contractRigs...) {
		t.Run(tc.name, func(t *testing.T) {
			ep, to := tc.rig(t, reply)
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

// TestCallNeverWritesReply holds every transport a cache or directory
// manager attaches to to the Handler contract: a reply is encoded, never
// written, so a handler may answer every request with one shared reply (a
// cache manager's clean collect does). Eight goroutines call a handler
// that returns one reply; under -race a write shows as a data race, the
// reply must stay field-for-field as it was, and each caller must read its
// own call's Seq, which the frame header carries.
func TestCallNeverWritesReply(t *testing.T) {
	img := image.New()
	img.Put(image.Entry{Key: "k", Value: []byte("v"), Version: 3, Writer: "w"})
	shared := &wire.Message{Type: wire.TImage, View: "v", Version: 9, Ops: 2, Img: img}
	want := *shared
	wantImg := img.Clone()
	reply := func(*wire.Message) *wire.Message { return shared }
	for _, tc := range contractRigs {
		t.Run(tc.name, func(t *testing.T) {
			ep, to := tc.rig(t, reply)
			var (
				mu   sync.Mutex
				seqs = map[uint64]bool{}
				wg   sync.WaitGroup
			)
			for range 8 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range 25 {
						got, err := ep.Call(to, &wire.Message{Type: wire.TPull, View: "v"})
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						dup := seqs[got.Seq]
						seqs[got.Seq] = true
						mu.Unlock()
						if got.Seq == 0 || dup || got.From != to {
							t.Errorf("reply seq %d from %q: want a Seq of its own (repeat: %v), from %q", got.Seq, got.From, dup, to)
							return
						}
					}
				}()
			}
			wg.Wait()
			if !reflect.DeepEqual(*shared, want) {
				t.Errorf("a transport wrote the reply: %+v, want %+v", *shared, want)
			}
			if !reflect.DeepEqual(shared.Img, wantImg) {
				t.Errorf("a transport wrote the reply's image: %+v, want %+v", shared.Img, wantImg)
			}
		})
	}
}

// TestKeptRequestReadsZero: a transport recycles a request once its
// handler has returned, zeroed, so a handler that broke the contract and
// kept it reads a zero message rather than another call's request. The
// reply carries an image, so decoding it takes no message from the pool
// the request went back to.
func TestKeptRequestReadsZero(t *testing.T) {
	img := image.New()
	img.Put(image.Entry{Key: "k", Value: []byte("v")})
	kept := make(chan *wire.Message, 1)
	keep := func(req *wire.Message) *wire.Message {
		select {
		case kept <- req:
		default:
		}
		return &wire.Message{Type: wire.TImage, Img: img}
	}
	for _, tc := range contractRigs {
		if tc.name == "tcp-server" {
			continue // its admitting call would be the request kept
		}
		t.Run(tc.name, func(t *testing.T) {
			ep, to := tc.rig(t, keep)
			if _, err := ep.Call(to, &wire.Message{Type: wire.TPull, View: "v", Since: 7}); err != nil {
				t.Fatal(err)
			}
			if m := <-kept; !reflect.DeepEqual(*m, wire.Message{}) {
				t.Errorf("kept request reads %+v after its handler returned, want a zero message", *m)
			}
		})
	}
}

// TestKeptReplyReadsZero: a caller may hand a reply it has read back to
// the wire pool (wire.Recycle). A caller that keeps it past that reads a
// zero message rather than another call's reply.
func TestKeptReplyReadsZero(t *testing.T) {
	reply := func(*wire.Message) *wire.Message { return &wire.Message{Type: wire.TAck, Version: 9} }
	for _, tc := range contractRigs {
		t.Run(tc.name, func(t *testing.T) {
			ep, to := tc.rig(t, reply)
			got, err := ep.Call(to, &wire.Message{Type: wire.TPull, View: "v"})
			if err != nil {
				t.Fatal(err)
			}
			if got.Type != wire.TAck || got.Version != 9 {
				t.Fatalf("reply %+v, want an ack of version 9", *got)
			}
			wire.Recycle(got)
			if !reflect.DeepEqual(*got, wire.Message{}) {
				t.Errorf("kept reply reads %+v after its caller recycled it, want a zero message", *got)
			}
		})
	}
}

// TestPooledReplyGoesBack: a reply a handler makes with wire.NewMessage
// belongs to the transport once returned, and the transport recycles it
// once encoded. With a caller that hands back every reply it reads, such
// a call allocates less than one whose handler answers with a fresh
// literal: the handler's reply and the caller's decoded one both come
// from the pool.
func TestPooledReplyGoesBack(t *testing.T) {
	handlers := []transport.Handler{
		func(*wire.Message) *wire.Message { return &wire.Message{Type: wire.TAck, Version: 9} },
		func(*wire.Message) *wire.Message {
			m := wire.NewMessage()
			m.Type, m.Version = wire.TAck, 9
			return m
		},
	}
	for _, tc := range contractRigs {
		t.Run(tc.name, func(t *testing.T) {
			var allocs [2]float64
			for i, h := range handlers {
				ep, to := tc.rig(t, h)
				req := &wire.Message{Type: wire.TPull, View: "v"}
				call := func() {
					reply, err := ep.Call(to, req)
					if err != nil {
						t.Fatal(err)
					}
					if reply.Version != 9 {
						t.Fatalf("reply %+v, want version 9", *reply)
					}
					wire.Recycle(reply)
				}
				for range 64 {
					call()
				}
				// AllocsPerRun truncates to whole allocations: 20 calls a
				// run keep the fraction the race detector's dropped pool
				// puts add.
				const batch = 20
				allocs[i] = testing.AllocsPerRun(50, func() {
					for range batch {
						call()
					}
				}) / batch
			}
			if allocs[1] >= allocs[0] {
				t.Errorf("a call answered from the pool: %v allocs, with a literal reply: %v; want fewer", allocs[1], allocs[0])
			}
		})
	}
}
