package transport

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"flecc/internal/wire"
)

// TestTCPCallAllocs pins the allocation cost of one warm loopback round
// trip, counted across both ends of the connection: a client call and a
// server-initiated call. What remains is the decoded request, the
// handler's reply, the decoded reply and the start of the serve goroutine
// (two objects); call records, timers, frames, batch slices, the drainer
// start and node names are all reused. The ceilings are the measured 5
// plus three: under the race detector, which drops a quarter of pool puts
// at random, a round trip reads 6 or 7.
func TestTCPCallAllocs(t *testing.T) {
	s := newTestServer(t, echoHandler)
	c := dialTest(t, s, "cm1", echoHandler)
	req := &wire.Message{Type: wire.TPull, Since: 7}
	inv := &wire.Message{Type: wire.TInvalidate, View: "cm1"}
	cases := []struct {
		name string
		call func() (*wire.Message, error)
		max  float64
	}{
		{"client-call", func() (*wire.Message, error) { return c.Call("dm", req) }, 8},
		{"server-call", func() (*wire.Message, error) { return s.Call("cm1", inv) }, 8},
	}
	// The client call comes first: once it has a reply, the server has
	// admitted the client under its name and can call it.
	for i := 0; i < 64; i++ {
		for _, tc := range cases {
			if _, err := tc.call(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := testing.AllocsPerRun(500, func() {
				if _, err := tc.call(); err != nil {
					t.Fatal(err)
				}
			})
			if got > tc.max {
				t.Errorf("round-trip allocs = %.1f, want <= %.0f", got, tc.max)
			}
		})
	}
}

// pendingRecord returns the call record of the client's only in-flight
// call, waiting for the call to register.
func pendingRecord(t *testing.T, c *Client) *pendingCall {
	t.Helper()
	var rec *pendingCall
	waitFor(t, func() bool {
		c.p.mu.Lock()
		defer c.p.mu.Unlock()
		for _, pc := range c.p.pending {
			rec = pc
		}
		return len(c.p.pending) == 1
	})
	return rec
}

// TestLateReplyAfterRecycledCall checks that pooled call records are
// recycled only once nothing can still reach them.
//
// late-reply: call A times out and call B takes A's record. A's reply,
// arriving while B is in flight on that record, must be counted late and
// dropped, and B must return its own reply — never A's, and never before
// its own arrives. A record returned to the pool before its caller
// consumed done hands B a stale signal, and B returns early with no reply.
//
// shutdown-racing-timeout: a call's timeout races the peer's shutdown.
// Whichever resolver wins, the caller gets one error, and the record it
// returns carries no leftover signal: the next call on it, over another
// connection, waits for its own reply.
func TestLateReplyAfterRecycledCall(t *testing.T) {
	// One P: the pool hands a returned record straight to the next call.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	t.Run("late-reply", testLateReplyOnRecycledRecord)
	t.Run("shutdown-racing-timeout", testShutdownRacingTimeout)
}

func isTimeout(err error) bool { return err != nil && strings.Contains(err.Error(), "timed out") }

func testLateReplyOnRecycledRecord(t *testing.T) {
	release := map[wire.Type]chan struct{}{
		wire.TPush: make(chan struct{}),
		wire.TPull: make(chan struct{}),
	}
	stop := make(chan struct{})
	s := newTestServer(t, func(req *wire.Message) *wire.Message {
		select {
		case <-release[req.Type]:
		case <-stop:
		}
		return &wire.Message{Type: wire.TAck, Version: req.Since}
	})
	c := dialTest(t, s, "cm1", echoHandler)
	t.Cleanup(func() { close(stop) }) // runs before the server's Close waits on handlers

	// The race detector drops a quarter of pool puts at random, so retry
	// until B really does run on A's record.
	for attempt := 0; ; attempt++ {
		if attempt == 20 {
			t.Fatal("call B never reused call A's record")
		}
		c.timeout = 20 * time.Millisecond
		aErr := make(chan error, 1)
		go func() {
			_, err := c.Call("dm", &wire.Message{Type: wire.TPush, Since: 1})
			aErr <- err
		}()
		recA := pendingRecord(t, c)
		if err := <-aErr; !isTimeout(err) {
			t.Fatalf("call A: err = %v, want a timeout", err)
		}

		c.timeout = 5 * time.Second
		type result struct {
			reply *wire.Message
			err   error
		}
		bDone := make(chan result, 1)
		go func() {
			reply, err := c.Call("dm", &wire.Message{Type: wire.TPull, Since: 2})
			bDone <- result{reply, err}
		}()
		recB := pendingRecord(t, c)

		late := c.WireStats().LateReplies
		release[wire.TPush] <- struct{}{} // A's reply, now late
		waitFor(t, func() bool { return c.WireStats().LateReplies == late+1 })
		select {
		case r := <-bDone:
			t.Fatalf("call B returned before its reply was sent: %+v, %v", r.reply, r.err)
		default:
		}

		release[wire.TPull] <- struct{}{}
		r := <-bDone
		if r.err != nil {
			t.Fatalf("call B: %v", r.err)
		}
		if r.reply == nil || r.reply.Version != 2 {
			t.Fatalf("call B got %+v, want its own reply (Version 2)", r.reply)
		}
		if recB == recA {
			return
		}
	}
}

func testShutdownRacingTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s := newTestServer(t, func(req *wire.Message) *wire.Message {
		if req.Type == wire.TPush {
			<-block
		}
		return &wire.Message{Type: wire.TAck, Version: req.Since}
	})
	live := dialTest(t, s, "live", echoHandler)
	for i := 0; i < 50; i++ {
		c, err := Dial(s.Addr().String(), fmt.Sprintf("racer-%d", i), echoHandler, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.timeout = 2 * time.Millisecond
		closed := make(chan struct{})
		go func() {
			time.Sleep(time.Duration(i%5) * 500 * time.Microsecond)
			c.Close()
			close(closed)
		}()
		if _, err := c.Call("dm", &wire.Message{Type: wire.TPush}); !isTimeout(err) && !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: err = %v, want a timeout or ErrClosed", i, err)
		}
		<-closed
		reply, err := live.Call("dm", &wire.Message{Type: wire.TPull, Since: 9})
		if err != nil {
			t.Fatalf("round %d: live call: %v", i, err)
		}
		if reply == nil || reply.Version != 9 {
			t.Fatalf("round %d: live call got %+v, want its own reply", i, reply)
		}
	}
}
