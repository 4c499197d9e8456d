package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// One connection must carry W concurrent requests: the handler refuses to
// answer anyone until all W have arrived, so the test only passes if W
// goroutines calling Call really share the connection (a
// one-outstanding-call client would deadlock).
func TestCallAsyncPipelinesOnOneConnection(t *testing.T) {
	const w = 8
	var mu sync.Mutex
	arrived := 0
	all := make(chan struct{})
	s := newTestServer(t, func(req *wire.Message) *wire.Message {
		mu.Lock()
		arrived++
		if arrived == w {
			close(all)
		}
		mu.Unlock()
		<-all
		return &wire.Message{Type: wire.TAck, Version: req.Since}
	})
	c := dialTest(t, s, "cm1", echoHandler)

	var wg sync.WaitGroup
	errs := make([]error, w)
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reply, err := c.Call("dm", &wire.Message{Type: wire.TPull, Since: vclock.Version(i)})
			if err == nil && reply.Version != vclock.Version(i) {
				err = fmt.Errorf("got reply for Since=%d: demux cross-wired", reply.Version)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

// A reply that arrives after the caller timed out must be dropped (counted
// as late), never delivered to a recycled Seq, and must not wedge the read
// loop: the connection stays usable for subsequent calls.
func TestLateReplyDroppedAndCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	delay := time.Duration(50+rng.Intn(50)) * time.Millisecond
	s := newTestServer(t, func(req *wire.Message) *wire.Message {
		if req.Type == wire.TPush {
			time.Sleep(delay) // reply arrives after the caller gave up
		}
		return &wire.Message{Type: wire.TAck, Version: req.Since}
	})
	c := dialTest(t, s, "cm1", echoHandler)

	c.timeout = 5 * time.Millisecond
	if _, err := c.Call("dm", &wire.Message{Type: wire.TPush, Since: 1}); err == nil {
		t.Fatal("want timeout")
	} else if !IsTransportError(err) {
		t.Fatalf("timeout must be a transport error, got %v", err)
	}
	c.timeout = 5 * time.Second

	// The late reply must be absorbed and counted, not delivered.
	waitFor(t, func() bool { return c.WireStats().LateReplies == 1 })

	// The connection survives: a fresh call round-trips with its own Seq.
	reply, err := c.Call("dm", &wire.Message{Type: wire.TPull, Since: 7})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Version != 7 {
		t.Fatalf("fresh call got stale reply: %+v", reply)
	}
}

// Shutting down the peer must fail every blocked Call with ErrClosed in
// the error chain instead of leaving callers hanging.
func TestShutdownFailsInFlightAsyncCalls(t *testing.T) {
	block := make(chan struct{})
	var arrived atomic.Int64
	s := newTestServer(t, func(req *wire.Message) *wire.Message {
		arrived.Add(1)
		<-block
		return &wire.Message{Type: wire.TAck}
	})
	defer close(block)
	c := dialTest(t, s, "cm1", echoHandler)

	const n = 6
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := c.Call("dm", &wire.Message{Type: wire.TPush})
			errs <- err
		}()
	}
	waitFor(t, func() bool { return arrived.Load() == n })
	go c.Close()
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatalf("call %d resolved cleanly across shutdown", i)
			} else if !errors.Is(err, ErrClosed) {
				t.Fatalf("call %d: err = %v, want ErrClosed in chain", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d still blocked after shutdown", i)
		}
	}
}

// Poisoning the write queue mid-flush must release every frame queued
// behind the failed write, fail later enqueues with the sticky error, and
// report the failure through onFail.
func TestWriteQueuePoisonDrainEightSenders(t *testing.T) {
	boom := errors.New("flush failed")
	w := &countingWriter{gate: make(chan struct{}, 64), fail: boom}
	q := newWriteQueue(w, nil)
	failed := make(chan error, 1)
	q.onFail = func(err error) { failed <- err }

	const senders = 8
	// The first frame's flush parks in Write on the gate.
	if err := q.sendAsync(&wire.Message{Type: wire.TAck, Seq: 0, From: "a"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return queueFlushing(q) })
	var wg sync.WaitGroup
	for i := 1; i < senders; i++ {
		wg.Add(1)
		go func(i int) { // queued behind the in-flight flush
			defer wg.Done()
			if err := q.sendAsync(&wire.Message{Type: wire.TAck, Seq: uint64(i), From: "a"}); err != nil {
				t.Errorf("sender %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if got := queuePending(q); got != senders-1 {
		t.Fatalf("pending = %d, want %d", got, senders-1)
	}

	w.gate <- struct{}{} // release the parked flush; its Write fails with boom
	if err := <-failed; !errors.Is(err, boom) {
		t.Fatalf("onFail got %v, want the poison error", err)
	}
	if got := queuePending(q); got != 0 {
		t.Fatalf("%d frames still queued after poisoning, want all released", got)
	}
	// A frame enqueued after poisoning must fail fast with the same error.
	if err := q.sendAsync(&wire.Message{Type: wire.TAck, Seq: 99, From: "a"}); !errors.Is(err, boom) {
		t.Fatalf("post-poison send got %v, want sticky error", err)
	}
}

// BenchmarkConcurrentCalls measures single-connection throughput with W
// goroutines each calling Call on one Client: the requests share the
// connection's write queue and the read loop matches replies by Seq.
func BenchmarkConcurrentCalls(b *testing.B) {
	for _, w := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			s := newBenchServer(b)
			c, err := Dial(s.Addr().String(), "cm1", echoHandler, 30*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < w; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
						if _, err := c.Call("dm", &wire.Message{Type: wire.TPush, Since: vclock.Version(i)}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

func newBenchServer(b *testing.B) *Server {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	s := Serve(ln, "dm", func(req *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TAck, Version: req.Since}
	}, 30*time.Second)
	b.Cleanup(func() { s.Close() })
	return s
}
