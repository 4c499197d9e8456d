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
// answer anyone until all W have arrived, so the test only passes if the
// client really pipelines (a one-outstanding-call client would deadlock).
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

	calls := make([]*Call, w)
	for i := range calls {
		calls[i] = c.CallAsync("dm", &wire.Message{Type: wire.TPull, Since: vclock.Version(i)})
	}
	for i, call := range calls {
		reply, err := call.WaitTimeout(5 * time.Second)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if reply.Version != vclock.Version(i) {
			t.Fatalf("call %d got reply for Since=%d: demux cross-wired", i, reply.Version)
		}
	}
}

// SetWindow must bound in-flight concurrency: with window W and far more
// issued calls, the server-side peak concurrency never exceeds W.
func TestWindowBoundsInFlight(t *testing.T) {
	const window, total = 4, 64
	var inflight, peak atomic.Int64
	s := newTestServer(t, func(req *wire.Message) *wire.Message {
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		inflight.Add(-1)
		return &wire.Message{Type: wire.TAck}
	})
	c := dialTest(t, s, "cm1", echoHandler)
	c.SetWindow(window)

	calls := make(chan *Call, total)
	go func() {
		for i := 0; i < total; i++ {
			calls <- c.CallAsync("dm", &wire.Message{Type: wire.TPull})
		}
		close(calls)
	}()
	for call := range calls {
		if _, err := call.WaitTimeout(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if p := peak.Load(); p > window {
		t.Fatalf("peak in-flight = %d, window = %d", p, window)
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

	call := c.CallAsync("dm", &wire.Message{Type: wire.TPush, Since: 1})
	if _, err := call.WaitTimeout(5 * time.Millisecond); err == nil {
		t.Fatal("want timeout")
	}
	// A second wait on the abandoned call reports the same resolution.
	if _, err := call.Wait(); err == nil {
		t.Fatal("abandoned call must stay failed")
	}

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

// Shutting down the peer must resolve every in-flight async call with an
// error instead of leaving futures hanging.
func TestShutdownFailsInFlightAsyncCalls(t *testing.T) {
	block := make(chan struct{})
	s := newTestServer(t, func(req *wire.Message) *wire.Message {
		<-block
		return &wire.Message{Type: wire.TAck}
	})
	defer close(block)
	c := dialTest(t, s, "cm1", echoHandler)

	const n = 6
	calls := make([]*Call, n)
	for i := range calls {
		calls[i] = c.CallAsync("dm", &wire.Message{Type: wire.TPush})
	}
	go c.Close()
	for i, call := range calls {
		if _, err := call.WaitTimeout(5 * time.Second); err == nil {
			t.Fatalf("call %d resolved cleanly across shutdown", i)
		} else if !errors.Is(err, ErrClosed) {
			t.Fatalf("call %d: err = %v, want ErrClosed in chain", i, err)
		}
	}
}

// A full window must not deadlock shutdown: issuers blocked waiting for a
// slot observe the close and fail instead of sleeping forever.
func TestWindowBlockedIssuerUnblocksOnClose(t *testing.T) {
	block := make(chan struct{})
	s := newTestServer(t, func(req *wire.Message) *wire.Message {
		<-block
		return &wire.Message{Type: wire.TAck}
	})
	defer close(block)
	c := dialTest(t, s, "cm1", echoHandler)
	c.SetWindow(1)

	first := c.CallAsync("dm", &wire.Message{Type: wire.TPush}) // fills the window
	errCh := make(chan error, 1)
	go func() {
		_, err := c.CallAsync("dm", &wire.Message{Type: wire.TPush}).Wait()
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the issuer park on the window
	c.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("blocked issuer should fail on close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("issuer still blocked on the window after close")
	}
	if _, err := first.Wait(); err == nil {
		t.Fatal("in-flight call should fail on close")
	}
}

// Poisoning the write queue mid-flush must wake all concurrent senders
// with the sticky error — including frames enqueued after the poison.
func TestWriteQueuePoisonDrainEightSenders(t *testing.T) {
	boom := errors.New("flush failed")
	w := &countingWriter{gate: make(chan struct{}, 64), fail: boom}
	q := newWriteQueue(w, nil)

	const senders = 8
	var wg sync.WaitGroup
	errs := make([]error, senders)
	wg.Add(1)
	go func() { // flusher, parked in Write on the gate
		defer wg.Done()
		errs[0] = q.send(&wire.Message{Type: wire.TAck, Seq: 0, From: "a"})
	}()
	waitFor(t, func() bool { return queueFlushing(q) })
	for i := 1; i < senders; i++ {
		wg.Add(1)
		go func(i int) { // queued behind the in-flight flush
			defer wg.Done()
			errs[i] = q.send(&wire.Message{Type: wire.TAck, Seq: uint64(i), From: "a"})
		}(i)
	}
	waitFor(t, func() bool { return queuePending(q) == senders-1 })

	w.gate <- struct{}{} // release the parked flusher; its Write fails with boom
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("sender %d got %v, want the sticky poison error", i, err)
		}
	}
	// A frame enqueued after poisoning must fail fast with the same error.
	if err := q.send(&wire.Message{Type: wire.TAck, Seq: 99, From: "a"}); !errors.Is(err, boom) {
		t.Fatalf("post-poison send got %v, want sticky error", err)
	}
}

// Inproc CallAsync must resolve synchronously (no goroutines), keeping
// deterministic harnesses deterministic.
func TestInprocCallAsyncResolvesSynchronously(t *testing.T) {
	n := NewInproc()
	if _, err := n.Attach("dm", func(req *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TAck, Version: 9}
	}); err != nil {
		t.Fatal(err)
	}
	cm, err := n.Attach("cm", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	ac, ok := cm.(AsyncCaller)
	if !ok {
		t.Fatal("inproc endpoint should implement AsyncCaller")
	}
	call := ac.CallAsync("dm", &wire.Message{Type: wire.TPull})
	select {
	case <-call.Done():
	default:
		t.Fatal("inproc async call should already be resolved")
	}
	reply, err := call.Wait()
	if err != nil || reply.Version != 9 {
		t.Fatalf("reply = %+v, err = %v", reply, err)
	}
}

// BenchmarkPipelineWindow measures single-connection throughput at
// increasing windows; the window-64 series should approach wire
// saturation (many times the window-1 ops/sec).
func BenchmarkPipelineWindow(b *testing.B) {
	for _, window := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("w%d", window), func(b *testing.B) {
			s := newBenchServer(b)
			c, err := Dial(s.Addr().String(), "cm1", echoHandler, 30*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			c.SetWindow(window)
			b.ReportAllocs()
			b.ResetTimer()
			calls := make(chan *Call, 2*window)
			done := make(chan error, 1)
			go func() {
				var first error
				for call := range calls {
					if _, err := call.Wait(); err != nil && first == nil {
						first = err
					}
				}
				done <- first
			}()
			for i := 0; i < b.N; i++ {
				calls <- c.CallAsync("dm", &wire.Message{Type: wire.TPush, Since: vclock.Version(i)})
			}
			close(calls)
			if err := <-done; err != nil {
				b.Fatal(err)
			}
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
