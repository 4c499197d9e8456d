package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flecc/internal/image"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// countingWriter records every Write call (the syscall proxy) and the
// bytes, optionally gating writes so a test can force frames to pile up
// behind one in-flight flush.
type countingWriter struct {
	mu     sync.Mutex
	writes int
	buf    bytes.Buffer
	gate   chan struct{} // non-nil: each Write blocks until a tick
	fail   error         // non-nil: every Write fails
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.gate != nil {
		<-w.gate
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fail != nil {
		return 0, w.fail
	}
	w.writes++
	w.buf.Write(p)
	return len(p), nil
}

func (w *countingWriter) snapshot() (int, []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writes, bytes.Clone(w.buf.Bytes())
}

func decodeAll(t *testing.T, stream []byte) []*wire.Message {
	t.Helper()
	fr := wire.NewFrameReader(bytes.NewReader(stream))
	var out []*wire.Message
	for {
		m, err := fr.Read()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("decode stream: %v", err)
		}
		out = append(out, m)
	}
}

// Concurrent senders must produce a valid, complete frame stream: every
// frame exactly once, each intact, regardless of how enqueues interleave.
func TestWriteQueueConcurrentFraming(t *testing.T) {
	w := &countingWriter{}
	q := newWriteQueue(w, nil)
	const senders, perSender = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				m := &wire.Message{Type: wire.TAck, Seq: uint64(s*perSender + i), From: fmt.Sprintf("s%d", s)}
				if err := q.sendAsync(m); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	waitDrained(t, q)
	_, stream := w.snapshot()
	got := decodeAll(t, stream)
	if len(got) != senders*perSender {
		t.Fatalf("decoded %d frames, want %d", len(got), senders*perSender)
	}
	seen := map[uint64]bool{}
	for _, m := range got {
		if seen[m.Seq] {
			t.Fatalf("frame seq %d written twice", m.Seq)
		}
		seen[m.Seq] = true
	}
}

// A single sender's frames must appear on the stream in enqueue order (the
// write-order guarantee the reply-matching protocol relies on).
func TestWriteQueuePreservesOrder(t *testing.T) {
	w := &countingWriter{}
	q := newWriteQueue(w, nil)
	const n = 200
	for i := 0; i < n; i++ {
		if err := q.sendAsync(&wire.Message{Type: wire.TAck, Seq: uint64(i), From: "a"}); err != nil {
			t.Fatal(err)
		}
	}
	waitDrained(t, q)
	_, stream := w.snapshot()
	got := decodeAll(t, stream)
	if len(got) != n {
		t.Fatalf("decoded %d frames, want %d", len(got), n)
	}
	for i, m := range got {
		if m.Seq != uint64(i) {
			t.Fatalf("frame %d has seq %d: order not preserved", i, m.Seq)
		}
	}
}

// Frames queued behind a blocked flush must coalesce: with the first write
// gated, N more frames enqueue, and releasing the gate lets the whole
// backlog go out in one more write.
func TestWriteQueueCoalesces(t *testing.T) {
	w := &countingWriter{gate: make(chan struct{}, 64)}
	q := newWriteQueue(w, nil)
	const backlog = 15

	// The first frame's flush blocks in Write on the gate.
	if err := q.sendAsync(&wire.Message{Type: wire.TAck, Seq: 0, From: "a"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return queueFlushing(q) })
	for i := 1; i <= backlog; i++ {
		if err := q.sendAsync(&wire.Message{Type: wire.TAck, Seq: uint64(i), From: "a"}); err != nil {
			t.Fatalf("sender %d: %v", i, err)
		}
	}
	if got := queuePending(q); got != backlog {
		t.Fatalf("pending = %d behind the gated flush, want %d", got, backlog)
	}
	w.gate <- struct{}{} // release the first flush
	w.gate <- struct{}{} // release the batched flush
	waitDrained(t, q)
	writes, stream := w.snapshot()
	if writes != 2 {
		t.Fatalf("writes = %d, want 2 (first frame + coalesced backlog)", writes)
	}
	if got := decodeAll(t, stream); len(got) != backlog+1 {
		t.Fatalf("decoded %d frames, want %d", len(got), backlog+1)
	}
}

// A write failure must release every frame queued behind the lost one,
// poison future enqueues, and reach the owner through onFail.
func TestWriteQueueFailWakesSenders(t *testing.T) {
	boom := errors.New("boom")
	w := &countingWriter{gate: make(chan struct{}, 64), fail: boom}
	q := newWriteQueue(w, nil)
	var fails atomic.Int64
	failed := make(chan error, 1)
	q.onFail = func(err error) {
		fails.Add(1)
		failed <- err
	}

	const waiters = 5
	for i := 0; i < waiters; i++ {
		if err := q.sendAsync(&wire.Message{Type: wire.TAck, Seq: uint64(i), From: "a"}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			waitFor(t, func() bool { return queueFlushing(q) })
		}
	}
	w.gate <- struct{}{}
	if err := <-failed; !errors.Is(err, boom) {
		t.Fatalf("onFail got %v, want %v", err, boom)
	}
	waitDrained(t, q)
	if got := queuePending(q); got != 0 {
		t.Fatalf("%d frames still queued after the failure, want all released", got)
	}
	if err := q.sendAsync(&wire.Message{Type: wire.TAck}); !errors.Is(err, boom) {
		t.Fatalf("poisoned queue accepted a send: %v", err)
	}
	if n := fails.Load(); n != 1 {
		t.Fatalf("onFail fired %d times, want 1", n)
	}
}

// fail() must release frames that are queued but unwritten: they never
// reach the stream, and later enqueues get the sticky error.
func TestWriteQueueFailReleasesPending(t *testing.T) {
	w := &countingWriter{gate: make(chan struct{}, 64)}
	q := newWriteQueue(w, nil)
	// The first frame's flush parks on the gate.
	if err := q.sendAsync(&wire.Message{Type: wire.TAck, Seq: 0, From: "a"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return queueFlushing(q) })
	// Queued behind the in-flight flush.
	if err := q.sendAsync(&wire.Message{Type: wire.TAck, Seq: 1, From: "a"}); err != nil {
		t.Fatal(err)
	}
	q.fail(ErrClosed)
	if got := queuePending(q); got != 0 {
		t.Fatalf("pending = %d after fail, want 0", got)
	}
	if err := q.sendAsync(&wire.Message{Type: wire.TAck, Seq: 2, From: "a"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after fail got %v, want ErrClosed", err)
	}
	w.gate <- struct{}{} // let the parked flush finish
	waitDrained(t, q)
	_, stream := w.snapshot()
	if got := decodeAll(t, stream); len(got) != 1 || got[0].Seq != 0 {
		t.Fatalf("stream carries %v, want only the frame in flight before fail", got)
	}
}

// Wire stats must account every frame and flush.
func TestWriteQueueStats(t *testing.T) {
	var stats WireStats
	w := &countingWriter{}
	q := newWriteQueue(w, &stats)
	const n = 20
	for i := 0; i < n; i++ {
		if err := q.sendAsync(&wire.Message{Type: wire.TAck, Seq: uint64(i), From: "a"}); err != nil {
			t.Fatal(err)
		}
		waitDrained(t, q)
	}
	snap := stats.Snapshot()
	_, stream := w.snapshot()
	if snap.Frames != n {
		t.Fatalf("Frames = %d, want %d", snap.Frames, n)
	}
	if snap.Flushes != n { // serial sends: one flush each
		t.Fatalf("Flushes = %d, want %d", snap.Flushes, n)
	}
	if snap.Bytes != int64(len(stream)) {
		t.Fatalf("Bytes = %d, stream has %d", snap.Bytes, len(stream))
	}
	if (*WireStats)(nil).Snapshot() != (WireStatsSnapshot{}) {
		t.Fatal("nil WireStats should snapshot to zero")
	}
}

// A batch of large frames overflows coalesceLimit and goes out as one
// writev (net.Buffers); the stream must still carry intact frames.
func TestWriteQueueLargeSharedBody(t *testing.T) {
	w := &countingWriter{}
	q := newWriteQueue(w, nil)
	base := benchImageMessage(t, 600)
	const n = 4
	for i := 0; i < n; i++ {
		m := *base
		m.Seq = uint64(i)
		m.View = fmt.Sprintf("v%d", i)
		if err := q.sendAsync(&m); err != nil {
			t.Fatal(err)
		}
	}
	waitDrained(t, q)
	_, stream := w.snapshot()
	got := decodeAll(t, stream)
	if len(got) != n {
		t.Fatalf("decoded %d frames, want %d", len(got), n)
	}
	for i, m := range got {
		if m.View != fmt.Sprintf("v%d", i) || m.Img == nil || m.Img.Len() != base.Img.Len() {
			t.Fatalf("frame %d corrupted: %s", i, m)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// benchImageMessage builds a TUpdate with the given number of entries: at
// 600, a few of them overflow coalesceLimit, exercising the writev path.
func benchImageMessage(t testing.TB, entries int) *wire.Message {
	t.Helper()
	img := image.New()
	for i := 0; i < entries; i++ {
		img.Put(image.Entry{
			Key:     fmt.Sprintf("flight/%04d", i),
			Value:   []byte("NYC|SFO|200|57|19900"),
			Version: vclock.Version(i),
			Writer:  "agent-042",
		})
	}
	img.Version = vclock.Version(entries)
	return &wire.Message{Type: wire.TUpdate, From: "dm", Img: img, Version: img.Version}
}

func queuePending(q *writeQueue) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// queueFlushing reports whether the drainer has taken every queued frame
// into a flush that has not returned yet (with a gated writer: a flush
// parked in Write).
func queueFlushing(q *writeQueue) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.draining && len(q.pending) == 0
}

// waitDrained waits until the drainer has written (or dropped) every
// queued frame and exited.
func waitDrained(t *testing.T, q *writeQueue) {
	t.Helper()
	waitFor(t, func() bool {
		q.mu.Lock()
		defer q.mu.Unlock()
		return !q.draining
	})
}
