package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"flecc/internal/wire"
)

// benchSink counts Write calls — the syscall proxy for comparing the wire
// paths. Each Write yields to the scheduler, the way a real write syscall
// parks the goroutine in the kernel: that is exactly the window in which
// concurrent senders pile up behind the flush and coalescing pays off.
type benchSink struct {
	writes atomic.Int64
	bytes  atomic.Int64
}

func (w *benchSink) Write(p []byte) (int, error) {
	w.writes.Add(1)
	w.bytes.Add(int64(len(p)))
	runtime.Gosched()
	return len(p), nil
}

// BenchmarkCoalescedWrites compares the pre-change outbound path (every
// sender takes the write lock and issues its own Write — "direct") against
// the group-commit queue ("coalesced": senders enqueue, the drainer
// writes) with 8 concurrent senders sharing one link. writes/frame is the syscall ratio: 1.0 means every frame paid
// its own syscall; the coalesced path should sit well under 0.5 at this
// concurrency.
func BenchmarkCoalescedWrites(b *testing.B) {
	const senders = 8
	msg := func(i int) *wire.Message {
		return &wire.Message{Type: wire.TAck, Seq: uint64(i), From: "bench", Version: 9}
	}
	// drained waits until every sent frame has reached the sink.
	run := func(b *testing.B, send func(m *wire.Message) error, drained func(), sink *benchSink) {
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		per := b.N/senders + 1
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if err := send(msg(s*per + i)); err != nil {
						b.Error(err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		drained()
		b.StopTimer()
		frames := int64(senders * per)
		b.ReportMetric(float64(sink.writes.Load())/float64(frames), "writes/frame")
	}

	b.Run("direct", func(b *testing.B) {
		sink := &benchSink{}
		var mu sync.Mutex
		run(b, func(m *wire.Message) error {
			mu.Lock()
			defer mu.Unlock()
			return wire.WriteFrame(sink, m)
		}, func() {}, sink)
	})
	b.Run("coalesced", func(b *testing.B) {
		sink := &benchSink{}
		q := newWriteQueue(sink, nil)
		run(b, q.sendAsync, func() {
			for {
				q.mu.Lock()
				draining := q.draining
				q.mu.Unlock()
				if !draining {
					return
				}
				runtime.Gosched()
			}
		}, sink)
	})
}
