package transport

import (
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"flecc/internal/wire"
)

// WireStats counts the frames and write syscalls a connection (or a whole
// server's connection set) has issued, so deployments can observe how well
// the group-commit write path is coalescing: frames/flushes is the mean
// batch size, 1.0 meaning no concurrency to exploit.
type WireStats struct {
	frames  atomic.Int64
	flushes atomic.Int64
	bytes   atomic.Int64
	late    atomic.Int64
}

// Snapshot returns the current counter values.
func (s *WireStats) Snapshot() WireStatsSnapshot {
	if s == nil {
		return WireStatsSnapshot{}
	}
	return WireStatsSnapshot{
		Frames:      s.frames.Load(),
		Flushes:     s.flushes.Load(),
		Bytes:       s.bytes.Load(),
		LateReplies: s.late.Load(),
	}
}

// WireStatsSnapshot is a point-in-time copy of a WireStats.
type WireStatsSnapshot struct {
	// Frames is the number of frames written.
	Frames int64
	// Flushes is the number of write batches issued to the socket; each
	// batch is one write/writev syscall for all but oversized payloads.
	Flushes int64
	// Bytes is the total framed bytes written.
	Bytes int64
	// LateReplies is the number of inbound replies whose Seq matched no
	// pending call — the caller had already timed out or abandoned it —
	// and which the read loop therefore dropped.
	LateReplies int64
}

// coalesceLimit bounds the batch size the flusher memcopies into its
// scratch buffer for a single Write. Larger batches go out as one writev
// (net.Buffers) instead — copying megabytes to save iovec bookkeeping is
// a losing trade.
const coalesceLimit = 64 << 10

// maxFlushScratch caps the scratch kept between flushes, so one large
// batch does not pin its buffer for the connection's lifetime.
const maxFlushScratch = 128 << 10

// writeQueue is the group-commit outbound path of one connection. Senders
// encode their frame, append it to the queue, and wait; whichever sender
// finds no flush in progress becomes the flusher and drains everything
// queued behind it into a single write (memcpy + one Write for small
// batches, one writev for large ones). N concurrent senders therefore
// collapse into ~1 syscall instead of N, and frames go out in exactly the
// order they were enqueued.
//
// Ownership: enqueueing transfers the frame to the queue, which releases
// it after the write attempt (or on failure). A sender returns when its
// frame has been written, or with the sticky error once the queue fails.
type writeQueue struct {
	w     io.Writer
	stats *WireStats // nil disables accounting

	// onFail, if set, is invoked (without mu) when the background drainer
	// observes the queue poisoned: async frames have no blocked sender to
	// return the error to, so the owner (the peer) learns this way.
	onFail func(error)

	mu       sync.Mutex
	cond     *sync.Cond
	pending  []*wire.EncodedFrame
	enqueued uint64 // frames ever enqueued
	written  uint64 // frames flushed successfully
	flushing bool
	draining bool // a background drainer owns leftover async frames
	// corked holds the background drainer (async frames only — sync
	// senders still flush) so replies to a request burst accumulate into
	// one batch; the read loop uncorks before it blocks on input.
	corked  bool
	err     error  // sticky: first write failure or fail() reason
	scratch []byte // flush coalescing buffer; only the flusher touches it
}

func newWriteQueue(w io.Writer, stats *WireStats) *writeQueue {
	q := &writeQueue{w: w, stats: stats}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// send encodes m and writes it to the stream, possibly batched with other
// senders' frames. It returns once the frame has hit the writer (order
// preserved: frames are written in enqueue order) or the queue has failed.
func (q *writeQueue) send(m *wire.Message) error {
	f, err := wire.EncodeFrame(m)
	if err != nil {
		return err
	}
	q.mu.Lock()
	if q.err != nil {
		err := q.err
		q.mu.Unlock()
		f.Release()
		return err
	}
	q.pending = append(q.pending, f)
	my := q.enqueued
	q.enqueued++
	for {
		if q.written > my {
			q.mu.Unlock()
			return nil
		}
		if q.err != nil {
			err := q.err
			q.mu.Unlock()
			return err
		}
		if !q.flushing {
			q.flushLocked()
			continue // re-check: our frame was in the batch we just flushed
		}
		q.cond.Wait()
	}
}

// sendAsync encodes m, enqueues it, and returns without waiting for the
// write — the pipelined-call fast path. Frames enqueued while a flush is
// in flight coalesce into the next batch, so a single issuer streaming
// async calls batches its frames automatically instead of paying one
// syscall each. Because no sender blocks on an async frame, a background
// drainer is kept alive while any remain; enqueue order is still globally
// preserved across send and sendAsync. A write failure poisons the queue
// and is reported through onFail (async senders have already returned).
func (q *writeQueue) sendAsync(m *wire.Message) error {
	f, err := wire.EncodeFrame(m)
	if err != nil {
		return err
	}
	q.mu.Lock()
	if q.err != nil {
		err := q.err
		q.mu.Unlock()
		f.Release()
		return err
	}
	q.pending = append(q.pending, f)
	q.enqueued++
	if !q.draining {
		q.draining = true
		go q.drainLoop()
	}
	q.mu.Unlock()
	return nil
}

// drainSmallBatch is the batch size below which the drainer yields the
// processor once before flushing: concurrent producers that are already
// runnable (a burst of reply handlers, a pipelining issuer) get to
// enqueue, and their frames ride the same flush instead of paying one
// write syscall each. One bounded yield, not a wait — an idle connection
// still flushes its lone frame immediately after.
const drainSmallBatch = 8

// drainLoop flushes until no async frames remain, yielding to sync
// senders' in-flight flushes (their batches carry our frames too) and
// holding while the queue is corked.
func (q *writeQueue) drainLoop() {
	yielded := false
	q.mu.Lock()
	for q.err == nil && len(q.pending) > 0 {
		if q.flushing || q.corked {
			q.cond.Wait()
			continue
		}
		if !yielded && len(q.pending) < drainSmallBatch {
			yielded = true
			q.mu.Unlock()
			runtime.Gosched()
			q.mu.Lock()
			continue
		}
		yielded = false
		q.flushLocked()
	}
	q.draining = false
	err := q.err
	q.mu.Unlock()
	if err != nil && q.onFail != nil {
		q.onFail(err)
	}
}

// cork holds async flushes so frames accumulate into one batch. Sync
// sends are unaffected (they flush corked frames along with their own),
// so corking can never deadlock a sender — it only defers the drainer.
func (q *writeQueue) cork() {
	q.mu.Lock()
	q.corked = true
	q.mu.Unlock()
}

// uncork releases held frames to the drainer. The read loop calls it
// before blocking on input, bounding how long a cork can last.
func (q *writeQueue) uncork() {
	q.mu.Lock()
	q.corked = false
	q.cond.Broadcast()
	q.mu.Unlock()
}

// flushLocked takes the whole pending queue and writes it as one batch.
// Called with mu held; temporarily releases it around the write so other
// senders keep queueing behind the in-flight flush. Every pending frame
// has a sender blocked in send, so after this flush completes there is
// always another sender awake to flush whatever queued meanwhile.
func (q *writeQueue) flushLocked() {
	batch := q.pending
	q.pending = nil
	q.flushing = true
	q.mu.Unlock()

	err := q.writeBatch(batch)
	for _, f := range batch {
		f.Release()
	}

	q.mu.Lock()
	q.flushing = false
	if err != nil {
		q.failLocked(err)
	} else {
		q.written += uint64(len(batch))
	}
	q.cond.Broadcast()
}

// writeBatch issues one batch to the writer: a single Write of the
// coalesced bytes when the batch is small, a single writev (net.Buffers)
// when it is large, and the frame's own WriteTo when it stands alone.
func (q *writeQueue) writeBatch(batch []*wire.EncodedFrame) error {
	total := 0
	for _, f := range batch {
		total += f.Len()
	}
	if q.stats != nil {
		q.stats.frames.Add(int64(len(batch)))
		q.stats.flushes.Add(1)
		q.stats.bytes.Add(int64(total))
	}
	if len(batch) == 1 {
		_, err := batch[0].WriteTo(q.w)
		return err
	}
	if total <= coalesceLimit {
		buf := q.scratch[:0]
		for _, f := range batch {
			for _, seg := range f.Segments() {
				buf = append(buf, seg...)
			}
		}
		if cap(buf) <= maxFlushScratch {
			q.scratch = buf
		}
		_, err := q.w.Write(buf)
		return err
	}
	var bufs net.Buffers
	for _, f := range batch {
		bufs = append(bufs, f.Segments()...)
	}
	_, err := bufs.WriteTo(q.w)
	return err
}

// fail poisons the queue: queued-but-unwritten senders (and all future
// ones) get err, and their frames are released. The peer's shutdown path
// calls it so no sender blocks on a dead connection.
func (q *writeQueue) fail(err error) {
	q.mu.Lock()
	q.failLocked(err)
	q.cond.Broadcast()
	q.mu.Unlock()
}

// failLocked records the sticky error and releases undelivered frames.
// Caller holds mu.
func (q *writeQueue) failLocked(err error) {
	if q.err == nil {
		q.err = err
	}
	for _, f := range q.pending {
		f.Release()
	}
	q.pending = nil
}
