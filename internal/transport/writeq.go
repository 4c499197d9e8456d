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
// encode their frame, append it to the queue, and return; a background
// drainer, alive while any frames remain, takes everything queued into a
// single write (memcpy + one Write for small batches, one writev for
// large ones). Frames that queue behind an in-flight write therefore
// share the next one, and frames go out in exactly the order they were
// enqueued.
//
// Ownership: enqueueing transfers the pooled frame to the queue, the only
// owner from then on, which releases it exactly once after the write
// attempt (or on failure). A write failure poisons the queue: later
// senders get the sticky error, and the owner learns of it through onFail.
type writeQueue struct {
	w     io.Writer
	stats *WireStats // nil disables accounting

	// onFail, if set, is invoked (without mu) when the drainer observes
	// the queue poisoned: senders have already returned, so the owner
	// (the peer) learns this way.
	onFail func(error)

	// drain is drainLoop as a func value, bound once so starting a
	// drainer (go q.drain()) allocates no closure.
	drain func()

	mu      sync.Mutex
	cond    *sync.Cond
	pending []*wire.EncodedFrame
	// spare is the previous flush's batch slice, emptied: the next flush
	// swaps it in for pending instead of growing a fresh one.
	spare    []*wire.EncodedFrame
	draining bool // a drainer goroutine owns the pending frames
	// corked holds the drainer so replies to a request burst accumulate
	// into one batch; the read loop uncorks before it blocks on input.
	corked  bool
	err     error  // sticky: first write failure or fail() reason
	scratch []byte // flush coalescing buffer; only the drainer touches it
}

func newWriteQueue(w io.Writer, stats *WireStats) *writeQueue {
	q := &writeQueue{w: w, stats: stats}
	q.cond = sync.NewCond(&q.mu)
	q.drain = q.drainLoop
	return q
}

// sendAsync encodes m, enqueues it, and returns without waiting for the
// write. Frames enqueued while a flush is in flight coalesce into the
// next batch, so even a single sender streaming frames batches them
// instead of paying one syscall each. A write failure poisons the queue
// and is reported through onFail.
func (q *writeQueue) sendAsync(m *wire.Message) error { return q.sendAs(m, m.Seq, m.From) }

// sendAs is sendAsync with the frame's Seq and From stamped as seq and
// from, leaving m untouched.
func (q *writeQueue) sendAs(m *wire.Message, seq uint64, from string) error {
	f, err := wire.EncodeFrame(m, seq, from)
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
	if !q.draining {
		q.draining = true
		go q.drain()
	}
	q.mu.Unlock()
	return nil
}

// drainSmallBatch is the batch size below which the drainer yields the
// processor once before flushing: concurrent producers that are already
// runnable (a burst of reply handlers, concurrent callers) get to
// enqueue, and their frames ride the same flush instead of paying one
// write syscall each. One bounded yield, not a wait — an idle connection
// still flushes its lone frame immediately after.
const drainSmallBatch = 8

// drainLoop flushes until no frames remain, holding while the queue is
// corked.
func (q *writeQueue) drainLoop() {
	yielded := false
	q.mu.Lock()
	for q.err == nil && len(q.pending) > 0 {
		if q.corked {
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
	q.cond.Broadcast() // wakes flush
	err := q.err
	q.mu.Unlock()
	if err != nil && q.onFail != nil {
		q.onFail(err)
	}
}

// cork holds the drainer so frames accumulate into one batch. No sender
// waits on a flush, so corking can never deadlock one.
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

// flush uncorks the queue and waits until every frame queued so far has
// been written, or the queue has failed.
func (q *writeQueue) flush() {
	q.mu.Lock()
	q.corked = false
	q.cond.Broadcast()
	for q.err == nil && q.draining {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// flushLocked takes the whole pending queue and writes it as one batch.
// Called by the drainer with mu held; temporarily releases it around the
// write so senders keep queueing behind the in-flight flush.
func (q *writeQueue) flushLocked() {
	batch := q.pending
	q.pending, q.spare = q.spare, nil
	q.mu.Unlock()

	err := q.writeBatch(batch)
	for i, f := range batch {
		f.Release()
		batch[i] = nil
	}

	q.mu.Lock()
	q.spare = batch[:0]
	if err != nil {
		q.failLocked(err)
	}
}

// writeBatch issues one batch to the writer: a single Write of the
// coalesced bytes when the batch is small, a single writev (net.Buffers)
// when it is large, and the frame's own bytes when it stands alone.
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
		_, err := q.w.Write(batch[0].Bytes())
		return err
	}
	if total <= coalesceLimit {
		buf := q.scratch[:0]
		for _, f := range batch {
			buf = append(buf, f.Bytes()...)
		}
		if cap(buf) <= maxFlushScratch {
			q.scratch = buf
		}
		_, err := q.w.Write(buf)
		return err
	}
	var bufs net.Buffers
	for _, f := range batch {
		bufs = append(bufs, f.Bytes())
	}
	_, err := bufs.WriteTo(q.w)
	return err
}

// fail poisons the queue: queued-but-unwritten frames are released, all
// future senders get err, and a corked drainer wakes to exit. The peer's
// shutdown path calls it so nothing is written to a dead connection.
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
