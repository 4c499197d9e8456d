package cache

import (
	"errors"
	"fmt"

	"flecc/internal/transport"
	"flecc/internal/wire"
)

// ErrSessionReset is the typed failure every in-flight asynchronous push
// resolves with when the CM↔DM session dies under it — a dropped
// connection, an injected fault, or a reconnect cycle replacing the
// endpoint. The writes are NOT lost: they remain pending locally (the
// delta is re-extracted from the view on the next push), so the caller's
// recovery is simply to push again once the session is re-established.
var ErrSessionReset = errors.New("cache: session reset; in-flight push aborted")

// PushFuture is the completion handle of one asynchronous push round.
// Rounds complete in issue order (at most one is on the wire, the next
// coalesces behind it), and a future resolves exactly once.
type PushFuture struct {
	done     chan struct{}
	err      error // written before done closes; read after
	resolved bool  // guarded by the owning manager's mu
}

func newPushFuture() *PushFuture {
	return &PushFuture{done: make(chan struct{})}
}

func resolvedFuture(err error) *PushFuture {
	f := newPushFuture()
	f.resolved = true
	f.err = err
	close(f.done)
	return f
}

// Done returns a channel closed when the round has resolved.
func (f *PushFuture) Done() <-chan struct{} { return f.done }

// Wait blocks until the round resolves and returns its outcome.
func (f *PushFuture) Wait() error {
	<-f.done
	return f.err
}

// pushRound is one coalesced batch of local writes on its way to the DM.
// The delta is NOT captured at buffering time: it is extracted lazily at
// dispatch, after the previous round's ack has folded into the base
// snapshot — that is what makes adjacent PushImageAsync calls coalesce
// into a single TPush and keeps per-key version bookkeeping exact.
type pushRound struct {
	fut *PushFuture
	x   extracted // the dispatched delta; zero until dispatch
	gen uint64    // session generation at creation; stale rounds are dead
}

// PushImageAsync starts (or joins) an asynchronous push round and returns
// its future. At most one round is in flight per session; a second call
// while one is on the wire buffers a follow-up round, and further calls
// coalesce into that buffer — so W rapid writers cost two TPush rounds,
// not W. Ordering: rounds complete in issue order; a round's delta is
// extracted at dispatch time, so it carries every local write made before
// dispatch (callers joined to the same future all ride the same round).
// On session death the future resolves with ErrSessionReset.
func (m *Manager) PushImageAsync() *PushFuture {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.initialized {
		return resolvedFuture(ErrNotInitialized)
	}
	if m.killed {
		return resolvedFuture(transport.ErrClosed)
	}
	if m.buffer != nil {
		return m.buffer.fut // coalesce into the waiting round
	}
	m.buffer = &pushRound{fut: newPushFuture(), gen: m.sessGen}
	fut := m.buffer.fut
	if !m.manualFlush {
		go m.pump()
	}
	return fut
}

// Flush dispatches any buffered round and waits for every outstanding
// round to resolve, returning the first error. Under Config.ManualFlush
// this is the only dispatcher, which keeps deterministic harnesses
// (model checker, seeded soaks) in control of when the wire is touched.
func (m *Manager) Flush() error {
	m.mu.Lock()
	var futs []*PushFuture
	if m.inflight != nil {
		futs = append(futs, m.inflight.fut)
	}
	if m.buffer != nil {
		futs = append(futs, m.buffer.fut)
	}
	m.mu.Unlock()
	if len(futs) == 0 {
		return nil
	}
	m.pump()
	var first error
	for _, f := range futs {
		if err := f.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PushPending reports whether any asynchronous push round is buffered or
// in flight.
func (m *Manager) PushPending() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inflight != nil || m.buffer != nil
}

// pump dispatches rounds while none is in flight. It is safe to call from
// any goroutine at any time: the inflight/buffer state under mu makes
// concurrent pumps collapse to one dispatcher. Each round is a blocking
// Call on the pumping goroutine — the auto-dispatch goroutine, or the
// Flush/drain caller — so every transport runs the same pump body, and
// on Inproc/netsim a ManualFlush session spawns nothing.
func (m *Manager) pump() {
	for {
		m.mu.Lock()
		if m.inflight != nil || m.buffer == nil {
			m.mu.Unlock()
			return
		}
		r := m.buffer
		m.buffer = nil
		if r.gen != m.sessGen {
			// A session reset raced the promotion; the round was already
			// resolved with ErrSessionReset.
			m.mu.Unlock()
			continue
		}
		x, err := m.extractDeltaLocked()
		if err != nil {
			m.resolveRoundLocked(r, err)
			m.mu.Unlock()
			continue
		}
		if x.delta == nil {
			m.foldLocked(x, 0)
			m.pendingOps -= x.ops
			if m.pendingOps < 0 {
				m.pendingOps = 0
			}
			m.lastPush = m.clock.Now()
			m.resolveRoundLocked(r, nil)
			m.mu.Unlock()
			continue
		}
		r.x = x
		m.inflight = r
		req := &wire.Message{Type: wire.TPush, Img: x.delta, Ops: uint32(x.ops)}
		ep := m.ep
		m.mu.Unlock()

		// The call itself runs without mu: on Inproc the DM handler runs
		// inline and may call back into this manager (handleUpdate).
		reply, cerr := ep.Call(m.dir, req)
		m.completeRound(r, reply, cerr)
	}
}

// completeRound applies one round's outcome. Success folds the pushed
// keys into the base snapshot exactly like the synchronous PushImage; a
// transport-level failure resets the whole session (this round AND the
// buffered one fail with ErrSessionReset — their writes stay pending
// locally); a remote protocol error fails only this round.
func (m *Manager) completeRound(r *pushRound, reply *wire.Message, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.inflight == r {
		m.inflight = nil
	}
	if r.gen != m.sessGen || r.fut.resolved {
		return // a session reset got here first
	}
	if err != nil {
		if redialable(err) {
			// A dead link or a "not serving" refusal from a deposed
			// primary: this round already left the inflight slot above, so
			// fail it explicitly, then reset the rest of the session. The
			// writes stay pending locally and the next synchronous call's
			// reconnect cycle re-dials toward the promoted standby.
			m.resolveRoundLocked(r, fmt.Errorf("cache %s: %w (%v)", m.name, ErrSessionReset, err))
			m.failSessionLocked(err)
		} else {
			m.resolveRoundLocked(r, err)
		}
		return
	}
	m.resolveRoundLocked(r, m.finishPushLocked(r.x, reply))
}

// finishPushLocked is the shared push-ack bookkeeping for the sync and
// async paths: fold the pushed keys into the base snapshot, retire the
// ops the round carried, and adopt resolver winners. Caller holds mu.
func (m *Manager) finishPushLocked(x extracted, reply *wire.Message) error {
	// Fold only the pushed keys into the base snapshot. The manager was
	// unlocked during the call, so a propagated update or a reconnect
	// re-pull may have merged fresh remote entries meanwhile; wholesale
	// replacing base with the pre-call extract would regress those keys,
	// leaving the view looking dirty with stale data that a later push
	// would echo over newer commits.
	m.foldLocked(x, reply.Version)
	// Retire only the ops this round carried: use windows closed while
	// the round was on the wire belong to the next one.
	m.pendingOps -= x.ops
	if m.pendingOps < 0 {
		m.pendingOps = 0
	}
	m.lastPush = m.clock.Now()
	// Note: seen does NOT advance here. The push ack's version covers only
	// this view's own commit; updates other writers committed since the
	// last pull remain unobserved, and advancing seen past them would make
	// later delta pulls skip them forever.
	//
	// If the directory's resolver rejected some of our entries, the ack
	// carries the winning values; adopt them so the view converges on the
	// resolved state instead of silently keeping the losing data.
	if reply.Img != nil && reply.Img.Len() > 0 {
		winners := reply.Img.Clone()
		winners.Version = 0 // do not advance seen (see above)
		if err := m.applyIncomingLocked(winners, 0); err != nil {
			return err
		}
	}
	return nil
}

// failSessionLocked resolves every outstanding round with ErrSessionReset
// (wrapping the cause) and bumps the session generation so completions of
// already-dispatched calls are ignored when they straggle in. The writes
// those rounds carried stay pending locally — extractDeltaLocked will
// pick them up again on the next round over the new session. Caller
// holds mu; idempotent.
func (m *Manager) failSessionLocked(cause error) {
	err := fmt.Errorf("cache %s: %w (%v)", m.name, ErrSessionReset, cause)
	if m.inflight != nil {
		m.resolveRoundLocked(m.inflight, err)
		m.inflight = nil
	}
	if m.buffer != nil {
		m.resolveRoundLocked(m.buffer, err)
		m.buffer = nil
	}
	m.sessGen++
}

// resolveRoundLocked resolves a round's future exactly once. Caller
// holds mu.
func (m *Manager) resolveRoundLocked(r *pushRound, err error) {
	if r.fut.resolved {
		return
	}
	r.fut.resolved = true
	r.fut.err = err
	close(r.fut.done)
}

// drainPushes dispatches and waits out every outstanding async round —
// the window-drain rule: synchronous operations (PushImage, SetMode,
// SetProps, KillImage) observe a quiet session so they cannot interleave
// with a round that is still reshaping the base snapshot. Round errors
// are reported through their futures, not here.
func (m *Manager) drainPushes() {
	for {
		m.mu.Lock()
		var fut *PushFuture
		if m.inflight != nil {
			fut = m.inflight.fut
		} else if m.buffer != nil {
			fut = m.buffer.fut
		}
		m.mu.Unlock()
		if fut == nil {
			return
		}
		m.pump()
		<-fut.Done()
	}
}
