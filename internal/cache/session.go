package cache

import (
	"errors"
	"fmt"

	"flecc/internal/image"
	"flecc/internal/transport"
	"flecc/internal/wire"
)

// ErrSessionReset is the typed failure every in-flight push round resolves
// with when the CM↔DM session dies under it — a dropped connection, an
// injected fault, or a reconnect cycle replacing the endpoint. The writes
// are NOT lost: they remain pending locally (the delta is re-extracted from
// the view on the next round), so the caller's recovery is simply to push
// again once the session is re-established. The error is also a transport
// error (transport.IsTransportError), which is what sends a synchronous
// push through the reconnect cycle.
var ErrSessionReset = errors.New("cache: session reset; in-flight push aborted")

// PushFuture is the completion handle of one asynchronous push round.
// Rounds complete in issue order (at most one is on the wire, the next
// coalesces behind it), and a future resolves exactly once.
type PushFuture struct {
	done chan struct{}
	err  error // written before done closes; read after
}

// Done returns a channel closed when the round has resolved.
func (f *PushFuture) Done() <-chan struct{} { return f.done }

// Wait blocks until the round resolves and returns its outcome.
func (f *PushFuture) Wait() error {
	<-f.done
	return f.err
}

// pushRound is one coalesced batch of local writes on its way to the DM;
// every push, synchronous or not, is one. The delta is NOT captured when
// the round starts: it is extracted at dispatch, after the previous
// round's ack has folded into the base snapshot — that is what makes
// adjacent pushes coalesce into a single TPush and keeps per-key version
// bookkeeping exact. Synchronous pushers wait for done on the manager's
// cond; the future exists only once PushImageAsync has handed it out.
type pushRound struct {
	x    extracted    // the dispatched delta; zero until dispatch
	req  wire.Message // the round's TPush
	done bool         // guarded by the manager's mu, like everything below
	err  error        // the outcome, set with done
	fut  *PushFuture  // nil until an asynchronous caller joins
}

// PushImage sends the view's modified data to the original component. It
// joins the buffered push round (starting one if none is waiting), pumps
// it on the calling goroutine and waits for it. The round extracts the
// view's changed entries at dispatch and sends only those, stamped with
// the version they were based on (for conflict detection at the primary);
// a clean view sends nothing. The round waits for an open use window to
// close, so a goroutine must not push from inside its own. A round lost
// with its session is rebuilt after the reconnect cycle by extracting
// again, never re-sent: the cycle's re-pull has already folded whatever
// the lost round committed.
func (m *Manager) PushImage() error {
	return m.withReconnect(sessionReset, func(transport.Endpoint) error {
		m.mu.Lock()
		defer m.mu.Unlock()
		r, err := m.roundLocked()
		if err != nil {
			return err
		}
		return m.awaitLocked(r)
	})
}

func sessionReset(err error) bool { return errors.Is(err, ErrSessionReset) }

// finalPush is KillImage's push: it waits out the outstanding rounds and,
// when writes are pending or a use window is open, one more round behind
// them, and then makes the view refuse new rounds. The round waits for
// the open window like any push, so its writes are not dropped. A failure
// leaves the view taking rounds.
func (m *Manager) finalPush(transport.Endpoint) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.killed && (m.inflight != nil || m.buffer != nil || m.inUse || m.valid && m.pendingOps > 0) {
		r, err := m.roundLocked()
		if err != nil {
			return err
		}
		if err := m.awaitLocked(r); err != nil {
			return err
		}
	}
	m.killed = true
	return nil
}

// PushImageAsync starts (or joins) a push round and returns its future. At
// most one round is in flight per session; a second call while one is on
// the wire buffers a follow-up round, and further calls coalesce into that
// buffer — so W rapid writers cost two TPush rounds, not W. Ordering:
// rounds complete in issue order; a round's delta is extracted at dispatch
// time, so it carries every local write made before dispatch (callers
// joined to the same future all ride the same round). On session death the
// future resolves with ErrSessionReset.
func (m *Manager) PushImageAsync() *PushFuture {
	m.mu.Lock()
	defer m.mu.Unlock()
	fresh := m.buffer == nil
	r, err := m.roundLocked()
	if err != nil {
		f := &PushFuture{done: make(chan struct{}), err: err}
		close(f.done)
		return f
	}
	if r.fut == nil {
		r.fut = &PushFuture{done: make(chan struct{})}
	}
	if fresh && !m.manualFlush {
		go m.pump(r)
	}
	return r.fut
}

// Flush dispatches any buffered round and waits for every outstanding
// round to resolve, returning the first error. Under Config.ManualFlush it
// and PushImage are the only dispatchers, which keeps deterministic
// harnesses (model checker, seeded soaks) in control of when the wire is
// touched. SetMode, SetProps and KillImage flush first, so they take
// effect on a quiet session, never between a round's dispatch and its ack.
// Like PushImage, none of them may be called inside the caller's own use
// window while a round is outstanding: the round waits for that window.
func (m *Manager) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var first error
	for _, r := range [2]*pushRound{m.inflight, m.buffer} {
		if r != nil {
			if err := m.awaitLocked(r); first == nil {
				first = err
			}
		}
	}
	return first
}

// PushPending reports whether any push round is buffered or in flight.
func (m *Manager) PushPending() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inflight != nil || m.buffer != nil
}

// roundLocked returns the round new writes join: the buffered one, or a
// fresh one. Caller holds mu.
func (m *Manager) roundLocked() (*pushRound, error) {
	switch {
	case !m.initialized:
		return nil, ErrNotInitialized
	case m.killed:
		return nil, transport.ErrClosed
	}
	if m.buffer == nil {
		m.buffer = &pushRound{}
	}
	return m.buffer, nil
}

// awaitLocked waits until round r resolves and returns its outcome. While
// no round is in flight the waiter dispatches the buffered one itself, so
// a round never depends on another goroutine to reach the wire. Caller
// holds mu.
func (m *Manager) awaitLocked(r *pushRound) error {
	for !r.done {
		if m.inflight == nil && m.buffer != nil {
			m.dispatchLocked()
		} else {
			m.cond.Wait()
		}
	}
	return r.err
}

// pump drives round r until it resolves: the goroutine PushImageAsync
// starts when rounds dispatch automatically. It outlives a round another
// caller has in flight, so a round buffered behind a synchronous push
// still goes out when that push returns.
func (m *Manager) pump(r *pushRound) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.awaitLocked(r)
}

// dispatchLocked sends the buffered round: it extracts the delta and
// either completes a clean round on the spot or puts the TPush on the
// wire. Like a fetch, it extracts only between use windows, so a round
// carries whole windows and counts each once; while one is open it just
// waits for a change and returns, and the caller re-checks. The call is a
// blocking Call on the dispatching goroutine, made without mu: on Inproc
// the DM handler runs inline and may call back into this manager
// (handleUpdate). Caller holds mu, with a round buffered and none in
// flight.
func (m *Manager) dispatchLocked() {
	if m.inUse {
		m.cond.Wait()
		return
	}
	r := m.buffer
	m.buffer = nil
	x, err := m.extractDeltaLocked()
	if err != nil {
		m.resolveRoundLocked(r, err)
		return
	}
	r.x = x
	if x.delta.Entries == nil {
		m.completeRoundLocked(r, &cleanAck, nil)
		return
	}
	m.inflight = r
	// The delta lives in the round, which is on the heap already.
	r.req = wire.Message{Type: wire.TPush, Img: &r.x.delta, Ops: uint32(x.ops)}
	ep := m.ep
	m.mu.Unlock()
	reply, err := ep.Call(m.dir, &r.req)
	m.mu.Lock()
	m.completeRoundLocked(r, reply, err)
	wire.Recycle(reply)
}

// cleanAck stands in, read-only, for the reply to a clean round, which
// never goes out. The pool did not make it: wire.Recycle leaves it alone.
var cleanAck wire.Message

// completeRoundLocked applies one round's outcome. Success folds the
// pushed keys into the base snapshot, retires the ops the round carried
// and adopts resolver winners; a transport-level failure resets the whole
// session (this round AND the buffered one fail with ErrSessionReset —
// their writes stay pending locally); a remote protocol error fails only
// this round. Caller holds mu.
func (m *Manager) completeRoundLocked(r *pushRound, reply *wire.Message, err error) {
	if r.done {
		return // a session reset resolved it while the call was out
	}
	if err != nil && redialable(err) {
		// A dead link or a "not serving" refusal from a deposed primary:
		// the reconnect cycle of a synchronous push waiting on the round,
		// or of the next synchronous call, re-dials, toward the promoted
		// standby if need be.
		m.failSessionLocked(err)
		return
	}
	m.inflight = nil
	if err != nil {
		m.resolveRoundLocked(r, err)
		return
	}
	// Fold only the pushed keys into the base snapshot. The manager was
	// unlocked during the call, so a propagated update or a reconnect
	// re-pull may have merged fresh remote entries meanwhile; wholesale
	// replacing base with the pre-call extract would regress those keys,
	// leaving the view looking dirty with stale data that a later push
	// would echo over newer commits.
	m.foldLocked(r.x, reply.Version)
	if r.x.delta.Entries != nil {
		m.acked = reply.Version
	}
	// Retire only the ops this round carried: use windows closed while
	// the round was on the wire belong to the next one.
	m.pendingOps = max(m.pendingOps-r.x.ops, 0)
	m.lastPush = m.clock.Now()
	// Note: seen does NOT advance here. The push ack's version covers only
	// this view's own commit; updates other writers committed since the
	// last pull remain unobserved, and advancing seen past them would make
	// later delta pulls skip them forever. What the ack buys is acked: the
	// next pull names it, and the directory leaves this commit out of the
	// reply if it stored exactly the pushed values (PROTOCOL.md "The pull
	// algorithm").
	//
	// If the directory's resolver rejected some of our entries, the ack
	// carries the winning values; adopt them so the view converges on the
	// resolved state instead of silently keeping the losing data.
	if reply.Img != nil && reply.Img.Len() > 0 {
		// Version 0: do not advance seen (see above).
		err = m.applyIncomingLocked(&image.Image{Entries: reply.Img.Entries}, 0)
	}
	m.resolveRoundLocked(r, err)
}

// failSessionLocked resolves every outstanding round with ErrSessionReset
// (naming the cause), so completions of already-dispatched calls that
// straggle in find their round resolved and are ignored. The writes those
// rounds carried stay pending locally — extractDeltaLocked will pick them
// up again on the next round over the new session. Caller holds mu;
// idempotent.
func (m *Manager) failSessionLocked(cause error) {
	err := fmt.Errorf("cache %s: %w (%v)", m.name, ErrSessionReset, cause)
	for _, r := range [2]*pushRound{m.inflight, m.buffer} {
		if r != nil {
			m.resolveRoundLocked(r, err)
		}
	}
	m.inflight, m.buffer = nil, nil
}

// resolveRoundLocked resolves a round, which must not be resolved yet,
// and wakes its waiters. Caller holds mu.
func (m *Manager) resolveRoundLocked(r *pushRound, err error) {
	r.done, r.err = true, err
	if r.fut != nil {
		r.fut.err = err
		close(r.fut.done)
	}
	m.cond.Broadcast()
}
