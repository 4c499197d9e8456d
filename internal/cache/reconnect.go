package cache

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"time"

	"flecc/internal/transport"
	"flecc/internal/wire"
)

// Default reconnect-policy knobs (see ReconnectPolicy).
const (
	DefaultReconnectAttempts = 8
	DefaultReconnectBase     = 10 * time.Millisecond
	DefaultReconnectMax      = 2 * time.Second
)

// ReconnectPolicy makes a cache manager survive its endpoint dying — a
// directory-manager restart, a dropped TCP connection, or an injected
// fault. When a CM→DM call fails at the transport level, the manager
// closes the dead endpoint, re-attaches to the network under its name
// (over a DialNetwork this dials a fresh connection), re-registers with
// its current properties and mode (the DM side is idempotent: same props
// keep seen/mode), re-pulls the delta since its seen version, and then
// retries the original call (a push rebuilds its round from the view
// instead, so a push whose reply was lost is not committed twice).
// Attempts are spaced by exponential backoff with jitter so a herd of
// clients re-dialing a restarted daemon spreads out.
//
// A nil policy in Config disables reconnection: transport errors surface
// to the caller exactly as before.
type ReconnectPolicy struct {
	// Attempts bounds the reconnect cycles per call before giving up.
	Attempts int
	// Base is the backoff before the second attempt; it doubles per
	// attempt (the first retry is immediate).
	Base time.Duration
	// Max caps the backoff.
	Max time.Duration
	// Jitter spreads each backoff uniformly over ±Jitter fraction of its
	// value; 0 means a deterministic schedule.
	Jitter float64
	// Seed fixes the jitter stream for reproducible runs; 0 derives a
	// seed from the manager's name.
	Seed int64
	// Sleep replaces time.Sleep between attempts (tests).
	Sleep func(time.Duration)
}

func (p ReconnectPolicy) withDefaults() ReconnectPolicy {
	if p.Attempts <= 0 {
		p.Attempts = DefaultReconnectAttempts
	}
	if p.Base <= 0 {
		p.Base = DefaultReconnectBase
	}
	if p.Max <= 0 {
		p.Max = DefaultReconnectMax
	}
	return p
}

// reconnector holds the manager's reconnect machinery, separate from the
// protocol state guarded by Manager.mu. reconMu serializes reconnect
// cycles; it is never held while Manager.mu is wanted by the transport
// handler path, only around attach/register/pull calls.
type reconnector struct {
	pol ReconnectPolicy

	mu  sync.Mutex
	rng *rand.Rand
}

func newReconnector(name string, pol ReconnectPolicy) *reconnector {
	pol = pol.withDefaults()
	seed := pol.Seed
	if seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(name))
		seed = int64(h.Sum64())
	}
	return &reconnector{pol: pol, rng: rand.New(rand.NewSource(seed))}
}

func (rc *reconnector) pause(attempt int) {
	if attempt <= 1 {
		return // first retry is immediate
	}
	d := rc.pol.Base
	for i := 2; i < attempt && d < rc.pol.Max; i++ {
		d *= 2
	}
	if d > rc.pol.Max {
		d = rc.pol.Max
	}
	if rc.pol.Jitter > 0 {
		f := 1 + rc.pol.Jitter*(2*rc.rng.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	if d <= 0 {
		return
	}
	if rc.pol.Sleep != nil {
		rc.pol.Sleep(d)
		return
	}
	time.Sleep(d)
}

// redialable reports whether a failed CM→DM call should trigger a
// reconnect cycle: any transport-level failure, or a remote "not
// serving" refusal — the directory node answered but is a standby (or a
// fenced ex-primary), so the client should rotate toward the promoted
// node rather than surface the refusal.
func redialable(err error) bool {
	return transport.IsTransportError(err) ||
		strings.Contains(err.Error(), wire.NotServingMark)
}

// call issues a CM→DM request through the current endpoint, transparently
// running reconnect cycles on transport-level failures when a policy is
// configured. Remote protocol errors always surface immediately.
func (m *Manager) call(req *wire.Message) (*wire.Message, error) {
	var reply *wire.Message
	err := m.withReconnect(redialable, func(ep transport.Endpoint) (err error) {
		reply, err = ep.Call(m.dir, req)
		return err
	})
	return reply, err
}

// withReconnect runs op against the current endpoint and, when a policy is
// configured and retry says op failed with the link, replaces the endpoint
// (redial) and runs op again, up to the policy's attempts. It is the
// package's only reconnect loop: a plain call re-sends its request, a push
// round re-extracts its delta, so the re-pull decides what is still dirty.
func (m *Manager) withReconnect(retry func(error) bool, op func(transport.Endpoint) error) error {
	for attempt := 1; ; attempt++ {
		ep := m.endpoint()
		err := op(ep)
		if err == nil || m.recon == nil || !retry(err) {
			return err
		}
		if attempt >= m.recon.pol.Attempts {
			return fmt.Errorf("cache %s: %d attempts exhausted: %w", m.name, attempt, err)
		}
		if rerr := m.redial(ep, attempt); rerr != nil {
			return rerr
		}
	}
}

// redial replaces a dead endpoint: detach it, re-attach under the same
// name, re-register, and re-pull the delta this view missed while away.
// Concurrent callers coalesce — whoever loses the race to reconMu finds
// the endpoint already replaced and just returns.
func (m *Manager) redial(old transport.Endpoint, attempt int) error {
	rc := m.recon
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if m.endpoint() != old {
		return nil // another caller already reconnected
	}
	m.mu.Lock()
	killed := m.killed
	if !killed {
		// The session the in-flight async rounds were issued on is dead:
		// resolve their futures with ErrSessionReset before tearing the
		// endpoint down, so no caller is left waiting on a connection that
		// is about to be replaced. Their writes stay pending locally.
		m.failSessionLocked(errors.New("endpoint replaced by reconnect"))
	}
	m.mu.Unlock()
	if killed {
		return transport.ErrClosed
	}
	old.Close()

	rc.pause(attempt)
	ep, err := m.nets[m.netIdx].Attach(m.name, m.handle)
	if err != nil {
		// The old attachment may not have unwound yet (e.g. a server-side
		// peer that has not noticed the close); surface as a transport
		// failure so the next cycle tries again — on the next network when
		// fallbacks are configured, so a dead primary daemon eventually
		// rotates the client onto its promoted standby.
		m.netIdx = (m.netIdx + 1) % len(m.nets)
		return nil
	}
	if err := discard(ep.Call(m.dir, m.registerMsg())); err != nil {
		ep.Close()
		if !redialable(err) {
			return fmt.Errorf("cache %s: re-register: %w", m.name, err)
		}
		m.netIdx = (m.netIdx + 1) % len(m.nets)
		return nil // transient: next cycle retries
	}
	// Refresh before resuming: pull everything committed while we were
	// away so the replica does not serve a hole. Local dirty entries are
	// preserved by the usual merge rules.
	m.mu.Lock()
	initialized := m.initialized
	since := m.seen
	epoch := m.invalidations
	m.mu.Unlock()
	if initialized {
		reply, err := ep.Call(m.dir, &wire.Message{Type: wire.TPull, Since: since, Op: m.op})
		if err != nil {
			ep.Close()
			if !redialable(err) {
				return fmt.Errorf("cache %s: re-pull: %w", m.name, err)
			}
			m.netIdx = (m.netIdx + 1) % len(m.nets)
			return nil
		}
		m.mu.Lock()
		aerr := m.applyIncomingLocked(reply.Img, reply.Version)
		wire.Recycle(reply)
		if aerr == nil {
			// Validity epoch guard: an invalidate that raced the re-pull
			// (the fresh registration makes this view a target again)
			// supersedes the pulled data's validity claim.
			if m.invalidations == epoch {
				m.valid = true
			}
			m.lastPull = m.clock.Now()
		}
		m.mu.Unlock()
		if aerr != nil {
			ep.Close()
			return aerr
		}
	}
	m.setEndpoint(ep)
	return nil
}

// registerMsg rebuilds the view's registration announcement from its
// current state (props and mode may have changed since New).
func (m *Manager) registerMsg() *wire.Message {
	m.mu.Lock()
	defer m.mu.Unlock()
	return &wire.Message{
		Type:  wire.TRegister,
		View:  m.name,
		Mode:  m.mode,
		Op:    m.op,
		Props: m.props,
		Trig:  m.trigSrc,
	}
}

func (m *Manager) endpoint() transport.Endpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ep
}

func (m *Manager) setEndpoint(ep transport.Endpoint) {
	m.mu.Lock()
	m.ep = ep
	m.mu.Unlock()
}
