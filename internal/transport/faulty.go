package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"flecc/internal/wire"
)

// ErrInjected marks a failure produced by a Faulty network rather than a
// real transport. It still satisfies IsTransportError, so the protocol's
// retry/reconnect/evict machinery treats it like any other outage.
var ErrInjected = errors.New("transport: injected fault")

// Faulty wraps any Network with deterministic fault injection: seeded
// random drops, fixed delays, one-shot disconnects on a directed edge,
// bidirectional partitions between node pairs, and whole-node isolation
// (a crashed process). It generalizes Inproc.SetFaultInjector to every
// transport — Inproc, TCP dial/server networks, and the shard bridge all
// satisfy Network, so they can all run the protocol suite under faults.
//
// Faults fire before delivery: a dropped request never reaches the callee,
// so at-most-once semantics hold for injected failures and invariant
// checks in fault soaks stay exact. Determinism requires the usual Inproc
// discipline (drive calls from one goroutine); the drop decisions then
// consume the seeded stream in a fixed order.
type Faulty struct {
	inner Network
	// obs is the local observer fan-out, used only when the wrapped
	// network is not itself observable; see AddObserver.
	obs Observers

	mu       sync.Mutex
	rng      *rand.Rand
	drop     float64
	delay    time.Duration
	edges    map[[2]string]time.Duration
	parts    map[[2]string]bool
	isolated map[string]bool
	oneshot  map[[2]string]int
	injected int64
	sleep    func(time.Duration)
}

// NewFaulty wraps inner with a fault injector seeded for reproducible
// drop decisions. A fresh Faulty injects nothing until configured.
func NewFaulty(inner Network, seed int64) *Faulty {
	return &Faulty{
		inner:    inner,
		rng:      rand.New(rand.NewSource(seed)),
		edges:    map[[2]string]time.Duration{},
		parts:    map[[2]string]bool{},
		isolated: map[string]bool{},
		oneshot:  map[[2]string]int{},
	}
}

// Attach implements Network: the returned endpoint routes every Call
// through the injector before handing it to the wrapped network.
func (f *Faulty) Attach(name string, h Handler) (Endpoint, error) {
	ep, err := f.inner.Attach(name, h)
	if err != nil {
		return nil, err
	}
	return &faultyEndpoint{net: f, inner: ep}, nil
}

// AddObserver appends a message observer. When the wrapped network is
// itself observable (Inproc, the TCP networks, the shard bridge), the
// observer is registered there, so it sees messages with their final
// Seq/From stamps and injected failures cost nothing extra. Otherwise
// the Faulty endpoints observe locally: requests just before they enter
// the inner network (Seq not yet stamped) and replies as they return.
// Either way, dropped calls are never observed — a dropped request never
// reached the callee.
func (f *Faulty) AddObserver(o Observer) {
	if on, ok := f.inner.(ObservableNetwork); ok {
		on.AddObserver(o)
		return
	}
	f.obs.Add(o)
}

// SetDropRate makes each call fail with probability p (clamped to [0,1])
// before delivery.
func (f *Faulty) SetDropRate(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	f.mu.Lock()
	f.drop = p
	f.mu.Unlock()
}

// SetDelay adds a fixed latency to every delivered call.
func (f *Faulty) SetDelay(d time.Duration) {
	f.mu.Lock()
	f.delay = d
	f.mu.Unlock()
}

// SetEdgeDelay adds a latency to every call on the directed edge from→to,
// on top of the global SetDelay — the shape of one slow member in an
// otherwise healthy group. d <= 0 removes the edge delay.
func (f *Faulty) SetEdgeDelay(from, to string, d time.Duration) {
	f.mu.Lock()
	if d <= 0 {
		delete(f.edges, [2]string{from, to})
	} else {
		f.edges[[2]string{from, to}] = d
	}
	f.mu.Unlock()
}

// SetSleep replaces the delay's time.Sleep (tests).
func (f *Faulty) SetSleep(fn func(time.Duration)) {
	f.mu.Lock()
	f.sleep = fn
	f.mu.Unlock()
}

// Partition cuts both directions between two nodes (e.g. one DM↔CM pair)
// until Heal.
func (f *Faulty) Partition(a, b string) {
	f.mu.Lock()
	f.parts[[2]string{a, b}] = true
	f.parts[[2]string{b, a}] = true
	f.mu.Unlock()
}

// Heal removes a partition (idempotent).
func (f *Faulty) Heal(a, b string) {
	f.mu.Lock()
	delete(f.parts, [2]string{a, b})
	delete(f.parts, [2]string{b, a})
	f.mu.Unlock()
}

// HealAll removes every partition and isolation.
func (f *Faulty) HealAll() {
	f.mu.Lock()
	f.parts = map[[2]string]bool{}
	f.isolated = map[string]bool{}
	f.mu.Unlock()
}

// Isolate cuts every edge touching the named node — the observable
// signature of a crashed process whose endpoint is still registered.
func (f *Faulty) Isolate(name string) {
	f.mu.Lock()
	f.isolated[name] = true
	f.mu.Unlock()
}

// Restore undoes Isolate (idempotent).
func (f *Faulty) Restore(name string) {
	f.mu.Lock()
	delete(f.isolated, name)
	f.mu.Unlock()
}

// DisconnectNext fails the next n calls on the directed edge from→to —
// a one-shot (or n-shot) disconnect for exercising retry paths.
func (f *Faulty) DisconnectNext(from, to string, n int) {
	f.mu.Lock()
	if n <= 0 {
		delete(f.oneshot, [2]string{from, to})
	} else {
		f.oneshot[[2]string{from, to}] = n
	}
	f.mu.Unlock()
}

// Injected returns how many calls the injector has failed so far.
func (f *Faulty) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// inject decides one call's fate; a non-nil error means the call fails
// without reaching the callee. It also returns the delay to apply.
func (f *Faulty) inject(from, to string) (time.Duration, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case f.isolated[from]:
		f.injected++
		return 0, fmt.Errorf("%w: node %s is isolated", ErrInjected, from)
	case f.isolated[to]:
		f.injected++
		return 0, fmt.Errorf("%w: node %s is isolated", ErrInjected, to)
	case f.parts[[2]string{from, to}]:
		f.injected++
		return 0, fmt.Errorf("%w: %s and %s are partitioned", ErrInjected, from, to)
	}
	if n := f.oneshot[[2]string{from, to}]; n > 0 {
		if n == 1 {
			delete(f.oneshot, [2]string{from, to})
		} else {
			f.oneshot[[2]string{from, to}] = n - 1
		}
		f.injected++
		return 0, fmt.Errorf("%w: connection %s->%s reset", ErrInjected, from, to)
	}
	if f.drop > 0 && f.rng.Float64() < f.drop {
		f.injected++
		return 0, fmt.Errorf("%w: dropped %s->%s", ErrInjected, from, to)
	}
	return f.delay + f.edges[[2]string{from, to}], nil
}

type faultyEndpoint struct {
	net   *Faulty
	inner Endpoint
}

func (e *faultyEndpoint) Name() string { return e.inner.Name() }
func (e *faultyEndpoint) Close() error { return e.inner.Close() }

func (e *faultyEndpoint) Call(to string, req *wire.Message) (*wire.Message, error) {
	delay, err := e.net.inject(e.inner.Name(), to)
	if err != nil {
		return nil, err
	}
	if delay > 0 {
		e.net.mu.Lock()
		sleep := e.net.sleep
		e.net.mu.Unlock()
		if sleep != nil {
			sleep(delay)
		} else {
			time.Sleep(delay)
		}
	}
	if e.net.obs.Len() == 0 {
		return e.inner.Call(to, req)
	}
	e.net.obs.OnMessage(e.inner.Name(), to, req)
	reply, err := e.inner.Call(to, req)
	if reply != nil {
		e.net.obs.OnMessage(to, e.inner.Name(), reply)
	}
	return reply, err
}

var (
	_ Network           = (*Faulty)(nil)
	_ ObservableNetwork = (*Faulty)(nil)
	_ ObservableNetwork = (*Inproc)(nil)
	_ ObservableNetwork = (*ServerNetwork)(nil)
	_ ObservableNetwork = (*DialNetwork)(nil)
	_ Observer          = (*Observers)(nil)
)
