// Package transport moves wire messages between named nodes.
//
// The Flecc deployment topology is a star: every cache manager exchanges
// request/reply pairs with the directory manager, and the directory manager
// initiates invalidations and updates toward cache managers. All experiments
// in the paper count these messages, so the transport layer exposes an
// Observer hook that sees every message exactly once.
//
// Three implementations share the Endpoint/Network contract:
//
//   - Inproc: synchronous in-process delivery (deterministic, used with the
//     simulated clock for all experiments);
//   - netsim (separate package): Inproc wrapped with a latency model and
//     per-link statistics;
//   - TCP (tcp.go): framed messages over stdlib net connections, for the
//     fleccd daemon and real multi-process deployments.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"flecc/internal/wire"
)

// Handler serves one incoming request and returns the reply. Handlers must
// not retain req or the returned message after returning; endpoints may
// reuse them. A nil reply is converted to a bare TAck.
type Handler func(req *wire.Message) *wire.Message

// Endpoint is a named node attached to a network.
type Endpoint interface {
	// Name returns the node name used as the message From field.
	Name() string
	// Call sends req to the named node and waits for its reply. The
	// endpoint assigns req.Seq and req.From.
	Call(to string, req *wire.Message) (*wire.Message, error)
	// Close detaches the endpoint; subsequent Calls fail, and calls to the
	// endpoint fail at the caller.
	Close() error
}

// Network attaches named endpoints.
type Network interface {
	// Attach registers a node. The handler serves requests addressed to
	// name. Attach fails if the name is taken.
	Attach(name string, h Handler) (Endpoint, error)
}

// Observer sees every delivered message: requests as they arrive at the
// callee, replies as they return to the caller. On an in-process network
// that is exactly once per message system-wide; on TCP each process
// observes every frame crossing its own wire once (sent and received),
// which is the complete local view a daemon's stats and tracer need.
// Implementations must be safe for concurrent use when the network is
// used concurrently. Networks carry an Observers fan-out, so several
// observers can watch the same traffic; see Observers for ordering.
type Observer interface {
	// OnMessage is invoked once per message with the sending and receiving
	// node names.
	OnMessage(from, to string, m *wire.Message)
}

// ObserverFunc adapts a function to Observer.
type ObserverFunc func(from, to string, m *wire.Message)

// OnMessage implements Observer.
func (f ObserverFunc) OnMessage(from, to string, m *wire.Message) { f(from, to, m) }

// Errors returned by transports.
var (
	// ErrClosed indicates the endpoint (or its peer) has been closed.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrUnknownNode indicates the destination name is not attached.
	ErrUnknownNode = errors.New("transport: unknown destination node")
	// ErrNameTaken indicates Attach was called with a duplicate name.
	ErrNameTaken = errors.New("transport: node name already attached")
)

// Inproc is a synchronous in-process Network. A Call runs the callee's
// handler on the caller's goroutine, which makes protocol runs fully
// deterministic when driven single-threaded — the property the experiment
// harness relies on. Inproc is nevertheless safe for concurrent use.
type Inproc struct {
	mu    sync.RWMutex
	nodes map[string]*inprocEndpoint
	seq   atomic.Uint64
	obs   Observers
	// BeforeDeliver, if set, runs before each message is delivered (both
	// requests and replies). The netsim package uses it to charge latency
	// to the virtual clock.
	beforeDeliver func(from, to string, m *wire.Message)
	// faults, if set, may reject a request before delivery.
	faults func(from, to string, m *wire.Message) error
}

// NewInproc returns an empty in-process network.
func NewInproc() *Inproc {
	return &Inproc{nodes: map[string]*inprocEndpoint{}}
}

// AddObserver appends an observer to the fan-out, so stats, tracing, and
// user hooks coexist. Safe to call concurrently with traffic.
func (n *Inproc) AddObserver(o Observer) { n.obs.Add(o) }

// SetBeforeDeliver installs a pre-delivery hook (nil disables). Not safe to
// call concurrently with traffic.
func (n *Inproc) SetBeforeDeliver(fn func(from, to string, m *wire.Message)) {
	n.beforeDeliver = fn
}

// SetFaultInjector installs a hook that may reject requests with an error
// before they reach the callee (nil disables). Used by failure-injection
// tests.
func (n *Inproc) SetFaultInjector(fn func(from, to string, m *wire.Message) error) {
	n.faults = fn
}

// Attach implements Network.
func (n *Inproc) Attach(name string, h Handler) (Endpoint, error) {
	if name == "" {
		return nil, fmt.Errorf("transport: empty node name")
	}
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler for %q", name)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.nodes[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrNameTaken, name)
	}
	ep := &inprocEndpoint{net: n, name: name, handler: h}
	n.nodes[name] = ep
	return ep, nil
}

// Detach removes a node by name (idempotent).
func (n *Inproc) Detach(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, name)
}

func (n *Inproc) lookup(name string) (*inprocEndpoint, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ep, ok := n.nodes[name]
	return ep, ok
}

type inprocEndpoint struct {
	net     *Inproc
	name    string
	handler Handler
	closed  atomic.Bool
}

func (e *inprocEndpoint) Name() string { return e.name }

func (e *inprocEndpoint) Close() error {
	if e.closed.CompareAndSwap(false, true) {
		e.net.Detach(e.name)
	}
	return nil
}

func (e *inprocEndpoint) Call(to string, req *wire.Message) (*wire.Message, error) {
	if e.closed.Load() {
		return nil, fmt.Errorf("%w: %s", ErrClosed, e.name)
	}
	callee, ok := e.net.lookup(to)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	// Stamp a shallow clone: the caller may retry the same message after a
	// failure, or hand it to another endpoint, and must not observe the
	// transport's Seq/From writes.
	r := *req
	req = &r
	req.Seq = e.net.seq.Add(1)
	req.From = e.name
	if f := e.net.faults; f != nil {
		if err := f(e.name, to, req); err != nil {
			return nil, err
		}
	}
	if bd := e.net.beforeDeliver; bd != nil {
		bd(e.name, to, req)
	}
	e.net.obs.OnMessage(e.name, to, req)
	if callee.closed.Load() {
		return nil, fmt.Errorf("%w: %s", ErrClosed, to)
	}
	reply := callee.handler(req)
	if reply == nil {
		reply = &wire.Message{Type: wire.TAck}
	}
	reply.Seq = req.Seq
	reply.From = to
	if bd := e.net.beforeDeliver; bd != nil {
		bd(to, e.name, reply)
	}
	e.net.obs.OnMessage(to, e.name, reply)
	if err := wire.ErrorOf(reply); err != nil {
		return reply, err
	}
	return reply, nil
}
