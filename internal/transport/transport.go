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
//   - Inproc: synchronous in-process delivery of wire frames: each message
//     is encoded and decoded through the receiving endpoint's tables, so
//     the receiver owns what it gets, as on TCP (deterministic, used with
//     the simulated clock for all experiments);
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
	// Call sends req to the named node and waits for its reply. Call
	// never writes to req; the frame or the callee's copy carries Seq and
	// From. So one request may be in several calls at once.
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
// Requests and replies cross as frames (wire.EncodeFrame), each decoded
// through the receiving endpoint's tables: a message a handler or caller
// gets shares no memory with the one sent, and a type the decoder
// refuses fails the Call at the caller.
type Inproc struct {
	mu    sync.RWMutex
	nodes map[string]*inprocEndpoint
	seq   atomic.Uint64
	obs   Observers
	// BeforeDeliver, if set, runs before each message is delivered (both
	// requests and replies) with its frame's length. The netsim
	// package uses it to charge latency to the virtual clock.
	beforeDeliver func(from, to string, m *wire.Message, size int)
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

// SetBeforeDeliver installs a pre-delivery hook (nil disables). The hook
// gets the decoded message and its frame's length in bytes. Not safe to
// call concurrently with traffic.
func (n *Inproc) SetBeforeDeliver(fn func(from, to string, m *wire.Message, size int)) {
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
	ep := &inprocEndpoint{net: n, name: name, handler: h, tables: wire.NewTables()}
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
	// mu guards tables: concurrent callers deliver to one endpoint.
	mu     sync.Mutex
	tables *wire.Tables
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
	seq := e.net.seq.Add(1)
	in, size, err := callee.receive(req, seq, e.name)
	if err != nil {
		return nil, err
	}
	if f := e.net.faults; f != nil {
		if err := f(e.name, to, in); err != nil {
			return nil, err
		}
	}
	if bd := e.net.beforeDeliver; bd != nil {
		bd(e.name, to, in, size)
	}
	e.net.obs.OnMessage(e.name, to, in)
	if callee.closed.Load() {
		return nil, fmt.Errorf("%w: %s", ErrClosed, to)
	}
	out := callee.handler(in)
	if out == nil {
		out = bareAck
	}
	reply, size, err := e.receive(out, seq, to)
	if err != nil {
		return nil, err
	}
	if bd := e.net.beforeDeliver; bd != nil {
		bd(to, e.name, reply, size)
	}
	e.net.obs.OnMessage(to, e.name, reply)
	if err := wire.ErrorOf(reply); err != nil {
		return reply, err
	}
	return reply, nil
}

// bareAck stands in for a handler's nil reply. Encoding never writes it.
var bareAck = &wire.Message{Type: wire.TAck}

// receive moves m to e as a frame whose header carries seq and from, and
// decodes it through e's tables, as a TCP connection's FrameReader would:
// the result is e's own and shares nothing with m. size is the frame's
// length in bytes.
func (e *inprocEndpoint) receive(m *wire.Message, seq uint64, from string) (*wire.Message, int, error) {
	f, err := wire.EncodeFrame(m, seq, from)
	if err != nil {
		return nil, 0, err
	}
	e.mu.Lock()
	in, err := f.Decode(e.tables)
	e.mu.Unlock()
	size := f.Len()
	f.Release()
	if err != nil {
		return nil, 0, err
	}
	return in, size, nil
}
