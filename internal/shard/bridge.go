package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"flecc/internal/transport"
	"flecc/internal/wire"
)

// Bridge is a Network that hosts the sharded directory service — router
// plus shard directory managers — inside one process, behind a transport
// that only admits a single node (transport.ServerNetwork attaches
// exactly one listener-side node). Local nodes call each other in
// process; calls to names that are not local (the remote cache managers)
// leave through the uplink, and requests arriving on the uplink are
// handed to the local gateway node (the router) with the remote caller's
// From intact — which is exactly what the router needs to identify the
// originating view.
//
// The Bridge carries its own observer fan-out so a deployment can count
// router→shard traffic per shard (metrics.MessageStats.PerShard) even
// though that traffic never touches the wire.
type Bridge struct {
	mu      sync.RWMutex
	nodes   map[string]*bridgeNode
	seq     atomic.Uint64
	obs     transport.Observers
	uplink  transport.Endpoint
	gateway string
}

type bridgeNode struct {
	bridge  *Bridge
	name    string
	handler transport.Handler
	closed  atomic.Bool
}

// NewBridge returns an empty bridge with no uplink.
func NewBridge() *Bridge {
	return &Bridge{nodes: map[string]*bridgeNode{}}
}

// SetObserver replaces the observer fan-out for in-process traffic with
// the single observer o (nil disables). Safe to call concurrently with
// traffic.
func (b *Bridge) SetObserver(o transport.Observer) { b.obs.Set(o) }

// AddObserver appends an observer to the fan-out, so per-shard stats,
// tracing, and user hooks coexist. Safe to call concurrently with
// traffic.
func (b *Bridge) AddObserver(o transport.Observer) { b.obs.Add(o) }

// Attach implements transport.Network for local nodes.
func (b *Bridge) Attach(name string, h transport.Handler) (transport.Endpoint, error) {
	if name == "" || h == nil {
		return nil, fmt.Errorf("transport: bridge needs a name and handler")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.nodes[name]; dup {
		return nil, fmt.Errorf("%w: %q", transport.ErrNameTaken, name)
	}
	n := &bridgeNode{bridge: b, name: name, handler: h}
	b.nodes[name] = n
	return n, nil
}

// ConnectUplink attaches the bridge to an external network under the
// gateway name. Requests arriving there are served by the local node of
// the same name; local calls to unknown names go out through it.
func (b *Bridge) ConnectUplink(ext transport.Network, gateway string) error {
	b.mu.Lock()
	if b.uplink != nil {
		b.mu.Unlock()
		return fmt.Errorf("transport: bridge already has an uplink")
	}
	b.gateway = gateway
	b.mu.Unlock()
	ep, err := ext.Attach(gateway, b.inbound)
	if err != nil {
		return err
	}
	b.mu.Lock()
	b.uplink = ep
	b.mu.Unlock()
	return nil
}

// Close detaches the uplink (local nodes close themselves).
func (b *Bridge) Close() error {
	b.mu.Lock()
	up := b.uplink
	b.uplink = nil
	b.mu.Unlock()
	if up != nil {
		return up.Close()
	}
	return nil
}

// inbound serves an uplink request by delivering it to the local gateway
// node. req.From is preserved: it names the remote caller, not the
// bridge.
func (b *Bridge) inbound(req *wire.Message) *wire.Message {
	b.mu.RLock()
	node := b.nodes[b.gateway]
	b.mu.RUnlock()
	if node == nil || node.closed.Load() {
		return &wire.Message{Type: wire.TErr, Err: fmt.Sprintf("bridge: gateway %q not attached", b.gateway)}
	}
	b.obs.OnMessage(req.From, node.name, req)
	reply := node.handler(req)
	if reply == nil {
		reply = &wire.Message{Type: wire.TAck}
	}
	reply.Seq = req.Seq
	reply.From = node.name
	b.obs.OnMessage(node.name, req.From, reply)
	return reply
}

func (b *Bridge) lookup(name string) *bridgeNode {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.nodes[name]
}

func (n *bridgeNode) Name() string { return n.name }

func (n *bridgeNode) Close() error {
	if n.closed.CompareAndSwap(false, true) {
		n.bridge.mu.Lock()
		delete(n.bridge.nodes, n.name)
		n.bridge.mu.Unlock()
	}
	return nil
}

func (n *bridgeNode) Call(to string, req *wire.Message) (*wire.Message, error) {
	if n.closed.Load() {
		return nil, fmt.Errorf("%w: %s", transport.ErrClosed, n.name)
	}
	b := n.bridge
	if callee := b.lookup(to); callee != nil {
		// In-process delivery by pointer, synchronous on the caller's
		// goroutine: the one transport that does not decode what it
		// delivers, and no cache manager attaches to it (PROTOCOL.md
		// "Ownership"). Stamp a shallow clone — the caller may retry the
		// same message and must not observe Seq/From writes.
		r := *req
		req = &r
		req.Seq = b.seq.Add(1)
		req.From = n.name
		b.obs.OnMessage(n.name, to, req)
		if callee.closed.Load() {
			return nil, fmt.Errorf("%w: %s", transport.ErrClosed, to)
		}
		reply := callee.handler(req)
		if reply == nil {
			reply = &wire.Message{Type: wire.TAck}
		}
		reply.Seq = req.Seq
		reply.From = to
		b.obs.OnMessage(to, n.name, reply)
		if err := wire.ErrorOf(reply); err != nil {
			return reply, err
		}
		return reply, nil
	}
	b.mu.RLock()
	up := b.uplink
	b.mu.RUnlock()
	if up == nil {
		return nil, fmt.Errorf("%w: %q (no uplink)", transport.ErrUnknownNode, to)
	}
	return up.Call(to, req)
}

var _ transport.Network = (*Bridge)(nil)
var _ transport.ObservableNetwork = (*Bridge)(nil)
var _ transport.Endpoint = (*bridgeNode)(nil)
