// Package baseline implements the two comparator protocols from the
// paper's efficiency experiment (Figure 4):
//
//   - the time-sharing protocol, which "allows travel agents to execute
//     one after another", keeping control messages to a minimum, and
//   - the multicast-based protocol, which "does not discriminate between
//     cache managers and asks all of them to send updates" — the maximum
//     an application-oblivious protocol would generate.
//
// Both run the unmodified Flecc directory manager (the same store,
// registry, and cache managers) and are written with what the paper hands
// an application — the static conflict matrix and the views' validity
// triggers — so the only variable in the experiment is the
// synchronization policy.
package baseline

import (
	"sync"

	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/registry"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// NewMulticast builds a directory manager running the multicast baseline:
// the static conflict default is 1, so every view conflicts with every
// other regardless of data properties. Its views register the validity
// trigger "false" (the primary copy is never good enough), so every pull
// gathers pending updates from every active view.
func NewMulticast(name string, primary image.Codec, clock vclock.Clock, net transport.Network) (*directory.Manager, error) {
	// Serial rounds: baseline comparisons run on the deterministic
	// virtual-clock harness.
	dm, err := directory.New(name, primary, clock, net, directory.Options{FanOut: 1})
	if err != nil {
		return nil, err
	}
	dm.Registry().SetDefaultRelation(registry.Conflict)
	return dm, nil
}

// TimeSharing is a directory manager running the time-sharing baseline: a
// single token serializes the agents; the holder pulls, works, pushes and
// releases. Because execution is serial, pulls never need to gather or
// invalidate — the primary always holds the latest committed state when
// the token is granted — so its views register no validity trigger.
type TimeSharing struct {
	*directory.Manager

	mu     sync.Mutex
	cond   *sync.Cond
	holder string
	grants int64
}

// NewTimeSharing builds the time-sharing directory manager: a plain Flecc
// manager attached through tokenNet, which answers the token messages
// ahead of it.
func NewTimeSharing(name string, primary image.Codec, clock vclock.Clock, net transport.Network) (*TimeSharing, error) {
	ts := &TimeSharing{}
	ts.cond = sync.NewCond(&ts.mu)
	dm, err := directory.New(name, primary, clock, tokenNet{net, ts}, directory.Options{FanOut: 1})
	if err != nil {
		return nil, err
	}
	ts.Manager = dm
	return ts, nil
}

// tokenNet is the network the time-sharing manager attaches through: it
// puts the token handler in front of the manager's own.
type tokenNet struct {
	transport.Network
	ts *TimeSharing
}

// Attach implements transport.Network.
func (n tokenNet) Attach(name string, h transport.Handler) (transport.Endpoint, error) {
	return n.Network.Attach(name, func(req *wire.Message) *wire.Message {
		if reply := n.ts.handle(req); reply != nil {
			return reply
		}
		return h(req)
	})
}

// handle answers the token messages; a nil reply hands the request on to
// the Flecc manager.
func (ts *TimeSharing) handle(req *wire.Message) *wire.Message {
	switch req.Type {
	case wire.TAcquire:
		ts.mu.Lock()
		for ts.holder != "" && ts.holder != req.From {
			ts.cond.Wait()
		}
		ts.holder = req.From
		ts.grants++
		ts.mu.Unlock()
		return &wire.Message{Type: wire.TAck}
	case wire.TRelease, wire.TUnregister:
		// A dying holder must not wedge the token either.
		ts.mu.Lock()
		if ts.holder == req.From {
			ts.holder = ""
			ts.cond.Broadcast()
		}
		ts.mu.Unlock()
		if req.Type == wire.TUnregister {
			return nil // the manager still unregisters the view
		}
		return &wire.Message{Type: wire.TAck}
	default:
		return nil
	}
}

// Holder returns the current token holder ("" when free).
func (ts *TimeSharing) Holder() string {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.holder
}

// Grants returns the number of token grants issued.
func (ts *TimeSharing) Grants() int64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.grants
}
