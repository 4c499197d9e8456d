package main

import (
	"errors"
	"fmt"
	"sync"

	"flecc/internal/airline"
	"flecc/internal/cache"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// clientNet is the client side of the wire: the transport.DialNetwork
// fleccview uses, handed to every view's cache manager. A view is one TCP
// connection (Attach dials per node name). Untraced, it passes endpoints
// through untouched and only remembers them so their public WireStats can
// be read; traced, it times the dial and wraps the endpoint.
type clientNet struct {
	dnet  *transport.DialNetwork
	clock vclock.Clock
	tr    *tracer

	mu      sync.Mutex
	live    map[string]*transport.Client
	retired transport.WireStatsSnapshot // connections already closed
}

func newClientNet(addr string, tr *tracer) *clientNet {
	n := &clientNet{
		dnet:  transport.NewDialNetwork(addr, callTimeout),
		clock: vclock.NewReal(),
		tr:    tr,
		live:  map[string]*transport.Client{},
	}
	if tr != nil {
		n.dnet.AddObserver(transport.ObserverFunc(tr.onClientMessage))
	}
	return n
}

// Attach implements transport.Network.
func (n *clientNet) Attach(name string, h transport.Handler) (transport.Endpoint, error) {
	var vt *viewTrace
	var start int64
	if n.tr != nil {
		if v, ok := n.tr.views.Load(name); ok {
			vt = v.(*viewTrace)
			start = n.tr.now()
		}
	}
	ep, err := n.dnet.Attach(name, h)
	if err != nil {
		return nil, err
	}
	if c, ok := ep.(*transport.Client); ok {
		n.mu.Lock()
		n.live[name] = c
		n.mu.Unlock()
	}
	if vt != nil {
		vt.buf.add(span{id: n.tr.id(), parent: vt.curCache.Load(), kind: kDial, start: start, end: n.tr.now(), peer: name})
		return &tracedEndpoint{Endpoint: ep, vt: vt}, nil
	}
	return ep, nil
}

func addWire(a, b transport.WireStatsSnapshot) transport.WireStatsSnapshot {
	return transport.WireStatsSnapshot{
		Frames: a.Frames + b.Frames, Flushes: a.Flushes + b.Flushes,
		Bytes: a.Bytes + b.Bytes, LateReplies: a.LateReplies + b.LateReplies,
	}
}

func subWire(a, b transport.WireStatsSnapshot) transport.WireStatsSnapshot {
	return transport.WireStatsSnapshot{
		Frames: a.Frames - b.Frames, Flushes: a.Flushes - b.Flushes,
		Bytes: a.Bytes - b.Bytes, LateReplies: a.LateReplies - b.LateReplies,
	}
}

// retire folds a closed connection's counters into the running total, so
// session churn does not pin dead connections in memory.
func (n *clientNet) retire(name string) {
	n.mu.Lock()
	if c, ok := n.live[name]; ok {
		n.retired = addWire(n.retired, c.WireStats())
		delete(n.live, name)
	}
	n.mu.Unlock()
}

// wireStats sums the outbound counters of every connection ever dialed.
func (n *clientNet) wireStats() transport.WireStatsSnapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := n.retired
	for _, c := range n.live {
		total = addWire(total, c.WireStats())
	}
	return total
}

// view is one deployed travel-agent view, driven exactly as fleccview
// drives it: through airline.TravelAgent and its cache.Manager.
type view struct {
	name  string
	agent *airline.TravelAgent
	vt    *viewTrace // nil untraced
}

// call brackets one of the benchmark's calls into the cache layer with a
// span (traced runs only).
func (v *view) call(kind spanKind, fn func() error) error {
	if v.vt == nil {
		return fn()
	}
	id, start := v.vt.begin()
	err := fn()
	v.vt.end(kind, id, start)
	return err
}

// openView deploys a view: dial, hello, register, init. Untraced it is
// airline.NewTravelAgent verbatim. Traced, the same steps are spelled out
// so the view's codec can be decorated (NewTravelAgent builds its replica
// internally and offers no seam for that).
func (n *clientNet) openView(s spec, name string, from, to int, buf *spanBuf, opID uint64) (*view, error) {
	if n.tr == nil {
		agent, err := airline.NewTravelAgent(airline.AgentConfig{
			Name: name, Directory: dirName, Net: n, Clock: n.clock,
			FlightsFrom: from, FlightsTo: to, Mode: wire.Weak,
			ValidityTrigger: s.validity,
		})
		if err != nil {
			return nil, err
		}
		return &view{name: name, agent: agent}, nil
	}
	v := &view{name: name, vt: n.tr.newView(name, buf)}
	v.vt.curOp = opID
	err := v.call(kCacheOpen, func() error {
		ars := airline.NewReservationSystem()
		cm, err := cache.New(cache.Config{
			Name: name, Directory: dirName, Net: n, Clock: n.clock,
			View:            &tracedViewCodec{inner: ars, vt: v.vt},
			Props:           property.NewSet(property.New(airline.PropFlights, property.DiscreteRange(from, to))),
			Mode:            wire.Weak,
			ValidityTrigger: s.validity,
			Op:              wire.OpWrite,
		})
		if err != nil {
			return err
		}
		if err := cm.InitImage(); err != nil {
			cm.KillImage()
			return fmt.Errorf("init %s: %w", name, err)
		}
		v.agent = &airline.TravelAgent{ARS: ars, CM: cm}
		return nil
	})
	if err != nil {
		n.tr.dropView(name)
		return nil, err
	}
	return v, nil
}

// closeView kills the image (final push, unregister, disconnect).
func (n *clientNet) closeView(v *view) error {
	err := v.call(kCacheClose, v.agent.Close)
	n.retire(v.name)
	if n.tr != nil {
		n.tr.dropView(v.name)
	}
	return err
}

// client is one simulated user: an op stream and the view it currently
// works through. Each client belongs to one driver goroutine and has at
// most one operation outstanding.
type client struct {
	idx      int
	spec     spec
	net      *clientNet
	src      opSource
	from, to int
	buf      *spanBuf // owning driver's span buffer (traced runs)
	v        *view
	opened   int // views opened so far (names the next one)

	// Outcome accounting for the output checks.
	acked         map[int]int // flight → seats of acknowledged reservations
	invalidations int         // from views already closed
}

// counters is one driver's tally.
type counters struct {
	attempted, failed, retries int64
	firstErr                   error
}

func (c *counters) add(o counters) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.retries += o.retries
	if c.firstErr == nil {
		c.firstErr = o.firstErr
	}
}

// viewName names a client's n-th view. Names are unique per session (a
// re-dial under a name whose old connection is still draining would be
// refused as a hijack) and carry the client index, from which the replays
// rebuild the view's property set.
func viewName(client, n int) string { return fmt.Sprintf("c%02d.s%06d", client, n) }

// open deploys the client's next view; opID is the root span it happens
// under (0 during set-up).
func (c *client) open(opID uint64) error {
	name := viewName(c.idx, c.opened)
	c.opened++
	v, err := c.net.openView(c.spec, name, c.from, c.to, c.buf, opID)
	if err != nil {
		return err
	}
	c.v = v
	return nil
}

func (c *client) close() error {
	v := c.v
	c.v = nil
	c.invalidations += v.agent.CM.Invalidations()
	return c.net.closeView(v)
}

// maxRetries bounds the re-pull loop; an invalidation between pull and use
// is a protocol outcome, not a failure, but an unbounded loop would hide a
// livelock.
const maxRetries = 100

// withFreshImage runs use on a valid image: pull, and when the directory
// invalidated the view between the pull and the use window
// (cache.ErrInvalidated), pull again.
func (c *client) withFreshImage(ct *counters, use func() error) error {
	for try := 0; ; try++ {
		err := c.v.call(kCachePull, use)
		if !errors.Is(err, cache.ErrInvalidated) || try == maxRetries {
			return err
		}
		ct.retries++
	}
}

// step executes the client's next operation and tallies its outcome.
func (c *client) step(ct *counters) {
	o := c.src.next()
	ct.attempted++
	var opID uint64
	var opStart int64
	tr := c.net.tr
	if tr != nil {
		opID, opStart = tr.id(), tr.now()
		if c.v != nil {
			c.v.vt.curOp = opID
		}
	}
	err := c.exec(o, ct, opID)
	if tr != nil {
		c.buf.add(span{id: opID, kind: kOp, detail: uint8(o.kind), start: opStart, end: tr.now()})
	}
	if err != nil {
		ct.failed++
		if ct.firstErr == nil {
			ct.firstErr = fmt.Errorf("client %d %s: %w", c.idx, o.kind, err)
		}
	}
}

func (c *client) exec(o op, ct *counters, opID uint64) error {
	if o.kind == opOpen {
		return c.open(opID)
	}
	if c.v == nil {
		return fmt.Errorf("no open view")
	}
	a := c.v.agent
	switch o.kind {
	case opReserve:
		if err := c.withFreshImage(ct, func() error { return a.ReserveTickets(o.seats, o.flight) }); err != nil {
			return err
		}
		if err := c.v.call(kCachePush, a.CM.PushImage); err != nil {
			return err
		}
		c.acked[o.flight] += o.seats
	case opBrowse:
		return c.withFreshImage(ct, func() error {
			_, err := a.Browse("", "")
			return err
		})
	case opUpgrade:
		return c.v.call(kCacheSetMode, func() error { return a.CM.SetMode(wire.Strong) })
	case opDowngrade:
		return c.v.call(kCacheSetMode, func() error { return a.CM.SetMode(wire.Weak) })
	case opBuy:
		// One coherent purchase across buyFlights consecutive flights of
		// the group (wrapping), in one use window, published at once.
		span := c.to - c.from + 1
		err := c.withFreshImage(ct, func() error {
			if err := a.CM.PullImage(); err != nil {
				return err
			}
			if err := a.CM.StartUse(); err != nil {
				return err
			}
			defer a.CM.EndUse()
			for i := 0; i < buyFlights; i++ {
				f := c.from + (o.flight-c.from+i)%span
				if err := a.ARS.ConfirmTickets(o.seats, f); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if err := c.v.call(kCachePush, a.CM.PushImage); err != nil {
			return err
		}
		for i := 0; i < buyFlights; i++ {
			c.acked[c.from+(o.flight-c.from+i)%span] += o.seats
		}
	case opClose:
		return c.close()
	}
	return nil
}
