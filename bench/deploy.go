package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"flecc/internal/airline"
	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/metrics"
	"flecc/internal/shard"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// This file is the only one that imports the server's internals, and it
// calls only the constructors cmd/fleccd itself calls (newDeployment and
// startDaemonReplication there), so a change that keeps fleccd compiling
// keeps the benchmark compiling. The deployment runs in this process but
// its clients reach it over real loopback TCP sockets.

const (
	callTimeout = 30 * time.Second // fleccd's transport timeout
	haLease     = 2 * time.Second  // fleccd's -ha-lease default
	dirLanes    = 4                // -lanes 4 on every workload
)

// hooks are the benchmark-owned decorators of a traced run, wrapped around
// the public things the benchmark hands to the system. A zero hooks value
// leaves the deployment undecorated (every end-to-end number is measured
// that way).
type hooks struct {
	codec     func(db *airline.ReservationSystem) image.Codec // the primary's
	resolver  func(r image.Resolver) image.Resolver
	serverObs transport.Observer // the listener's wire, both directions
	bridgeObs transport.Observer // router→shard hops (sharded only)
	replEp    func(ep transport.Endpoint) transport.Endpoint
}

func (h hooks) primary(db *airline.ReservationSystem) image.Codec {
	if h.codec == nil {
		return db
	}
	return h.codec(db)
}

// deployment is one booted server side: a directory manager (or a sharded
// service on a bridge) behind a loopback listener, optionally feeding a hot
// standby behind a second one.
type deployment struct {
	spec spec
	addr string
	db   *airline.ReservationSystem
	snet *transport.ServerNetwork

	dm    *directory.Manager // single-directory shape
	svc   *shard.Service     // sharded shape
	brdg  *shard.Bridge
	stats *metrics.MessageStats

	standbyDB   *airline.ReservationSystem
	standbyDM   *directory.Manager
	repl        *directory.Replicator
	stopRepl    func()
	stopHA      chan struct{}
	haDone      sync.WaitGroup
	closeOnce   sync.Once
	standbyAddr string
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// boot mirrors cmd/fleccd's run/newDeployment for the spec's shape.
func boot(s spec, h hooks) (*deployment, error) {
	d := &deployment{spec: s, db: airline.NewReservationSystem()}
	airline.SeedFlights(d.db, firstFlight, s.flights(), flightCapacity)

	resolver := image.Resolver(airline.SeatResolver)
	if h.resolver != nil {
		resolver = h.resolver(resolver)
	}
	retry := transport.RetryPolicy{Jitter: 0.2, Rand: transport.NewRand(1)}
	opts := directory.Options{Resolver: resolver, Lanes: dirLanes, Retry: retry}

	if s.standby {
		if err := d.bootStandby(opts); err != nil {
			return nil, err
		}
	}

	ln, err := listenLoopback()
	if err != nil {
		d.close()
		return nil, err
	}
	// Until a node attaches, nothing owns the listener.
	fail := func(err error) (*deployment, error) {
		ln.Close()
		d.close()
		return nil, err
	}
	d.addr = ln.Addr().String()
	d.snet = transport.NewServerNetwork(ln, callTimeout)
	if h.serverObs != nil {
		d.snet.AddObserver(h.serverObs)
	}
	primary := h.primary(d.db)

	if s.shards == 1 {
		if d.dm, err = directory.New(dirName, primary, vclock.NewReal(), d.snet, opts); err != nil {
			return fail(err)
		}
	} else {
		d.brdg = shard.NewBridge()
		d.stats = metrics.NewMessageStats(false)
		d.brdg.SetObserver(d.stats)
		if h.bridgeObs != nil {
			d.brdg.AddObserver(h.bridgeObs)
		}
		d.svc, err = shard.NewService(shard.ServiceConfig{
			Name:    dirName,
			Net:     d.brdg,
			Clock:   vclock.NewReal(),
			Shards:  s.shards,
			Primary: func(int) image.Codec { return primary },
			Opts:    opts,
		})
		if err != nil {
			return fail(err)
		}
		d.svc.Router().SetRetryPolicy(retry)
		if err := d.brdg.ConnectUplink(d.snet, dirName); err != nil {
			return fail(err)
		}
	}

	if s.standby {
		if err := d.startReplication(retry, h); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// bootStandby is `fleccd -standby` on a second loopback listener: same
// seeded database, client traffic gated until promotion.
func (d *deployment) bootStandby(opts directory.Options) error {
	d.standbyDB = airline.NewReservationSystem()
	airline.SeedFlights(d.standbyDB, firstFlight, d.spec.flights(), flightCapacity)
	ln, err := listenLoopback()
	if err != nil {
		return err
	}
	d.standbyAddr = ln.Addr().String()
	opts.Standby = true
	dm, err := directory.New(dirName, d.standbyDB, vclock.NewReal(), transport.NewServerNetwork(ln, callTimeout), opts)
	if err != nil {
		ln.Close()
		return err
	}
	d.standbyDM = dm
	return nil
}

// refuseCallback and redialEndpoint are copied from cmd/fleccd/ha.go: the
// replication link is a lazily dialed, self-healing, Call-only endpoint,
// so the replicator's sender ships one batch per round trip exactly as the
// daemon's does.
func refuseCallback(*wire.Message) *wire.Message {
	return &wire.Message{Type: wire.TErr, Err: "bench: replication link carries no server-initiated calls"}
}

type redialEndpoint struct {
	dnet *transport.DialNetwork
	name string

	mu     sync.Mutex
	c      transport.Endpoint
	closed bool
}

func (e *redialEndpoint) Name() string { return e.name }

func (e *redialEndpoint) Call(to string, req *wire.Message) (*wire.Message, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, transport.ErrClosed
	}
	c := e.c
	if c == nil {
		var err error
		c, err = e.dnet.Attach(e.name, refuseCallback)
		if err != nil {
			e.mu.Unlock()
			return nil, err
		}
		e.c = c
	}
	e.mu.Unlock()
	reply, err := c.Call(to, req)
	if err != nil && transport.IsTransportError(err) {
		e.mu.Lock()
		if e.c == c {
			c.Close()
			e.c = nil
		}
		e.mu.Unlock()
	}
	return reply, err
}

func (e *redialEndpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	if e.c != nil {
		err := e.c.Close()
		e.c = nil
		return err
	}
	return nil
}

// startReplication is startDaemonReplication plus the primary half of
// fleccd's haTick loop (quarter-lease heartbeats). The standby's
// self-promotion check is left out: nothing here kills the primary, and a
// promotion caused by a scheduling stall would only corrupt a run.
func (d *deployment) startReplication(retry transport.RetryPolicy, h hooks) error {
	dnet := transport.NewDialNetwork(d.standbyAddr, callTimeout)
	var ep transport.Endpoint = &redialEndpoint{dnet: dnet, name: dirName + "!repl"}
	if h.replEp != nil {
		ep = h.replEp(ep)
	}
	repl, err := d.dm.StartReplication(directory.ReplConfig{
		Lease:        vclock.Duration(haLease / time.Millisecond),
		FenceOnLapse: true,
		Retry:        retry,
	}, directory.ReplTarget{Name: dirName, Ep: ep})
	if err != nil {
		ep.Close()
		return err
	}
	d.repl = repl
	d.stopRepl = func() { repl.Close(); ep.Close() }
	d.stopHA = make(chan struct{})
	d.haDone.Add(1)
	go func() {
		defer d.haDone.Done()
		t := time.NewTicker(haLease / 4)
		defer t.Stop()
		for {
			select {
			case <-d.stopHA:
				return
			case <-t.C:
				repl.Heartbeat()
			}
		}
	}()
	return nil
}

// managers returns every serving directory manager (the shards, or the
// one directory), standby excluded.
func (d *deployment) managers() []*directory.Manager {
	if d.dm != nil {
		return []*directory.Manager{d.dm}
	}
	if d.svc == nil {
		return nil
	}
	out := make([]*directory.Manager, 0, d.svc.NumShards())
	for i := 0; i < d.svc.NumShards(); i++ {
		out = append(out, d.svc.Shard(i))
	}
	return out
}

// close tears the deployment down in fleccd's order and waits for every
// goroutine it started.
func (d *deployment) close() {
	d.closeOnce.Do(func() {
		if d.stopHA != nil {
			close(d.stopHA)
			d.haDone.Wait()
		}
		if d.stopRepl != nil {
			d.stopRepl()
		}
		if d.dm != nil {
			d.dm.Close()
		}
		if d.brdg != nil {
			d.brdg.Close()
		}
		if d.svc != nil {
			d.svc.Close()
		}
		if d.standbyDM != nil {
			d.standbyDM.Close()
		}
	})
}

// checkInvariants runs the directory's own bookkeeping checks on every
// manager, standby included.
func (d *deployment) checkInvariants() error {
	dms := d.managers()
	if d.standbyDM != nil {
		dms = append(dms, d.standbyDM)
	}
	for _, dm := range dms {
		if err := dm.CheckInvariants(); err != nil {
			return fmt.Errorf("%s: %w", dm.Name(), err)
		}
	}
	return nil
}
