package main

import (
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"flecc/internal/directory"
	"flecc/internal/secure"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// Daemon-level HA wiring (single-DM mode). Two fleccd processes pair up:
//
//	fleccd -addr :7070 -checkpoint /var/lib/flecc/db.ckpt -replicate-to 127.0.0.1:7071
//	fleccd -addr :7071 -standby
//
// The primary dials the standby's listen address and streams replication
// batches (internal/directory's TReplicate session); every client-visible
// mutation barriers on the standby's ack. The standby refuses client
// traffic until it notices the stream has been silent past the lease and
// promotes itself (no message can promote it); the primary, unable to
// reach its standby past the same lease, fences itself — so at most one
// side serves. Clients re-dial via their fallback address list
// (internal/cache Config.Fallbacks).

// haOpts carries the -standby / -replicate-to / -ha-lease flags into run.
type haOpts struct {
	standby     bool
	replicateTo string
	lease       time.Duration
}

func (h haOpts) enabled() bool { return h.standby || h.replicateTo != "" }

// leaseMs converts the flag duration to the virtual-clock unit.
func (h haOpts) leaseMs() vclock.Duration {
	return vclock.Duration(h.lease / time.Millisecond)
}

// refuseCallback answers server-initiated calls on the replication link;
// the link exists only for primary→standby requests, so anything arriving
// the other way is a protocol violation.
func refuseCallback(req *wire.Message) *wire.Message {
	return &wire.Message{Type: wire.TErr, Err: "fleccd: replication link carries no server-initiated calls"}
}

// redialEndpoint is a self-healing dialing endpoint for the replication
// link: it dials lazily on first use and, when a call fails at the
// transport level, drops the dead connection so the next call (the
// replicator's heartbeat probe) dials afresh. Without it, one standby
// restart would degrade replication until the primary restarted too.
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

// startDaemonReplication attaches the primary's replication session,
// dialing the standby daemon at addr (through the shared-key encryptor
// pair when the link is protected). The returned stop function closes the
// session and the link.
func startDaemonReplication(dm *directory.Manager, name, addr, key string, ha haOpts, retry transport.RetryPolicy) (*directory.Replicator, func(), error) {
	dnet := transport.NewDialNetwork(addr, 30*time.Second)
	if key != "" {
		pair := secure.NewPair([]byte(key))
		dnet.DialFn = func(a string) (net.Conn, error) { return secure.Dial(a, pair) }
	}
	ep := &redialEndpoint{dnet: dnet, name: name + "!repl"}
	repl, err := dm.StartReplication(directory.ReplConfig{
		Lease:        ha.leaseMs(),
		FenceOnLapse: true,
		Retry:        retry,
	}, directory.ReplTarget{Name: name, Ep: ep})
	if err != nil {
		ep.Close()
		return nil, nil, err
	}
	log.Printf("fleccd: replicating to standby at %s (lease %s)", addr, ha.lease)
	return repl, func() { repl.Close(); ep.Close() }, nil
}

// haTicker drives the periodic HA work: heartbeats on the primary
// (which double as fence checks and down-standby probes) and the
// silence check on the standby. A quarter-lease period keeps both
// well inside the lease.
func haTicker(ha haOpts) (*time.Ticker, <-chan time.Time) {
	period := ha.lease / 4
	if period < 50*time.Millisecond {
		period = 50 * time.Millisecond
	}
	t := time.NewTicker(period)
	return t, t.C
}

// haTick runs one HA maintenance step; it returns a human-readable role
// transition to log, or "".
func haTick(dm *directory.Manager, repl *directory.Replicator, ha haOpts, wasFenced, wasStandby *bool) string {
	if repl != nil {
		repl.Heartbeat()
		if f := dm.Fenced(); f && !*wasFenced {
			*wasFenced = true
			return "fenced: standby unreachable past the lease (it may have promoted); refusing all traffic"
		}
	}
	if ha.standby && *wasStandby && dm.Standby() {
		if s := dm.StandbySilence(); s > ha.leaseMs() {
			epoch := dm.PromoteSelf()
			*wasStandby = false
			return fmt.Sprintf("promoted to primary (replication silent %s > lease): epoch %d",
				time.Duration(s)*time.Millisecond, epoch)
		}
	}
	return ""
}
