package shard

import (
	"time"

	"flecc/internal/directory"
	"flecc/internal/metrics"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// Lease-based failover (the router half of the HA directory; see
// internal/directory/replicate.go for the replication half). Each shard
// primary holds a time-bounded lease that every successful routed call
// renews. When a routed call finds the primary unreachable and a standby
// is configured, the calling goroutine waits out the lease remainder —
// a merely-slow primary gets its full lease to answer — then the router
// promotes the standby with a promote-only TReplicate under the next
// epoch and re-points the shard's slot at it: assignment table, shard
// map membership, and pins all move, with no global consensus round
// (the consensus-free reconfiguration template of Alchieri et al.).
// The client's request is then retried against the new primary, so a
// failover costs one caller a bounded wait and everyone else nothing.
//
// Epoch fencing closes the split-brain window: the deposed primary's
// next replication batch is refused with "stale epoch" and it fences
// itself (directory.Replicator), so even a primary that was only
// partitioned — not dead — stops serving once its standby took over.

// FailoverConfig enables router-coordinated failover.
type FailoverConfig struct {
	// Clock times the lease (virtual ms).
	Clock vclock.Clock
	// Lease is how long after the last successful call a shard primary's
	// lease lasts. A failed call only triggers promotion once the lease
	// has fully lapsed.
	Lease vclock.Duration
	// Sleep waits out the lease remainder; nil uses wall-clock sleep
	// (vclock.Duration is milliseconds). Simulated-time tests inject one.
	Sleep func(vclock.Duration)
}

// haShard is the router's failover record for one shard primary.
type haShard struct {
	standby string // standby node promoted when the lease lapses
	lastOK  vclock.Time
	epoch   uint64
}

// SetFailover installs the failover configuration. Call before
// SetStandby.
func (r *Router) SetFailover(cfg FailoverConfig) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fo = cfg
	if r.failovers == nil {
		r.failovers = metrics.NewCounter(r.name + ".failovers")
		r.regressions = metrics.NewCounter(r.name + ".failover_regressions")
	}
	for _, ha := range r.ha {
		ha.lastOK = cfg.Clock.Now()
	}
}

// SetStandby registers a standby node for a member shard. The standby
// must be attached to the router's network and kept hot by the shard
// primary's replication session; the router only promotes and re-points.
func (r *Router) SetStandby(shard, standby string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var now vclock.Time
	if r.fo.Clock != nil {
		now = r.fo.Clock.Now()
	}
	prev := r.ha[shard]
	if prev != nil {
		prev.standby = standby
		return
	}
	r.ha[shard] = &haShard{standby: standby, lastOK: now}
}

// Failovers returns how many standby promotions this router has
// performed.
func (r *Router) Failovers() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failovers == nil {
		return 0
	}
	return r.failovers.Value()
}

// Regressions returns how many promotions reported a standby version
// below the best the router had observed from the deposed primary —
// each one is an acknowledged commit the standby never absorbed.
func (r *Router) Regressions() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.regressions == nil {
		return 0
	}
	return r.regressions.Value()
}

func (r *Router) foSleep(d vclock.Duration) {
	if r.fo.Sleep != nil {
		r.fo.Sleep(d)
		return
	}
	time.Sleep(time.Duration(d) * time.Millisecond)
}

// touchShard renews a shard's lease after a successful call. Caller
// holds mu.
func (r *Router) touchShardLocked(shard string) {
	if ha := r.ha[shard]; ha != nil && r.fo.Clock != nil {
		ha.lastOK = r.fo.Clock.Now()
	}
}

// failover is called by route after a shard proved unreachable. It
// returns true when the caller should re-resolve and retry: either this
// goroutine promoted the standby, another one already did, or the
// primary's lease was renewed while we waited (it recovered). False
// means failover is not possible (no standby, no clock, promotion
// failed too) and the original error stands.
func (r *Router) failover(shard string) bool {
	r.mu.Lock()
	if r.fo.Clock == nil {
		r.mu.Unlock()
		return false
	}
	for {
		if r.closed {
			r.mu.Unlock()
			return false
		}
		ha := r.ha[shard]
		if ha == nil {
			// Already failed over (the shard's slot moved) — or never
			// configured. Retry exactly when the shard left the map.
			gone := !r.m.Has(shard)
			r.mu.Unlock()
			return gone
		}
		if ha.standby == "" {
			r.mu.Unlock()
			return false
		}
		if r.frozen[shard] {
			// Another failover owns the shard; when it finishes,
			// re-evaluate from scratch.
			r.cond.Wait()
			continue
		}
		start := ha.lastOK
		remaining := start + r.fo.Lease - r.fo.Clock.Now()
		if remaining > 0 {
			// The primary still holds its lease: wait it out, off the lock
			// so other shards route freely.
			r.mu.Unlock()
			r.foSleep(remaining)
			r.mu.Lock()
			continue
		}
		if ha.lastOK > start {
			// Renewed while deciding: the primary answered someone else.
			r.mu.Unlock()
			return true
		}
		// Lease lapsed: this goroutine performs the promotion. Freeze and
		// drain the shard so no routed call races the re-pointing.
		r.frozen[shard] = true
		for r.inflight[shard] > 0 {
			r.cond.Wait()
		}
		promoted := r.promoteLocked(shard, ha)
		delete(r.frozen, shard)
		r.cond.Broadcast()
		r.mu.Unlock()
		return promoted
	}
}

// promoteLocked sends the promote-only batch to the standby and, on
// success, re-points the shard's slot: assignments, map membership, and
// pins. Called with mu held and the shard frozen+drained; the promote
// call itself runs off the lock.
func (r *Router) promoteLocked(shard string, ha *haShard) bool {
	epoch := ha.epoch + 1
	msg := directory.PromoteMessage(epoch)
	retry := r.retry
	r.mu.Unlock()
	reply, err := transport.CallRetry(r.ep, ha.standby, msg, retry)
	r.mu.Lock()
	if err != nil || reply == nil || reply.Type != wire.TReplAck {
		// Standby down too; the shard stays as-is and the caller's
		// original error stands.
		return false
	}
	// Re-point: every view owned by the dead primary moves to the
	// standby, pins targeting it are re-issued against the standby
	// (before Remove, which drops them), and the membership swaps.
	for v, s := range r.assign {
		if s == shard {
			r.assign[v] = ha.standby
		}
	}
	pins := r.m.Pins()
	r.m.Add(ha.standby)
	for _, p := range pins {
		if p.Shard == shard {
			_ = r.m.Pin(p.Prop, ha.standby)
		}
	}
	r.m.Remove(shard)
	if uint64(reply.Version) > r.vv[ha.standby] {
		r.vv[ha.standby] = uint64(reply.Version)
	}
	if uint64(reply.Version) < r.vv[shard] {
		// The standby is behind the best version the router observed from
		// the deposed primary: an acknowledged commit is missing.
		r.regressions.Inc()
	}
	r.ha[ha.standby] = &haShard{epoch: epoch, lastOK: r.fo.Clock.Now()}
	delete(r.ha, shard)
	r.failovers.Inc()
	return true
}
