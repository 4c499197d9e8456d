package shard_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/shard"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// haRig is a one-shard deployment with a hot standby: faulty (seeded)
// transport, simulated time, semi-synchronous replication, and a router armed to
// promote "dm!s0r" when "dm!s0"'s lease lapses. LeaseSleep advances the
// simulated clock, so a lease wait costs no wall time and every run is
// deterministic.
type haRig struct {
	t     *testing.T
	clock *vclock.Sim
	net   *transport.Faulty
	prim  *kv // primary shard's codec
	sb    *kv // standby's codec
	svc   *shard.Service
}

func newHARig(t *testing.T, seed int64, lease vclock.Duration) *haRig {
	t.Helper()
	clock := vclock.NewSim()
	net := transport.NewFaulty(transport.NewInproc(), seed)
	net.SetSleep(func(time.Duration) {})
	r := &haRig{
		t:     t,
		clock: clock,
		net:   net,
		prim:  newKV(map[string]string{"seed": "s0"}),
		sb:    newKV(nil),
	}
	noSleep := func(time.Duration) {}
	svc, err := shard.NewService(shard.ServiceConfig{
		Name:    "dm",
		Net:     net,
		Clock:   clock,
		Shards:  1,
		Primary: func(int) image.Codec { return r.prim },
		Standby: func(int) image.Codec { return r.sb },
		Repl: directory.ReplConfig{
			Retry: transport.RetryPolicy{Attempts: 3, Sleep: noSleep},
		},
		Lease:      lease,
		LeaseSleep: func(d vclock.Duration) { clock.Advance(d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Router().SetRetryPolicy(transport.RetryPolicy{Attempts: 2, Sleep: noSleep})
	r.svc = svc
	t.Cleanup(func() { svc.Close() })
	return r
}

func (r *haRig) view(name string, view *kv) *cache.Manager {
	r.t.Helper()
	cm, err := cache.New(cache.Config{
		Name: name, Directory: "dm", Net: r.net, View: view,
		Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: r.clock,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	return cm
}

// TestShardFailoverKillTheLeader: the kill-the-leader soak. Three views
// push writes through the router; mid-run the primary is isolated at the
// network. The next routed call waits out the lease, the router promotes
// the hot standby, and the same call succeeds against it — the client
// sees latency, never an error. Every acknowledged commit must be
// readable afterwards (zero acked loss), and the router must report one
// failover and no regressions.
func TestShardFailoverKillTheLeader(t *testing.T) {
	fp1 := runKillTheLeader(t, 42)
	// Byte-identical seeded runs: the same seed replays the same
	// history, byte for byte.
	fp2 := runKillTheLeader(t, 42)
	if fp1 != fp2 {
		t.Fatalf("seeded soak diverged:\nrun1: %s\nrun2: %s", fp1, fp2)
	}
	if fp3 := runKillTheLeader(t, 7); fp3 == "" {
		t.Fatal("second seed produced no fingerprint")
	}
}

// runKillTheLeader executes one seeded soak and returns a fingerprint of
// its observable history (final standby state, versions, counters).
func runKillTheLeader(t *testing.T, seed int64) string {
	t.Helper()
	r := newHARig(t, seed, 200)

	views := make([]*kv, 3)
	cms := make([]*cache.Manager, 3)
	for i := range cms {
		views[i] = newKV(nil)
		cms[i] = r.view(fmt.Sprintf("v%d", i+1), views[i])
		if err := cms[i].InitImage(); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 20
	const killAt = 10
	acked := map[string]string{}
	for round := 0; round < rounds; round++ {
		if round == killAt {
			// Kill the leader: every edge touching the primary is cut.
			r.net.Isolate("dm!s0")
		}
		if round == 5 {
			// And mid-run, lose one replication batch in flight: the
			// sender's retry re-ships it, so the commit still barriers.
			r.net.DisconnectNext("dm!s0", "dm!s0r", 1)
		}
		for i, cm := range cms {
			key := fmt.Sprintf("k%d", round%4+i*4)
			val := fmt.Sprintf("r%d-v%d", round, i+1)
			if err := cm.StartUse(); err != nil {
				t.Fatalf("round %d view %d StartUse: %v", round, i, err)
			}
			views[i].Set(key, val)
			cm.EndUse()
			// Bounded failover cost: pushes never fail — the routed call
			// that finds the primary dead absorbs lease-wait + promotion
			// + retry internally.
			if err := cm.PushImage(); err != nil {
				t.Fatalf("round %d view %d push: %v", round, i, err)
			}
			acked[key] = val
		}
		r.clock.Advance(1)
	}

	router := r.svc.Router()
	if got := router.Failovers(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	if got := router.Regressions(); got != 0 {
		t.Fatalf("failover regressions = %d — an acked commit is missing from the standby", got)
	}
	// The shard map now routes to the standby.
	if owner := router.Assignment()["v1"]; owner != "dm!s0r" {
		t.Fatalf("v1 routes to %s after failover, want dm!s0r", owner)
	}

	// Zero acked loss: every acknowledged write is readable through the
	// promoted standby.
	if err := cms[0].PullImage(); err != nil {
		t.Fatalf("post-failover pull: %v", err)
	}
	for k, want := range acked {
		if got := views[0].Get(k); got != want {
			t.Fatalf("acked commit lost across failover: %s = %q, want %q", k, got, want)
		}
	}

	sbDM := r.svc.Standby(0)
	if sbDM == nil || sbDM.Name() != "dm!s0r" {
		t.Fatal("standby manager dm!s0r unreachable via Standby(0)")
	}
	if sbDM.Standby() {
		t.Fatal("promoted standby still gating client traffic")
	}

	// Fingerprint the run for the determinism check.
	var b strings.Builder
	fmt.Fprintf(&b, "ver=%d epoch=%d failovers=%d|", sbDM.CurrentVersion(), sbDM.Epoch(), router.Failovers())
	keys := make([]string, 0, len(acked))
	for k := range acked {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s;", k, r.sb.Get(k))
	}
	return b.String()
}

// TestShardFailoverQueuesConcurrentCallers: routed calls that arrive
// while a failover holds the shard frozen queue in the router and resume
// against the promoted standby. The promote call is slowed (an edge delay
// whose sleep hook starts the other views' pushes and waits until they
// have reached the router), so those pushes find the shard frozen. Every
// push must succeed, and the standby must hold every write.
func TestShardFailoverQueuesConcurrentCallers(t *testing.T) {
	r := newHARig(t, 1, 200)
	views := make([]*kv, 3)
	cms := make([]*cache.Manager, 3)
	for i := range cms {
		views[i] = newKV(nil)
		cms[i] = r.view(fmt.Sprintf("v%d", i+1), views[i])
		if err := cms[i].InitImage(); err != nil {
			t.Fatal(err)
		}
		if err := cms[i].StartUse(); err != nil {
			t.Fatal(err)
		}
		views[i].Set(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i+1))
		cms[i].EndUse()
	}

	var arrived atomic.Int32
	r.net.AddObserver(transport.ObserverFunc(func(from, to string, m *wire.Message) {
		if to == "dm" && m.Type == wire.TPush {
			arrived.Add(1)
		}
	}))
	errs := make(chan error, len(cms)-1)
	var once sync.Once
	r.net.SetSleep(func(time.Duration) {
		once.Do(func() {
			for _, cm := range cms[1:] {
				go func(cm *cache.Manager) { errs <- cm.PushImage() }(cm)
			}
			for arrived.Load() < int32(len(cms)) {
				time.Sleep(time.Millisecond)
			}
			// Let the late pushes get from the router's entry to its
			// frozen-shard wait.
			time.Sleep(20 * time.Millisecond)
		})
	})
	r.net.SetEdgeDelay("dm", "dm!s0r", time.Millisecond)
	r.net.Isolate("dm!s0")

	if err := cms[0].PushImage(); err != nil {
		t.Fatalf("push that found the primary dead: %v", err)
	}
	for range cms[1:] {
		if err := <-errs; err != nil {
			t.Fatalf("push queued behind the failover: %v", err)
		}
	}
	router := r.svc.Router()
	if got := router.Failovers(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	if got := router.Regressions(); got != 0 {
		t.Fatalf("failover regressions = %d", got)
	}
	for i := range cms {
		key, want := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i+1)
		if got := r.sb.Get(key); got != want {
			t.Fatalf("standby %s = %q, want %q", key, got, want)
		}
	}
}

// TestShardFailoverReplicationKeepsStandbyHot: before any failure, the
// replication session keeps the standby at the primary's version
// after every acked push — the property that makes promotion lossless.
func TestShardFailoverReplicationKeepsStandbyHot(t *testing.T) {
	r := newHARig(t, 1, 200)
	view := newKV(nil)
	cm := r.view("v1", view)
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := cm.StartUse(); err != nil {
			t.Fatal(err)
		}
		view.Set("k", fmt.Sprintf("w%d", i))
		cm.EndUse()
		if err := cm.PushImage(); err != nil {
			t.Fatal(err)
		}
		prim, sb := r.svc.Shard(0), r.svc.Standby(0)
		if prim.CurrentVersion() != sb.CurrentVersion() {
			t.Fatalf("push %d: standby at v%d, primary at v%d", i, sb.CurrentVersion(), prim.CurrentVersion())
		}
		if lag := prim.ReplLag(); lag != 0 {
			t.Fatalf("push %d: ReplLag = %d", i, lag)
		}
	}
	if r.sb.Get("k") != "w4" {
		t.Fatalf("standby codec k=%q, want w4", r.sb.Get("k"))
	}
	// Heartbeat is safe to call and keeps counters sane.
	r.svc.Replication(0).Heartbeat()
	if r.svc.Replication(0).Degraded() {
		t.Fatal("healthy pair reports degraded")
	}
}
