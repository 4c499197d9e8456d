package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// TestHAKillTheLeaderSoak is the kill-the-leader soak on the daemon pair
// fleccd ships (-replicate-to / -standby). Three views push through the
// primary; mid-run the primary is cut off from its clients and its
// standby at once. haTick then runs on both sides as the daemons' tickers
// would: the primary fences itself once its lease lapses, the standby
// promotes itself once the replication stream has been silent past the
// same lease, and the views' reconnect cycles rotate onto it. No acked
// write may be lost, exactly one node may take over, and the same seed
// must replay the same history byte for byte.
func TestHAKillTheLeaderSoak(t *testing.T) {
	fp := runKillTheLeader(t, 42)
	if again := runKillTheLeader(t, 42); again != fp {
		t.Fatalf("seeded soak diverged:\nrun1: %s\nrun2: %s", fp, again)
	}
	if other := runKillTheLeader(t, 7); other == fp {
		t.Fatalf("seeds 42 and 7 replayed the same history: %s", fp)
	}
}

// runKillTheLeader runs one seeded soak and returns a fingerprint of its
// observable history. The seed picks the kill round, the order in which
// the views write each round and the keys they write.
func runKillTheLeader(t *testing.T, seed int64) string {
	t.Helper()
	const (
		rounds = 20
		lease  = 200 // ms of the simulated clock
	)
	clock := vclock.NewSim()
	// The primary daemon's listener (A) and the standby's (B) are separate
	// networks, as in a TCP deployment; clients list B as their fallback.
	netA := transport.NewFaulty(transport.NewInproc(), seed)
	netB := transport.NewFaulty(transport.NewInproc(), seed)

	primCodec, sbCodec := newMapCodec(), newMapCodec()
	prim, err := directory.New("dm", primCodec, clock, netA, directory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prim.Close() })
	sb, err := directory.New("dm", sbCodec, clock, netB, directory.Options{Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sb.Close() })
	// The primary's end of the replication link, as startDaemonReplication
	// dials it: a "dm!repl" endpoint on the standby's network.
	replEp, err := netB.Attach("dm!repl", refuseCallback)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replEp.Close() })
	repl, err := prim.StartReplication(directory.ReplConfig{
		Lease:        lease,
		FenceOnLapse: true,
		Retry:        transport.RetryPolicy{Attempts: 3, Sleep: func(time.Duration) {}},
	}, directory.ReplTarget{Name: "dm", Ep: replEp})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(repl.Close)

	primHA := haOpts{replicateTo: "standby", lease: lease * time.Millisecond}
	sbHA := haOpts{standby: true, lease: lease * time.Millisecond}
	primFenced, primStandby := false, false
	sbFenced, sbStandby := false, true
	promotions := 0
	tickStandby := func() {
		if msg := haTick(sb, nil, sbHA, &sbFenced, &sbStandby); strings.Contains(msg, "promoted") {
			promotions++
		}
	}
	// killLeader cuts the primary off from its clients and its standby,
	// then drives the primary's HA ticks until it fences itself: one
	// heartbeat finds the standby unreachable, and the first tick past
	// the lease fences.
	killLeader := func() {
		netA.Isolate("dm")
		netB.Isolate("dm!repl")
		if msg := haTick(prim, repl, primHA, &primFenced, &primStandby); msg != "" {
			t.Fatalf("primary transition inside its lease: %q", msg)
		}
		// The heartbeat ships from the sender goroutine; wait for it to
		// give up before the clock moves, so the outage starts at a fixed
		// time.
		deadline := time.Now().Add(10 * time.Second)
		for !repl.Degraded() {
			if time.Now().After(deadline) {
				t.Fatal("heartbeat never found the isolated standby unreachable")
			}
			time.Sleep(time.Millisecond)
		}
		clock.Advance(lease + 1)
		if msg := haTick(prim, repl, primHA, &primFenced, &primStandby); !strings.Contains(msg, "fenced") {
			t.Fatalf("primary tick past the lease returned %q, want a fence", msg)
		}
	}
	epochBefore := sb.Epoch()

	views := make([]*mapCodec, 3)
	cms := make([]*cache.Manager, 3)
	for i := range cms {
		views[i] = newMapCodec()
		cm, err := cache.New(cache.Config{
			Name: fmt.Sprintf("v%d", i+1), Directory: "dm",
			Net: netA, Fallbacks: []transport.Network{netB},
			View: views[i], Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
			// Reconnect backoff spends simulated time, so a failover costs
			// no wall time and replays identically.
			Reconnect: &cache.ReconnectPolicy{
				Attempts: 6, Jitter: 0.2, Seed: seed,
				Sleep: func(d time.Duration) { clock.Advance(vclock.Duration(d / time.Millisecond)) },
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cm.KillImage() })
		cms[i] = cm
		if err := cm.InitImage(); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	killAt := 4 + rng.Intn(rounds-8)
	acked := map[string]string{}
	var maxAcked vclock.Version
	for round := 0; round < rounds; round++ {
		switch round {
		case killAt / 2:
			// Lose one replication batch in flight: the sender's retry
			// re-ships it, so the commit still barriers.
			netB.DisconnectNext("dm!repl", "dm", 1)
		case killAt:
			killLeader()
		}
		tickStandby()
		if round < killAt && !sb.Standby() {
			t.Fatalf("round %d: a fed standby promoted itself", round)
		}
		for _, i := range rng.Perm(len(cms)) {
			key := fmt.Sprintf("k%d", rng.Intn(4)+i*4)
			val := fmt.Sprintf("r%d-v%d", round, i+1)
			if err := cms[i].StartUse(); err != nil {
				t.Fatalf("round %d view %d StartUse: %v", round, i+1, err)
			}
			views[i].set(key, val)
			cms[i].EndUse()
			// The view that finds the primary dead absorbs the failover in
			// its reconnect cycle: its push does not fail.
			if err := cms[i].PushImage(); err != nil {
				t.Fatalf("round %d view %d push: %v", round, i+1, err)
			}
			acked[key] = val
			maxAcked = max(maxAcked, cms[i].Acked())
		}
		// A round spends a twentieth of the lease, so the whole run before
		// the kill fits inside one: only the kill lets the standby's
		// silence outgrow the lease.
		clock.Advance(lease / 20)
	}

	// Zero acked loss: every acknowledged write is on the promoted
	// standby, and its version covers the highest version ever acked.
	for k, want := range acked {
		if got := sbCodec.get(k); got != want {
			t.Fatalf("acked write lost across failover: %s = %q, want %q", k, got, want)
		}
	}
	if v := sb.CurrentVersion(); v < maxAcked {
		t.Fatalf("standby at v%d, below the highest acked version v%d", v, maxAcked)
	}
	if promotions != 1 {
		t.Fatalf("%d promotions, want exactly 1", promotions)
	}
	if got := sb.Epoch(); got != epochBefore+1 {
		t.Fatalf("standby epoch %d after failover, want %d", got, epochBefore+1)
	}
	if !prim.Fenced() {
		t.Fatal("isolated primary still serving after its lease lapsed")
	}

	var b strings.Builder
	fmt.Fprintf(&b, "kill=%d ver=%d acked=%d epoch=%d injected=%d/%d|",
		killAt, sb.CurrentVersion(), maxAcked, sb.Epoch(), netA.Injected(), netB.Injected())
	keys := make([]string, 0, len(acked))
	for k := range acked {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s;", k, sbCodec.get(k))
	}
	return b.String()
}
