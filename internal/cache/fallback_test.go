package cache_test

import (
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

// TestFallbackNetworkRotation: an HA deployment gives each cache manager
// the standby daemon's dial network as a fallback. When the primary dies,
// the reconnect cycle rotates across the configured networks; a standby
// that has not been promoted yet answers with the "not serving" refusal,
// which counts as redialable — the client keeps rotating instead of
// surfacing the refusal — and the first promoted node wins the session.
func TestFallbackNetworkRotation(t *testing.T) {
	clock := vclock.NewSim()
	netA, netB := transport.NewInproc(), transport.NewInproc()

	prim := newKV(map[string]string{"seed": "1"})
	dm1, err := directory.New("dm", prim, clock, netA, directory.Options{})
	if err != nil {
		t.Fatal(err)
	}

	view := newKV(nil)
	cm, err := cache.New(cache.Config{
		Name: "v1", Directory: "dm",
		Net:       netA,
		Fallbacks: []transport.Network{netB},
		View:      view,
		Props:     property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
		Reconnect: &cache.ReconnectPolicy{
			Attempts: 6,
			Sleep:    func(time.Duration) {},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cm.KillImage()
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm.StartUse(); err != nil {
		t.Fatal(err)
	}
	view.Set("k", "before")
	cm.EndUse()
	if err := cm.PushImage(); err != nil {
		t.Fatal(err)
	}

	// The standby daemon lives on its own network (its own listener, in
	// the TCP deployment), hot with the primary's state.
	snap := dm1.CaptureSince(0)
	img, err := dm1.Store().Extract(property.NewSet(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sbPrim := newKV(nil)
	dm2, err := directory.New("dm", sbPrim, clock, netB, directory.Options{Snapshot: snap, Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dm2.Close()
	if err := dm2.Store().AbsorbImage(img); err != nil {
		t.Fatal(err)
	}

	// Primary dies. While the standby is unpromoted, the client rotates
	// netA (dead) → netB (not serving) → netA … until its attempts run
	// out: bounded, and the refusal is never surfaced as a protocol
	// error.
	if err := dm1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cm.StartUse(); err != nil {
		t.Fatal(err)
	}
	view.Set("k", "after")
	cm.EndUse()
	err = cm.PushImage()
	if err == nil {
		t.Fatal("push with no serving directory should fail")
	}
	if !strings.Contains(err.Error(), "attempts exhausted") {
		t.Fatalf("want bounded attempts-exhausted failure, got: %v", err)
	}

	// Promotion flips the standby to serving; the next reconnect cycle
	// lands on it and the pending write commits there, with version
	// continuity from the replicated snapshot.
	dm2.PromoteSelf()
	if err := cm.PushImage(); err != nil {
		t.Fatalf("push after promotion: %v", err)
	}
	if sbPrim.Get("k") != "after" {
		t.Fatalf("standby primary k=%q, want %q", sbPrim.Get("k"), "after")
	}
	if got := dm2.CurrentVersion(); got != 2 {
		t.Fatalf("version continuity broken: standby at v%d, want v2", got)
	}

	// The rotated session is fully live: pulls work too.
	if err := cm.PullImage(); err != nil {
		t.Fatalf("pull through fallback network: %v", err)
	}
}
