package directory_test

import (
	"strings"
	"testing"
	"time"

	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// newFaultyDM builds a DM behind a Faulty-wrapped Inproc with a fast retry
// policy so eviction tests do not sleep through real backoff.
func newFaultyDM(t *testing.T) (*directory.Manager, *transport.Faulty, *vclock.Sim) {
	t.Helper()
	f := transport.NewFaulty(transport.NewInproc(), 1)
	clock := vclock.NewSim()
	dm, err := directory.New("dm", newKV(), clock, f, directory.Options{
		Retry: transport.RetryPolicy{Attempts: 3, Base: time.Microsecond, Sleep: func(time.Duration) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dm, f, clock
}

func newStrongEvictCM(t *testing.T, net transport.Network, clock vclock.Clock, name string) *cache.Manager {
	t.Helper()
	cm, err := cache.New(cache.Config{
		Name: name, Directory: "dm", Net: net, View: newKV(),
		Props: property.MustSet("P={x}"), Mode: wire.Strong, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
	return cm
}

// TestTransientFaultDoesNotEvict: a single dropped invalidation is absorbed
// by the DM's bounded retry; the view stays registered and reachable.
func TestTransientFaultDoesNotEvict(t *testing.T) {
	dm, f, clock := newFaultyDM(t)
	cm1 := newStrongEvictCM(t, f, clock, "v1")
	cm2 := newStrongEvictCM(t, f, clock, "v2")
	if err := cm1.PullImage(); err != nil { // v1 becomes the holder
		t.Fatal(err)
	}
	f.DisconnectNext("dm", "v1", 1)
	if err := cm2.PullImage(); err != nil {
		t.Fatalf("pull must succeed after one retry: %v", err)
	}
	if n := dm.ViewsEvicted(); n != 0 {
		t.Fatalf("transient blip evicted %d views", n)
	}
	if lost := dm.LostViews(); len(lost) != 0 {
		t.Fatalf("lost views = %v, want none", lost)
	}
}

// TestExhaustedRetriesEvict: when every retry fails (hard partition between
// the DM and the holder), the holder is evicted, the pull proceeds, and the
// metric and tombstone record it.
func TestExhaustedRetriesEvict(t *testing.T) {
	dm, f, clock := newFaultyDM(t)
	cm1 := newStrongEvictCM(t, f, clock, "v1")
	cm2 := newStrongEvictCM(t, f, clock, "v2")
	if err := cm1.PullImage(); err != nil {
		t.Fatal(err)
	}
	f.Partition("dm", "v1")
	if err := cm2.PullImage(); err != nil {
		t.Fatalf("pull must proceed after evicting the dead holder: %v", err)
	}
	if n := dm.ViewsEvicted(); n != 1 {
		t.Fatalf("ViewsEvicted = %d, want 1", n)
	}
	if lost := dm.LostViews(); len(lost) != 1 || lost[0] != "v1" {
		t.Fatalf("lost views = %v, want [v1]", lost)
	}
	// A lost view is out of the conflict set: further strong pulls need no
	// invalidation round at all.
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}

	// Heal and let the lost view speak: contact revives the tombstone.
	f.Heal("dm", "v1")
	if err := cm1.PullImage(); err != nil {
		t.Fatalf("revived view pull: %v", err)
	}
	if lost := dm.LostViews(); len(lost) != 0 {
		t.Fatalf("still lost after contact: %v", lost)
	}
}

// TestReRegisterIdempotent: re-registering with unchanged properties is an
// ack, not an error, and preserves the view's seen version — the contract a
// reconnecting cache manager depends on.
func TestReRegisterIdempotent(t *testing.T) {
	dm, net, _, _ := newDM(t)
	ep, err := net.Attach("v1", func(req *wire.Message) *wire.Message { return nil })
	if err != nil {
		t.Fatal(err)
	}
	props := property.MustSet("P={x}")
	reg := func() (*wire.Message, error) {
		return ep.Call("dm", &wire.Message{Type: wire.TRegister, View: "v1", Mode: wire.Weak, Props: props})
	}
	if _, err := reg(); err != nil {
		t.Fatal(err)
	}
	// Advance the primary and let the view catch up so seen is non-zero.
	d := image.New()
	d.Put(image.Entry{Key: "k", Value: []byte("v")})
	if _, err := dm.CommitLocal(d, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Call("dm", &wire.Message{Type: wire.TPull}); err != nil {
		t.Fatal(err)
	}
	seen := dm.Seen("v1")
	if seen == 0 {
		t.Fatal("setup: seen should be non-zero after a pull")
	}

	reply, err := reg()
	if err != nil {
		t.Fatalf("idempotent re-register rejected: %v", err)
	}
	if reply.Version != dm.CurrentVersion() {
		t.Fatalf("re-register ack version = %d, want %d", reply.Version, dm.CurrentVersion())
	}
	if got := dm.Seen("v1"); got != seen {
		t.Fatalf("seen reset by re-register: %d -> %d", seen, got)
	}

	// Different properties from a live holder are still a conflict.
	_, err = ep.Call("dm", &wire.Message{Type: wire.TRegister, View: "v1", Mode: wire.Weak,
		Props: property.MustSet("P={y}")})
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("changed-props re-register: %v", err)
	}
}
