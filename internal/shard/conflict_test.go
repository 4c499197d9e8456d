package shard_test

import (
	"strings"
	"testing"

	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/property"
	"flecc/internal/shard"
	"flecc/internal/transport"
	"flecc/internal/wire"
)

// register dials the logical directory through a fresh cache manager and
// returns the registration error (nil on success). The rig's view helper
// fatals on error, so rejection tests go through here.
func (r *rig) register(name, props string) error {
	r.t.Helper()
	cm, err := cache.New(cache.Config{
		Name:      name,
		Directory: "dm",
		Net:       r.net,
		View:      newKV(nil),
		Props:     property.MustSet(props),
		Mode:      wire.Weak,
		Clock:     r.clock,
	})
	if err == nil {
		r.t.Cleanup(func() { cm.KillImage() })
	}
	return err
}

// TestRouterRejectsCrossShardConflictGroup pins two disjoint property
// domains to different shards and then tries to register a view bridging
// both: the router must refuse the registration rather than co-locate
// with just one side and silently split the bridge view's conflicts.
func TestRouterRejectsCrossShardConflictGroup(t *testing.T) {
	r := newRig(t, 4, directory.Options{})
	pinA := property.MustSet("A={1}").Properties()[0]
	pinB := property.MustSet("B={2}").Properties()[0]
	if err := r.svc.Map().Pin(pinA, shard.Node("dm", 0)); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Map().Pin(pinB, shard.Node("dm", 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.register("vA", "A={1}"); err != nil {
		t.Fatal(err)
	}
	if err := r.register("vB", "B={2}"); err != nil {
		t.Fatal(err)
	}
	err := r.register("bridge", "A={1}; B={2}")
	if err == nil {
		t.Fatal("registering a view bridging two shards must fail")
	}
	if !strings.Contains(err.Error(), "pin the property domain") {
		t.Fatalf("rejection should direct the operator to pin, got: %v", err)
	}
	if _, ok := r.svc.Router().Assignment()["bridge"]; ok {
		t.Fatal("rejected view must not keep an assignment")
	}
	// A retry with non-bridging properties succeeds cleanly.
	if err := r.register("bridge", "A={1}"); err != nil {
		t.Fatalf("re-register after rejection: %v", err)
	}
	if got := r.owner("bridge"); got != shard.Node("dm", 0) {
		t.Fatalf("bridge re-registered on %s, want %s", got, shard.Node("dm", 0))
	}
}

// TestRouterRejectsPinAgainstExistingOverlap installs a pin that points
// away from where an overlapping view already lives: a later registration
// matching the pin must be refused, not split across shards.
func TestRouterRejectsPinAgainstExistingOverlap(t *testing.T) {
	r := newRig(t, 4, directory.Options{})
	if err := r.register("v1", "C={3}"); err != nil {
		t.Fatal(err)
	}
	home := r.owner("v1")
	var target string
	for i := 0; i < r.svc.NumShards(); i++ {
		if s := shard.Node("dm", i); s != home {
			target = s
			break
		}
	}
	pinC := property.MustSet("C={3}").Properties()[0]
	if err := r.svc.Map().Pin(pinC, target); err != nil {
		t.Fatal(err)
	}
	if err := r.register("v2", "C={3}"); err == nil {
		t.Fatal("pin pointing away from the existing overlap group must be refused")
	}
}

// TestRouterRejectsCrossShardSetProps checks the TSetProps counterpart:
// a property change that would make a view overlap views owned by another
// shard is refused before the shard applies it (assignments are sticky,
// so accepting it would split the conflict group).
func TestRouterRejectsCrossShardSetProps(t *testing.T) {
	r := newRig(t, 4, directory.Options{})
	pinA := property.MustSet("A={1}").Properties()[0]
	pinB := property.MustSet("B={2}").Properties()[0]
	if err := r.svc.Map().Pin(pinA, shard.Node("dm", 0)); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Map().Pin(pinB, shard.Node("dm", 1)); err != nil {
		t.Fatal(err)
	}
	v2 := newKV(nil)
	cm1 := r.view("v1", "A={1}", wire.Weak, newKV(nil))
	cm2 := r.view("v2", "B={2}", wire.Weak, v2)
	if err := cm1.InitImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm2.InitImage(); err != nil {
		t.Fatal(err)
	}
	err := cm2.SetProps(property.MustSet("A={1}"))
	if err == nil {
		t.Fatal("set-props overlapping a view on another shard must fail")
	}
	if !strings.Contains(err.Error(), "pin the property domain") {
		t.Fatalf("rejection should direct the operator to pin, got: %v", err)
	}
	// A shard-local change still goes through.
	if err := cm2.SetProps(property.MustSet("B={2,3}")); err != nil {
		t.Fatalf("shard-local set-props: %v", err)
	}
}

// attachNode registers a scripted handler on the in-process network.
func attachNode(t *testing.T, net *transport.Inproc, name string, h transport.Handler) {
	t.Helper()
	ep, err := net.Attach(name, h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
}

// TestFailedRegisterLeavesNoAssignment checks the settle path: a shard
// refusing a registration (or being unreachable) must leave no tentative
// placement behind — a stale entry would steer the view's retry, and
// other views' conflict-affinity placement, by a registration that never
// happened.
func TestFailedRegisterLeavesNoAssignment(t *testing.T) {
	net := transport.NewInproc()
	attachNode(t, net, "s0", func(req *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TErr, Err: "registry full"}
	})
	m := shard.NewMap(0, "s0")
	router, err := shard.NewRouter(net, "dm", m)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	probe, err := net.Attach("v1", func(req *wire.Message) *wire.Message { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	if _, err := probe.Call("dm", &wire.Message{Type: wire.TRegister, View: "v1", Props: property.MustSet("P={1}")}); err == nil {
		t.Fatal("register should fail")
	}
	if s, ok := router.Assignment()["v1"]; ok {
		t.Fatalf("failed register left v1 assigned to %s", s)
	}
}
