package shard_test

import (
	"errors"
	"fmt"
	"testing"

	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/property"
	"flecc/internal/shard"
	"flecc/internal/wire"
)

// TestRouterPushPullRoundTrip runs the basic protocol exchange through a
// 4-shard router: the cache managers dial "dm" exactly as they would a
// single directory manager.
func TestRouterPushPullRoundTrip(t *testing.T) {
	r := newRig(t, 4, directory.Options{})
	v1, v2 := newKV(nil), newKV(nil)
	cm1 := r.view("v1", "P={x}", wire.Weak, v1)
	cm2 := r.view("v2", "P={x}", wire.Weak, v2)
	if err := cm1.InitImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm2.InitImage(); err != nil {
		t.Fatal(err)
	}
	if v1.Get("seed") != "s0" {
		t.Fatal("init should deliver the primary data through the router")
	}
	if err := cm1.StartUse(); err != nil {
		t.Fatal(err)
	}
	v1.Set("ticket", "sold-to-alice")
	cm1.EndUse()
	if err := cm1.PushImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if v2.Get("ticket") != "sold-to-alice" {
		t.Fatal("pull should deliver the pushed update")
	}
	// Conflicting views must be co-located.
	if r.owner("v1") != r.owner("v2") {
		t.Fatalf("overlapping views split: v1 on %s, v2 on %s", r.owner("v1"), r.owner("v2"))
	}
}

// TestRouterStrongModeInvalidation re-runs the paper's Figure 2
// walkthrough with the directory sharded 4 ways: invalidation and update
// gathering work because conflicting views share a shard.
func TestRouterStrongModeInvalidation(t *testing.T) {
	r := newRig(t, 4, directory.Options{})
	v1, v2 := newKV(nil), newKV(nil)
	cm1 := r.view("v1", "P={x,y}", wire.Strong, v1)
	cm2 := r.view("v2", "P={x,z}", wire.Strong, v2)
	if err := cm1.InitImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm1.StartUse(); err != nil {
		t.Fatal(err)
	}
	v1.Set("x", "v1-wrote-this")
	cm1.EndUse()

	if err := cm2.InitImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if cm1.Valid() {
		t.Fatal("v1 should be invalidated")
	}
	if v2.Get("x") != "v1-wrote-this" {
		t.Fatalf("v2 sees x=%q", v2.Get("x"))
	}
	if err := cm1.StartUse(); !errors.Is(err, cache.ErrInvalidated) {
		t.Fatalf("err = %v", err)
	}
	if err := cm1.PullImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm1.StartUse(); err != nil {
		t.Fatal(err)
	}
	cm1.EndUse()
}

// TestRouterSpreadsDisjointViews checks that non-conflicting views
// actually use more than one shard — the point of the exercise.
func TestRouterSpreadsDisjointViews(t *testing.T) {
	r := newRig(t, 4, directory.Options{})
	for i := 0; i < 16; i++ {
		props := fmt.Sprintf("P%d={a,b}", i)
		cm := r.view(fmt.Sprintf("v%d", i), props, wire.Weak, newKV(nil))
		if err := cm.InitImage(); err != nil {
			t.Fatal(err)
		}
	}
	used := map[string]bool{}
	for _, s := range r.svc.Router().Assignment() {
		used[s] = true
	}
	if len(used) < 2 {
		t.Fatalf("16 disjoint views all landed on one shard: %v", r.svc.Router().Assignment())
	}
}

// TestRouterPinPlacement installs a pin before registration and checks
// the view bypasses the ring.
func TestRouterPinPlacement(t *testing.T) {
	r := newRig(t, 4, directory.Options{})
	target := shard.Node("dm", 2)
	flights := property.MustSet("Flights={100,101}").Properties()[0]
	if err := r.svc.Map().Pin(flights, target); err != nil {
		t.Fatal(err)
	}
	cm := r.view("agent", "Flights={100}", wire.Weak, newKV(nil))
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
	if got := r.owner("agent"); got != target {
		t.Fatalf("pinned view on %s, want %s", got, target)
	}
}

// TestRouterRejectsUnroutableAndUnknown checks the router's input
// validation: DM→CM message types never cross it, and non-register
// traffic for a view it has never placed is refused.
func TestRouterRejectsUnroutableAndUnknown(t *testing.T) {
	r := newRig(t, 2, directory.Options{})
	ep, err := r.net.Attach("probe", func(req *wire.Message) *wire.Message { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if reply, err := ep.Call("dm", &wire.Message{Type: wire.TInvalidate, View: "x"}); err == nil {
		t.Fatalf("TInvalidate should be refused, got %v", reply)
	}
	if reply, err := ep.Call("dm", &wire.Message{Type: wire.TPull, View: "ghost"}); err == nil {
		t.Fatalf("pull for unknown view should be refused, got %v", reply)
	}
	if reply, err := ep.Call("dm", &wire.Message{Type: wire.TRouted}); err == nil {
		t.Fatalf("nested TRouted should be refused, got %v", reply)
	}
}

// TestRouterUnregisterClearsAssignment checks killImage releases the
// view's placement.
func TestRouterUnregisterClearsAssignment(t *testing.T) {
	r := newRig(t, 2, directory.Options{})
	cm := r.view("v1", "P={x}", wire.Weak, newKV(nil))
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.svc.Router().Assignment()["v1"]; !ok {
		t.Fatal("v1 should be assigned after registration")
	}
	if err := cm.KillImage(); err != nil {
		t.Fatal(err)
	}
	if s, ok := r.svc.Router().Assignment()["v1"]; ok {
		t.Fatalf("v1 still assigned to %s after unregister", s)
	}
}

// TestRouterVersionVector checks the router tracks each shard's primary
// version from the replies that pass through it.
func TestRouterVersionVector(t *testing.T) {
	r := newRig(t, 4, directory.Options{})
	v1 := newKV(nil)
	cm1 := r.view("v1", "P={x}", wire.Weak, v1)
	if err := cm1.InitImage(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := cm1.StartUse(); err != nil {
			t.Fatal(err)
		}
		v1.Set("k", fmt.Sprintf("val-%d", i))
		cm1.EndUse()
		if err := cm1.PushImage(); err != nil {
			t.Fatal(err)
		}
	}
	owner := r.owner("v1")
	_, idx, ok := shard.IsNode(owner)
	if !ok {
		t.Fatalf("owner %q is not a shard node", owner)
	}
	dm := r.svc.Shard(idx)
	vv := r.svc.Router().Versions()
	if vv[owner] == 0 {
		t.Fatalf("no version observed for %s: %v", owner, vv)
	}
	if vv[owner] != uint64(dm.CurrentVersion()) {
		t.Fatalf("router saw version %d, shard is at %d", vv[owner], dm.CurrentVersion())
	}
}
