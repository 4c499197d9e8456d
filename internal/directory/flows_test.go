package directory_test

import (
	"testing"

	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/registry"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

func newStrongCM(t *testing.T, net transport.Network, clock vclock.Clock, name string, view *kv) *cache.Manager {
	t.Helper()
	cm, err := cache.New(cache.Config{
		Name: name, Directory: "dm", Net: net, View: view,
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

func TestStrongFlowThroughManager(t *testing.T) {
	dm, net, clock, prim := newDM(t)
	v1, v2 := newKV(), newKV()
	cm1 := newStrongCM(t, net, clock, "v1", v1)
	cm2 := newStrongCM(t, net, clock, "v2", v2)

	if err := cm1.PullImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm1.StartUse(); err != nil {
		t.Fatal(err)
	}
	v1.data["k"] = "held"
	cm1.EndUse()
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if cm1.Valid() {
		t.Fatal("v1 should be invalidated")
	}
	if v2.data["k"] != "held" {
		t.Fatal("pending update should ride the invalidation")
	}
	if prim.data["k"] != "held" {
		t.Fatal("primary should hold the update")
	}
	if p1, p2 := dm.Phase("v1"), dm.Phase("v2"); p1 != directory.PhaseInactive || p2 != directory.PhaseActive {
		t.Fatalf("v1 %s, v2 %s; want v1 inactive, v2 active", p1, p2)
	}
	if dm.Mode("v1") != wire.Strong || dm.Mode("ghost") != wire.Weak {
		t.Fatal("Mode accessor")
	}
	if dm.Name() != "dm" {
		t.Fatal("Name accessor")
	}
	if dm.Registry() == nil {
		t.Fatal("Registry accessor")
	}
}

func TestGatherFlowThroughManager(t *testing.T) {
	_, net, clock, _ := newDM(t)
	v1 := newKV()
	cm1, err := cache.New(cache.Config{
		Name: "v1", Directory: "dm", Net: net, View: v1,
		Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	cm1.InitImage()
	v2 := newKV()
	cm2, err := cache.New(cache.Config{
		Name: "v2", Directory: "dm", Net: net, View: v2,
		Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
		ValidityTrigger: "false",
	})
	if err != nil {
		t.Fatal(err)
	}
	cm2.InitImage()
	cm1.StartUse()
	v1.data["k"] = "pending"
	cm1.EndUse()
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if v2.data["k"] != "pending" {
		t.Fatal("gather should fetch the peer's pending data")
	}
	if !cm1.Valid() {
		t.Fatal("gather must not invalidate")
	}
}

func TestSetModeAndPropsThroughManager(t *testing.T) {
	dm, net, clock, _ := newDM(t)
	cm, _ := newCM(t, net, clock, "v1")
	if err := cm.SetMode(wire.Strong); err != nil {
		t.Fatal(err)
	}
	if dm.Mode("v1") != wire.Strong {
		t.Fatal("set-mode not applied")
	}
	if err := cm.SetProps(property.MustSet("P={y,z}")); err != nil {
		t.Fatal(err)
	}
	props, ok := dm.Registry().Props("v1")
	if !ok || !props.Equal(property.MustSet("P={y,z}")) {
		t.Fatalf("props = %v", props)
	}
	// Unregister clears the view.
	if err := cm.KillImage(); err != nil {
		t.Fatal(err)
	}
	if dm.Registry().Has("v1") {
		t.Fatal("unregister should remove the view")
	}
}

func TestSeedStaticAndExtractPrimary(t *testing.T) {
	dm, net, clock, _ := newDM(t)
	dm.Registry().SetStatic("v1", "v2", registry.NoConflict)
	cm1, v1 := newCM(t, net, clock, "v1")
	cm2, _ := newCM(t, net, clock, "v2")
	cm1.SetMode(wire.Strong)
	cm2.SetMode(wire.Strong)
	cm1.PullImage()
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if !cm1.Valid() {
		t.Fatal("static no-conflict should suppress invalidation")
	}
	_ = v1
	img, err := dm.ExtractPrimary(property.MustSet("P={x}"))
	if err != nil {
		t.Fatal(err)
	}
	if img == nil {
		t.Fatal("extract primary")
	}
}

func TestPropagateThroughManager(t *testing.T) {
	net := transport.NewInproc()
	clock := vclock.NewSim()
	prim := newKV()
	dm, err := directory.New("dm", prim, clock, net, directory.Options{PropagateOnPush: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = dm
	cm1, v1 := newCM(t, net, clock, "v1")
	_, v2 := newCM(t, net, clock, "v2")
	cm1.StartUse()
	v1.data["k"] = "forwarded"
	cm1.EndUse()
	if err := cm1.PushImage(); err != nil {
		t.Fatal(err)
	}
	if v2.data["k"] != "forwarded" {
		t.Fatal("push propagation should reach the peer")
	}
}

func TestCommitLocalThroughManager(t *testing.T) {
	dm, net, clock, _ := newDM(t)
	cm, view := newCM(t, net, clock, "v1")
	d := image.New()
	d.Put(image.Entry{Key: "admin", Value: []byte("change")})
	if _, err := dm.CommitLocal(d, 1); err != nil {
		t.Fatal(err)
	}
	if err := cm.PullImage(); err != nil {
		t.Fatal(err)
	}
	if view.data["admin"] != "change" {
		t.Fatal("local commit should reach views")
	}
}
