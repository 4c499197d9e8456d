package directory_test

import (
	"testing"

	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// kv is a minimal codec shared by the failover tests.
type kv struct{ data map[string]string }

func newKV() *kv { return &kv{data: map[string]string{}} }

func (v *kv) Extract(props property.Set) (*image.Image, error) {
	img := image.New()
	for k, val := range v.data {
		img.Put(image.Entry{Key: k, Value: []byte(val)})
	}
	return img, nil
}

func (v *kv) Merge(img *image.Image, props property.Set) error {
	for _, e := range img.Entries {
		k := e.Key
		if e.Deleted {
			delete(v.data, k)
			continue
		}
		v.data[k] = string(e.Value)
	}
	return nil
}

func TestSnapshotRoundTrip(t *testing.T) {
	prim := newKV()
	st := directory.NewStore(prim, vclock.NewSim())
	d := image.New()
	d.Put(image.Entry{Key: "k1", Value: []byte("a")})
	if _, _, _, err := st.Commit("v1", d, 2); err != nil {
		t.Fatal(err)
	}
	d2 := image.New()
	d2.Put(image.Entry{Key: "k2", Deleted: true})
	if _, _, _, err := st.Commit("v2", d2, 3); err != nil {
		t.Fatal(err)
	}

	snap := st.SnapshotSince(0)
	blob := directory.EncodeSnapshot(snap)
	back, err := directory.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}

	// Absorb into a fresh store over the same primary.
	st2 := directory.NewStore(prim, vclock.NewSim())
	if err := st2.Absorb(back); err != nil {
		t.Fatal(err)
	}
	if st2.Current() != st.Current() {
		t.Fatalf("version: %d vs %d", st2.Current(), st.Current())
	}
	// Shadow metadata survives: extraction stamps the same versions.
	img, err := st2.Extract(property.MustSet("F={1..3}"), 0)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := img.Get("k1")
	if !ok || e.Version != 1 || e.Writer != "v1" {
		t.Fatalf("shadow lost: %+v", e)
	}
	// Tombstones survive.
	if e, ok := img.Get("k2"); !ok || !e.Deleted {
		t.Fatalf("tombstone lost: %+v, %v", e, ok)
	}
	// Quality accounting survives (props filter included).
	if got := st2.UnseenOps(0, "v1", property.MustSet("F={2}")); got != 3 {
		t.Fatalf("unseen = %d, want 3", got)
	}
	if err := st2.Absorb(nil); err == nil {
		t.Fatal("nil snapshot should fail")
	}
}

// TestDirectoryFailover walks the full fail-safe scenario: work happens at
// DM1, its metadata is snapshotted, DM1 dies, a standby DM2 restores the
// snapshot and takes over the same node name, views re-register and keep
// working — with version continuity (new commits extend, not reset, the
// version sequence).
func TestDirectoryFailover(t *testing.T) {
	net := transport.NewInproc()
	clock := vclock.NewSim()
	prim := newKV()
	dm1, err := directory.New("dm", prim, clock, net, directory.Options{})
	if err != nil {
		t.Fatal(err)
	}

	view := newKV()
	cm, err := cache.New(cache.Config{
		Name: "v1", Directory: "dm", Net: net, View: view,
		Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm.StartUse(); err != nil {
		t.Fatal(err)
	}
	view.data["k"] = "survives"
	cm.EndUse()
	if err := cm.PushImage(); err != nil {
		t.Fatal(err)
	}
	verBefore := dm1.CurrentVersion()

	// Checkpoint, then the primary DM fails.
	blob := directory.EncodeSnapshot(dm1.Store().SnapshotSince(0))
	if err := dm1.Close(); err != nil {
		t.Fatal(err)
	}
	// Calls to the dead DM fail.
	if err := cm.PullImage(); err == nil {
		t.Fatal("pull against dead DM should fail")
	}

	// Standby takes over with the restored metadata.
	snap, err := directory.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	dm2, err := directory.New("dm", prim, clock, net, directory.Options{Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	defer dm2.Close()
	if dm2.CurrentVersion() != verBefore {
		t.Fatalf("standby version = %d, want %d", dm2.CurrentVersion(), verBefore)
	}

	// The view re-registers (the one piece of client-side recovery) and
	// continues where it left off.
	cm2, err := cache.New(cache.Config{
		Name: "v1b", Directory: "dm", Net: net, View: view,
		Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm2.InitImage(); err != nil {
		t.Fatal(err)
	}
	if view.data["k"] != "survives" {
		t.Fatal("data continuity broken")
	}
	if err := cm2.StartUse(); err != nil {
		t.Fatal(err)
	}
	view.data["k2"] = "after-failover"
	cm2.EndUse()
	if err := cm2.PushImage(); err != nil {
		t.Fatal(err)
	}
	if dm2.CurrentVersion() != verBefore+1 {
		t.Fatalf("version continuity broken: %d, want %d", dm2.CurrentVersion(), verBefore+1)
	}
	if prim.data["k2"] != "after-failover" {
		t.Fatal("post-failover push lost")
	}
}
