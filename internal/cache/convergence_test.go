package cache_test

import (
	"fmt"
	"math/rand"
	"testing"

	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/netsim"
	"flecc/internal/property"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// TestQuickConvergenceAfterQuiesce is the protocol's headline invariant as
// a property-based test: after any random interleaving of view operations
// (pulls, use windows with writes, pushes, mode switches), quiescing the
// system — every view pushes, then every view pulls — leaves every replica
// content-equal to the primary for the keys it shares.
func TestQuickConvergenceAfterQuiesce(t *testing.T) {
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		runConvergenceTrial(t, r, trial)
	}
}

func runConvergenceTrial(t *testing.T, r *rand.Rand, trial int) {
	t.Helper()
	rig := newRig(t, directory.Options{})
	nViews := 2 + r.Intn(3)
	views := make([]*kvView, nViews)
	cms := make([]*cache.Manager, nViews)
	for i := range views {
		views[i] = newKV(nil)
		// All views share property P={x} — everyone conflicts.
		cms[i] = rig.view(t, fmt.Sprintf("t%d-v%d", trial, i), "P={x}", wire.Weak, views[i])
		if err := cms[i].InitImage(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	keys := []string{"k0", "k1", "k2"}

	// Random op soup.
	steps := 10 + r.Intn(30)
	for s := 0; s < steps; s++ {
		i := r.Intn(nViews)
		cm, v := cms[i], views[i]
		switch r.Intn(6) {
		case 0, 1: // write inside a use window
			if !cm.Valid() {
				if err := cm.PullImage(); err != nil {
					t.Fatalf("trial %d step %d pull: %v", trial, s, err)
				}
			}
			if err := cm.StartUse(); err != nil {
				t.Fatalf("trial %d step %d use: %v", trial, s, err)
			}
			v.Set(keys[r.Intn(len(keys))], fmt.Sprintf("w%d-%d", i, s))
			cm.EndUse()
		case 2: // push
			if err := cm.PushImage(); err != nil {
				t.Fatalf("trial %d step %d push: %v", trial, s, err)
			}
		case 3: // pull
			if err := cm.PullImage(); err != nil {
				t.Fatalf("trial %d step %d pull: %v", trial, s, err)
			}
		case 4: // mode flip
			mode := wire.Weak
			if r.Intn(2) == 0 {
				mode = wire.Strong
			}
			if err := cm.SetMode(mode); err != nil {
				t.Fatalf("trial %d step %d mode: %v", trial, s, err)
			}
		case 5: // delete a key
			if !cm.Valid() {
				if err := cm.PullImage(); err != nil {
					t.Fatalf("trial %d step %d pull: %v", trial, s, err)
				}
			}
			if err := cm.StartUse(); err != nil {
				t.Fatalf("trial %d step %d use: %v", trial, s, err)
			}
			v.Delete(keys[r.Intn(len(keys))])
			cm.EndUse()
		}
	}

	// Quiesce: everyone publishes, then everyone refreshes (twice, so a
	// pull that raced a later push settles).
	for round := 0; round < 2; round++ {
		for _, cm := range cms {
			if err := cm.PushImage(); err != nil {
				t.Fatalf("trial %d quiesce push: %v", trial, err)
			}
		}
		for _, cm := range cms {
			if err := cm.PullImage(); err != nil {
				t.Fatalf("trial %d quiesce pull: %v", trial, err)
			}
		}
	}

	// Every replica must now equal the primary on the shared keys, read
	// under the set the views registered at the shard that holds them.
	var primary *image.Image
	for _, dm := range rig.dms() {
		if props, ok := dm.Registry().Props(cms[0].Name()); ok {
			var err error
			if primary, err = dm.ExtractPrimary(props); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
	if primary == nil {
		t.Fatalf("trial %d: %s is registered at no shard", trial, cms[0].Name())
	}
	for i, v := range views {
		for _, k := range keys {
			want := ""
			if e, ok := primary.Get(k); ok && !e.Deleted {
				want = string(e.Value)
			}
			if got := v.Get(k); got != want {
				t.Fatalf("trial %d: view %d diverged on %s: got %q want %q",
					trial, i, k, got, want)
			}
		}
	}
	// And nobody has phantom pending work.
	for i, cm := range cms {
		if cm.PendingOps() != 0 {
			// pendingOps counts use windows; quiesce pushes reset it.
			t.Fatalf("trial %d: view %d still has %d pending ops", trial, i, cm.PendingOps())
		}
	}
}

// TestFailedPushKeepsPendingState: a transport fault during push must not
// lose the dirty state — the next push retries it.
func TestFailedPushKeepsPendingState(t *testing.T) {
	rig := newRig(t, directory.Options{})
	v1 := newKV(nil)
	cm1 := rig.view(t, "v1", "P={x}", wire.Weak, v1)
	cm1.InitImage()
	cm1.StartUse()
	v1.Set("k", "precious")
	cm1.EndUse()

	fail := true
	rig.net.SetFaultInjector(func(from, to string, m *wire.Message) error {
		if fail && m.Type == wire.TPush {
			return fmt.Errorf("injected link failure")
		}
		return nil
	})
	if err := cm1.PushImage(); err == nil {
		t.Fatal("push should fail under the injected fault")
	}
	if cm1.PendingOps() != 1 {
		t.Fatalf("pending ops = %d, want 1 (state preserved)", cm1.PendingOps())
	}
	fail = false
	if err := cm1.PushImage(); err != nil {
		t.Fatal(err)
	}
	if rig.prim.Get("k") != "precious" {
		t.Fatal("retried push should deliver the data")
	}
	if cm1.PendingOps() != 0 {
		t.Fatal("pending ops should clear after the successful retry")
	}
}

// TestFailedPullLeavesViewUsable: a failed pull must not invalidate or
// corrupt the view.
func TestFailedPullLeavesViewUsable(t *testing.T) {
	rig := newRig(t, directory.Options{})
	v1 := newKV(nil)
	cm1 := rig.view(t, "v1", "P={x}", wire.Weak, v1)
	cm1.InitImage()
	seenBefore := cm1.Seen()

	rig.net.SetFaultInjector(func(from, to string, m *wire.Message) error {
		if m.Type == wire.TPull {
			return fmt.Errorf("injected link failure")
		}
		return nil
	})
	if err := cm1.PullImage(); err == nil {
		t.Fatal("pull should fail")
	}
	if !cm1.Valid() {
		t.Fatal("failed pull must not invalidate the view")
	}
	if cm1.Seen() != seenBefore {
		t.Fatal("failed pull must not advance seen")
	}
	rig.net.SetFaultInjector(nil)
	if err := cm1.StartUse(); err != nil {
		t.Fatal("view should remain usable with its old image")
	}
	cm1.EndUse()
}

// TestPartitionHealConvergence: a view partitioned away from the
// directory manager keeps its local state, fails loudly on sync attempts,
// and converges once the partition heals.
func TestPartitionHealConvergence(t *testing.T) {
	clock := vclock.NewSim()
	topo := netsim.LAN(1)
	topo.Place("dm", "hub")
	topo.Place("v1", "edge1")
	topo.Place("v2", "edge2")
	net := netsim.New(clock, topo)
	prim := newKV(nil)
	dm, err := directory.New("dm", prim, clock, net, directory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dm.Close()

	mk := func(name string, view *kvView) *cache.Manager {
		cm, err := cache.New(cache.Config{
			Name: name, Directory: "dm", Net: net, View: view,
			Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cm.InitImage(); err != nil {
			t.Fatal(err)
		}
		return cm
	}
	v1, v2 := newKV(nil), newKV(nil)
	cm1 := mk("v1", v1)
	cm2 := mk("v2", v2)

	net.Partition("hub", "edge1")
	// v1 keeps working locally; sync attempts fail but lose nothing.
	if err := cm1.StartUse(); err != nil {
		t.Fatal(err)
	}
	v1.Set("k", "written-during-partition")
	cm1.EndUse()
	if err := cm1.PushImage(); err == nil {
		t.Fatal("push across partition should fail")
	}
	if cm1.PendingOps() != 1 {
		t.Fatal("pending work must survive the failed push")
	}
	// The other side keeps operating normally.
	cm2.StartUse()
	v2.Set("other", "fine")
	cm2.EndUse()
	if err := cm2.PushImage(); err != nil {
		t.Fatal(err)
	}

	net.Heal("hub", "edge1")
	if err := cm1.PushImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm1.PullImage(); err != nil {
		t.Fatal(err)
	}
	if prim.Get("k") != "written-during-partition" {
		t.Fatal("partition-era write should commit after healing")
	}
	if v1.Get("other") != "fine" {
		t.Fatal("v1 should catch up on what it missed")
	}
}

// TestInvalidateFailureEvictsDeadView: when a conflicting view cannot be
// invalidated (e.g. its host died), the directory manager retries with
// backoff, then evicts the dead view and lets the strong pull proceed —
// a crashed holder must not wedge every survivor.
func TestInvalidateFailureEvictsDeadView(t *testing.T) {
	rig := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := rig.view(t, "v1", "P={x}", wire.Strong, v1)
	cm2 := rig.view(t, "v2", "P={x}", wire.Strong, v2)
	cm1.InitImage()
	cm2.InitImage()
	cm1.PullImage() // v1 is the active holder

	rig.net.SetFaultInjector(func(from, to string, m *wire.Message) error {
		if m.Type == wire.TInvalidate && to == "v1" {
			return fmt.Errorf("injected: %s unreachable", to)
		}
		return nil
	})
	if err := cm2.PullImage(); err != nil {
		t.Fatalf("pull must proceed after the dead holder is evicted: %v", err)
	}
	var evicted int64
	var lost []string
	for _, dm := range rig.dms() {
		evicted += dm.ViewsEvicted()
		lost = append(lost, dm.LostViews()...)
	}
	if evicted != 1 {
		t.Fatalf("ViewsEvicted = %d, want 1", evicted)
	}
	if len(lost) != 1 || lost[0] != "v1" {
		t.Fatalf("lost views = %v, want [v1]", lost)
	}

	// Revive-on-contact: once the dead view's manager speaks again, the
	// tombstone clears and it rejoins the conflict set.
	rig.net.SetFaultInjector(nil)
	if err := cm1.PullImage(); err != nil {
		t.Fatalf("revived view must be able to pull: %v", err)
	}
	for _, dm := range rig.dms() {
		if n := len(dm.LostViews()); n != 0 {
			t.Fatalf("view should be revived on contact, still lost: %v", dm.LostViews())
		}
	}
}
