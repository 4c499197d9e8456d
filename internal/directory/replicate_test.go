package directory_test

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
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

// replPair builds a replicating primary "dm!a" (codec primA) and a hot
// standby "dm!b" (codec primB) on net, with a replication session already
// attached.
func replPair(t *testing.T, net transport.Network, clock vclock.Clock, cfg directory.ReplConfig) (a, b *directory.Manager, primA, primB *kv) {
	t.Helper()
	primA, primB = newKV(), newKV()
	a, b = replPairOver(t, net, clock, cfg, primA, primB)
	return a, b, primA, primB
}

// replPairOver is replPair over caller-supplied codecs.
func replPairOver(t *testing.T, net transport.Network, clock vclock.Clock, cfg directory.ReplConfig, primA, primB image.Codec) (a, b *directory.Manager) {
	t.Helper()
	a, err := directory.New("dm!a", primA, clock, net, directory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err = directory.New("dm!b", primB, clock, net, directory.Options{Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.StartReplication(cfg, directory.ReplTarget{Name: "dm!b"}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if r := a.Replication(); r != nil {
			r.Close()
		}
		a.Close()
		b.Close()
	})
	return a, b
}

// ctlEndpoint attaches a control endpoint that hands replication batches
// to a standby directly, without a primary's sender.
func ctlEndpoint(t *testing.T, net transport.Network) transport.Endpoint {
	t.Helper()
	ep, err := net.Attach("ctl", func(*wire.Message) *wire.Message { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func pushThrough(t *testing.T, cm *cache.Manager, view *kv, k, v string) {
	t.Helper()
	if err := cm.StartUse(); err != nil {
		t.Fatal(err)
	}
	view.data[k] = v
	cm.EndUse()
	if err := cm.PushImage(); err != nil {
		t.Fatalf("push %s=%s: %v", k, v, err)
	}
}

// TestReplicationSemiSyncCommit: with a replication session attached,
// every acknowledged commit is already on the standby when the client's
// ack is released — metadata (version), primary values, and the
// standby's own codec all agree with the primary, and the lag gauge
// reads zero.
func TestReplicationSemiSyncCommit(t *testing.T) {
	net := transport.NewInproc()
	clock := vclock.NewSim()
	a, b, primA, primB := replPair(t, net, clock, directory.ReplConfig{})

	view := newKV()
	cm, err := cache.New(cache.Config{
		Name: "v1", Directory: "dm!a", Net: net, View: view,
		Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
	pushThrough(t, cm, view, "k", "replicated")
	pushThrough(t, cm, view, "k2", "also")

	// The push acks above have been released, so the standby must
	// already hold both commits — no sleeping, no draining.
	if got, want := b.CurrentVersion(), a.CurrentVersion(); got != want {
		t.Fatalf("standby version = %d, primary %d", got, want)
	}
	if primB.data["k"] != "replicated" || primB.data["k2"] != "also" {
		t.Fatalf("standby codec missed values: %v (primary %v)", primB.data, primA.data)
	}
	if lag := a.ReplLag(); lag != 0 {
		t.Fatalf("repl lag = %d after synchronous commits", lag)
	}
	r := a.Replication()
	if r.BatchesShipped() == 0 {
		t.Fatal("no batches shipped")
	}
	if r.DegradedBarriers() != 0 {
		t.Fatalf("degraded barriers = %d on a healthy pair", r.DegradedBarriers())
	}
}

// TestReplicationAsyncBarrier: the sender goroutine ships off the
// committing request's path, yet every commit's ack is held until the
// standby has absorbed a batch covering it — checked after each of
// several overwrites of one key, not only at the end.
func TestReplicationAsyncBarrier(t *testing.T) {
	net := transport.NewInproc()
	clock := vclock.NewSim()
	a, b, _, primB := replPair(t, net, clock, directory.ReplConfig{})

	view := newKV()
	cm, err := cache.New(cache.Config{
		Name: "v1", Directory: "dm!a", Net: net, View: view,
		Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
	for i, val := range []string{"one", "two", "three"} {
		pushThrough(t, cm, view, "k", val)
		if got, want := b.CurrentVersion(), a.CurrentVersion(); got != want {
			t.Fatalf("push %d: standby version = %d, primary %d", i, got, want)
		}
	}
	if primB.data["k"] != "three" {
		t.Fatalf("standby codec = %v, want k=three", primB.data)
	}
}

// refusingKV is a codec whose Merge fails while refuse is set.
type refusingKV struct {
	*kv
	refuse atomic.Bool
}

func (v *refusingKV) Merge(img *image.Image, props property.Set) error {
	if v.refuse.Load() {
		return errors.New("refusing merge")
	}
	return v.kv.Merge(img, props)
}

// TestReplicationRefusedBatchDegrades: a standby that answers but refuses
// every batch degrades like an unreachable one instead of hanging the
// commit — the barrier releases degraded, the sender does not re-ship the
// refused batch in a loop, and once the standby accepts again the next
// heartbeat's probe brings it back in sync.
func TestReplicationRefusedBatchDegrades(t *testing.T) {
	net := transport.NewInproc()
	clock := vclock.NewSim()
	primB := &refusingKV{kv: newKV()}
	a, _ := replPairOver(t, net, clock, directory.ReplConfig{}, newKV(), primB)
	r := a.Replication()

	view := newKV()
	cm, err := cache.New(cache.Config{
		Name: "v1", Directory: "dm!a", Net: net, View: view,
		Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}

	primB.refuse.Store(true)
	if err := cm.StartUse(); err != nil {
		t.Fatal(err)
	}
	view.data["k"] = "refused"
	cm.EndUse()
	done := make(chan error, 1)
	go func() { done <- cm.PushImage() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("push with the standby refusing: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("push hung on a standby that refuses every batch")
	}
	if n := r.DegradedBarriers(); n != 1 {
		t.Fatalf("degraded barriers = %d, want 1", n)
	}
	shipped := r.BatchesShipped()
	time.Sleep(20 * time.Millisecond)
	if n := r.BatchesShipped(); n != shipped {
		t.Fatalf("sender re-shipped a refused batch: %d batches, then %d", shipped, n)
	}

	primB.refuse.Store(false)
	r.Heartbeat()
	deadline := time.Now().Add(10 * time.Second)
	for r.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat probe did not bring the standby back")
		}
		time.Sleep(time.Millisecond)
	}
	pushThrough(t, cm, view, "k", "accepted")
	if lag := r.Lag(); lag != 0 {
		t.Fatalf("repl lag = %d after recovery", lag)
	}
	if primB.data["k"] != "accepted" {
		t.Fatalf("standby codec = %v after recovery", primB.data)
	}
	if n := r.DegradedBarriers(); n != 1 {
		t.Fatalf("degraded barriers = %d after recovery, want 1", n)
	}
}

// TestReplicationStandbyGateAndPromote: a hot standby refuses client
// traffic with the not-serving marker (so reconnecting CMs rotate to
// another endpoint instead of hard-failing), and starts serving the
// moment it promotes itself.
func TestReplicationStandbyGateAndPromote(t *testing.T) {
	net := transport.NewInproc()
	clock := vclock.NewSim()
	_, b, _, _ := replPair(t, net, clock, directory.ReplConfig{})

	// Client traffic against the standby is refused, redialably.
	view := newKV()
	_, err := cache.New(cache.Config{
		Name: "vx", Directory: "dm!b", Net: net, View: view,
		Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
	})
	if err == nil {
		t.Fatal("register against a standby should be refused")
	}
	if !strings.Contains(err.Error(), wire.NotServingMark) {
		t.Fatalf("standby refusal %q does not carry the not-serving marker", err)
	}

	if epoch := b.PromoteSelf(); epoch != 1 {
		t.Fatalf("PromoteSelf opened epoch %d, want 1", epoch)
	}
	if b.Standby() {
		t.Fatal("standby flag survived promotion")
	}
	if b.Epoch() != 1 {
		t.Fatalf("epoch = %d after promotion, want 1", b.Epoch())
	}
	// And it serves.
	cm, err := cache.New(cache.Config{
		Name: "vx", Directory: "dm!b", Net: net, View: view,
		Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
	})
	if err != nil {
		t.Fatalf("register against promoted standby: %v", err)
	}
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicationGapRefusal: a standby refuses a batch whose Since it has
// not reached — absorbing it would open a hole — and reports its honest
// watermark in the ack so the sender rewinds instead of looping.
func TestReplicationGapRefusal(t *testing.T) {
	net := transport.NewInproc()
	clock := vclock.NewSim()
	prim := newKV()
	b, err := directory.New("dm!b", prim, clock, net, directory.Options{Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ctl := ctlEndpoint(t, net)

	// A gapped delta: claims to start after version 5, standby is at 0.
	gapped := directory.ReplMessage(&directory.ReplBatch{
		Since: 5, Snap: &directory.Snapshot{Version: 7},
	})
	reply, err := ctl.Call("dm!b", gapped)
	if err != nil {
		t.Fatalf("gapped batch should be refused via ack, not error: %v", err)
	}
	if reply.Type != wire.TReplAck || reply.Version != 0 {
		t.Fatalf("refusal ack = %v v%d, want TReplAck v0 (honest watermark)", reply.Type, reply.Version)
	}
	if b.CurrentVersion() != 0 {
		t.Fatalf("gapped batch advanced the standby to v%d", b.CurrentVersion())
	}

	// The rewound full batch (Since 0) is then absorbed.
	src := newKV()
	aDM, err := directory.New("dm!src", src, clock, net, directory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer aDM.Close()
	d := image.New()
	d.Put(image.Entry{Key: "k", Value: []byte("v")})
	if _, err := aDM.CommitLocal(d, 1); err != nil {
		t.Fatal(err)
	}
	img, err := aDM.Store().Extract(property.NewSet(), 0)
	if err != nil {
		t.Fatal(err)
	}
	full := directory.ReplMessage(&directory.ReplBatch{
		Since: 0, Snap: aDM.CaptureSince(0), Img: img,
	})
	reply, err = ctl.Call("dm!b", full)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Version != aDM.CurrentVersion() {
		t.Fatalf("ack after full batch = v%d, want v%d", reply.Version, aDM.CurrentVersion())
	}
	if prim.data["k"] != "v" {
		t.Fatalf("standby codec = %v after full batch", prim.data)
	}
}

// TestReplicationStaleEpochFencesPrimary: once the standby is promoted
// under a higher epoch, the old primary's next replicated commit is
// refused as stale — and the deposed primary fences itself rather than
// keep serving a split brain.
func TestReplicationStaleEpochFencesPrimary(t *testing.T) {
	net := transport.NewInproc()
	clock := vclock.NewSim()
	a, b, _, _ := replPair(t, net, clock, directory.ReplConfig{})

	view := newKV()
	cm, err := cache.New(cache.Config{
		Name: "v1", Directory: "dm!a", Net: net, View: view,
		Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
	pushThrough(t, cm, view, "k", "before")

	b.PromoteSelf()

	// The old primary's next commit must fail (its batch is stale) ...
	if err := cm.StartUse(); err != nil {
		t.Fatal(err)
	}
	view.data["k"] = "after"
	cm.EndUse()
	if err := cm.PushImage(); err == nil {
		t.Fatal("push through a deposed primary should fail")
	}
	// ... and the deposed primary is now fenced: it refuses everything,
	// with the redialable not-serving marker.
	if !a.Fenced() {
		t.Fatal("deposed primary did not fence itself")
	}
	if err := cm.PullImage(); err == nil || !strings.Contains(err.Error(), wire.NotServingMark) {
		t.Fatalf("fenced primary refusal = %v, want the not-serving marker", err)
	}
	// The lost write was never acked — semi-sync means nothing a client
	// observed is missing from the new primary.
	if b.Standby() {
		t.Fatal("promoted standby still gating")
	}
}

// TestReplicationDroppedBatchResent: a dropped TReplicate is not a hole —
// the sender's retry re-ships the same delta, Absorb's merge makes the
// resend idempotent, and the commit's ack is only released once the
// standby really has it.
func TestReplicationDroppedBatchResent(t *testing.T) {
	inner := transport.NewInproc()
	net := transport.NewFaulty(inner, 1)
	net.SetSleep(func(time.Duration) {})
	clock := vclock.NewSim()
	retry := transport.RetryPolicy{Attempts: 4, Sleep: func(time.Duration) {}}
	a, b, _, primB := replPair(t, net, clock, directory.ReplConfig{Retry: retry})

	view := newKV()
	cm, err := cache.New(cache.Config{
		Name: "v1", Directory: "dm!a", Net: net, View: view,
		Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}

	// Drop the next two primary→standby deliveries: the first shipped
	// batch (and its first retry) vanish mid-flight.
	net.DisconnectNext("dm!a", "dm!b", 2)
	pushThrough(t, cm, view, "k", "survives-drops")

	if got, want := b.CurrentVersion(), a.CurrentVersion(); got != want {
		t.Fatalf("standby version = %d after drops, primary %d", got, want)
	}
	if primB.data["k"] != "survives-drops" {
		t.Fatalf("standby codec = %v after drops", primB.data)
	}
}

// TestReplicationCarriesViewState: replication batches carry the
// registration state — modes, seen versions, validity triggers, property
// sets — so a promoted standby picks up every session where the primary
// left it, no re-register or re-pull required.
func TestReplicationCarriesViewState(t *testing.T) {
	net := transport.NewInproc()
	clock := vclock.NewSim()
	a, b, _, _ := replPair(t, net, clock, directory.ReplConfig{})

	mk := func(name string, mode wire.Mode, props, validity string) (*cache.Manager, *kv) {
		view := newKV()
		cm, err := cache.New(cache.Config{
			Name: name, Directory: "dm!a", Net: net, View: view,
			Props: property.MustSet(props), Mode: mode, Clock: clock,
			ValidityTrigger: validity,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cm.InitImage(); err != nil {
			t.Fatal(err)
		}
		return cm, view
	}
	cm1, view1 := mk("v1", wire.Strong, "P={x}", "staleness < 5")
	_, _ = mk("v2", wire.Weak, "P={x..z}", "")

	pushThrough(t, cm1, view1, "k", "state")
	if err := cm1.PullImage(); err != nil {
		t.Fatal(err)
	}

	// The standby's registration state mirrors the primary's in every field
	// but seen: a pull that moved only its view's seen leaves that touch
	// to ride the next batch, so the standby's seen may trail, never lead.
	want := a.CaptureSince(0).Views
	got := b.CaptureSince(0).Views
	if len(want) != 2 || len(got) != len(want) {
		t.Fatalf("captured %d views on the standby, %d on the primary, want 2", len(got), len(want))
	}
	for i := range want {
		if got[i].Seen > want[i].Seen {
			t.Fatalf("%s seen: standby v%d ahead of primary v%d", want[i].Name, got[i].Seen, want[i].Seen)
		}
		g := got[i]
		g.Seen = want[i].Seen
		if !reflect.DeepEqual(g, want[i]) {
			t.Fatalf("view state diverged beyond seen:\nstandby: %+v\nprimary: %+v", got[i], want[i])
		}
	}
	// One heartbeat ships the lagging touch; then the mirror is exact.
	a.Replication().Heartbeat()
	deadline := time.Now().Add(10 * time.Second)
	for !reflect.DeepEqual(b.CaptureSince(0).Views, want) {
		if time.Now().After(deadline) {
			t.Fatalf("view state diverged after a heartbeat:\nstandby: %+v\nprimary: %+v", b.CaptureSince(0).Views, want)
		}
		time.Sleep(time.Millisecond)
	}

	// After promotion the standby already knows the views: same modes,
	// same seen versions — the takeover is observable state, not a fresh
	// registry.
	b.PromoteSelf()
	for _, v := range []string{"v1", "v2"} {
		if bm, am := b.Mode(v), a.Mode(v); bm != am {
			t.Fatalf("%s mode: standby %v, primary %v", v, bm, am)
		}
		if bs, as := b.Seen(v), a.Seen(v); bs != as {
			t.Fatalf("%s seen: standby v%d, primary v%d", v, bs, as)
		}
	}
}

// TestAbsorbRestoreEquivalence: the two ways a standby can reach the
// primary's state — restoring a view-state-carrying snapshot at
// construction, or absorbing the same state as a replication batch — are
// equivalent: same version, same shadow metadata, same registration
// state, same extracted primary values.
func TestAbsorbRestoreEquivalence(t *testing.T) {
	net := transport.NewInproc()
	clock := vclock.NewSim()
	prim := newKV()
	a, err := directory.New("dm!a", prim, clock, net, directory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	view := newKV()
	cm, err := cache.New(cache.Config{
		Name: "v1", Directory: "dm!a", Net: net, View: view,
		Props: property.MustSet("P={x}"), Mode: wire.Strong, Clock: clock,
		ValidityTrigger: "staleness < 9",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
	pushThrough(t, cm, view, "k1", "one")
	pushThrough(t, cm, view, "k2", "two")

	snap := a.CaptureSince(0)
	img, err := a.Store().Extract(property.NewSet(), 0)
	if err != nil {
		t.Fatal(err)
	}

	// Path 1: restore at construction (checkpoint-file takeover).
	restored, err := directory.New("dm!r", newKV(), clock, net, directory.Options{Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.Store().AbsorbImage(img); err != nil {
		t.Fatal(err)
	}

	// Path 2: absorb the same state as a replication batch (hot-standby
	// takeover).
	absorbed, err := directory.New("dm!s", newKV(), clock, net, directory.Options{Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	defer absorbed.Close()
	ctl := ctlEndpoint(t, net)
	msg := directory.ReplMessage(&directory.ReplBatch{Since: 0, Snap: snap, Img: img})
	if _, err := ctl.Call("dm!s", msg); err != nil {
		t.Fatal(err)
	}

	if rv, av := restored.CurrentVersion(), absorbed.CurrentVersion(); rv != av || rv != a.CurrentVersion() {
		t.Fatalf("versions diverged: restored v%d, absorbed v%d, primary v%d", rv, av, a.CurrentVersion())
	}
	rs, as := restored.CaptureSince(0), absorbed.CaptureSince(0)
	if !reflect.DeepEqual(rs.Views, as.Views) {
		t.Fatalf("view state diverged:\nrestored: %+v\nabsorbed: %+v", rs.Views, as.Views)
	}
	if !reflect.DeepEqual(rs.Shadow, as.Shadow) {
		t.Fatalf("shadow diverged:\nrestored: %+v\nabsorbed: %+v", rs.Shadow, as.Shadow)
	}
	ri, err := restored.Store().Extract(property.NewSet(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ai, err := absorbed.Store().Extract(property.NewSet(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"k1", "k2"} {
		re, rok := ri.Get(k)
		ae, aok := ai.Get(k)
		if !rok || !aok || string(re.Value) != string(ae.Value) || re.Version != ae.Version {
			t.Fatalf("%s diverged: restored %+v (%v), absorbed %+v (%v)", k, re, rok, ae, aok)
		}
	}
}

// BenchmarkRestoreHighVersion pins the cost of restoring a snapshot —
// absorbing it into a fresh store — whose version counter is far ahead:
// Counter.AdvanceTo makes it a single fast-forward instead of the old
// O(version) Next loop, so a v=2,000,000 restore costs the same as a v=2
// one.
func BenchmarkRestoreHighVersion(b *testing.B) {
	const high = 2_000_000
	snap := &directory.Snapshot{
		Version: high,
		Shadow: []directory.ShadowRec{
			{Key: "k1", Version: high - 1, Writer: "v1"},
			{Key: "k2", Version: high, Writer: "v2"},
		},
		Log: []directory.UpdateRec{
			{Version: high - 1, Writer: "v1"},
			{Version: high, Writer: "v2"},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := directory.NewStore(newKV(), vclock.NewSim())
		if err := st.Absorb(snap); err != nil {
			b.Fatal(err)
		}
		if st.Current() != high {
			b.Fatalf("restored version = %d", st.Current())
		}
	}
}
