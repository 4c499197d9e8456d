package directory_test

import (
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

// scoped is a codec that scopes commits (image.Scoper): a key is in a
// set's scope when a property of the set has it as a member, and every
// key is in the empty set's. Only a directory over such a primary grants.
type scoped struct{ image.Codec }

func (scoped) InScope(props property.Set, key string) bool {
	if props.IsEmpty() {
		return true
	}
	for _, p := range props.Properties() {
		if p.Domain.ContainsMember(key) {
			return true
		}
	}
	return false
}

// (c) A standby promoted before its predecessor's grants ran out leaves
// none standing: it waits one lease before it serves, so a holder of the
// old primary does not read locally past the point where a joiner on the
// new primary commits. The views reach the serving manager through a
// forwarder, as a failed-over client's fallback rotation would.
func TestPromotedStandbyLeavesNoGrant(t *testing.T) {
	net := transport.NewInproc()
	clock := vclock.NewReal()
	a, b := replPairOver(t, net, clock, directory.ReplConfig{}, scoped{newKV()}, scoped{newKV()})
	var active atomic.Pointer[directory.Manager]
	active.Store(a)
	var fwd transport.Endpoint
	fwd, err := net.Attach("dm", func(req *wire.Message) *wire.Message {
		env := &wire.Message{Type: wire.TRouted, View: req.From, Blob: wire.Encode(req)}
		reply, err := fwd.Call(active.Load().Name(), env)
		if err != nil {
			return &wire.Message{Type: wire.TErr, Err: err.Error()}
		}
		return reply
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	h, hv := newCM(t, net, clock, "h")
	if err := h.PullImage(); err != nil {
		t.Fatal(err)
	}
	if !h.Granted() || !a.Granted("h") {
		t.Fatal("setup: the view alone in its group was not granted")
	}
	// The primary is lost; the standby takes over at once.
	b.PromoteSelf()
	active.Store(b)
	j, jv := newCM(t, net, clock, "j")
	pushThrough(t, j, jv, "x", "joiner")
	if err := h.PullImage(); err != nil {
		t.Fatal(err)
	}
	if got := hv.data["x"]; got != "joiner" {
		t.Fatalf("the old primary's holder reads x=%q after the joiner's commit on the promoted standby", got)
	}
	if b.GrantLeaseWaits() != 1 {
		t.Fatalf("the promoted standby waited out %d leases, want 1", b.GrantLeaseWaits())
	}
}

// The primary's own commit revokes the grants of the holders it touches
// before it lands.
func TestCommitLocalRevokesGrant(t *testing.T) {
	net, clock := transport.NewInproc(), vclock.NewSim()
	dm, err := directory.New("dm", scoped{newKV()}, clock, net, directory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertInvariantsAtCleanup(t, dm)
	h, hv := newCM(t, net, clock, "h")
	if err := h.PullImage(); err != nil {
		t.Fatal(err)
	}
	if !h.Granted() {
		t.Fatal("setup: the view alone in its group was not granted")
	}
	d := image.New()
	d.Put(image.Entry{Key: "x", Value: []byte("admin")})
	if _, err := dm.CommitLocal(d, 1); err != nil {
		t.Fatal(err)
	}
	if h.Granted() || dm.Revocations() != 1 {
		t.Fatalf("after the primary's commit: granted %t, %d revocations", h.Granted(), dm.Revocations())
	}
	if err := h.PullImage(); err != nil {
		t.Fatal(err)
	}
	if got := hv.data["x"]; got != "admin" {
		t.Fatalf("the holder reads x=%q after the primary's commit", got)
	}
}

// A primary whose standby is down grants nothing: the standby may promote
// itself meanwhile and knows of no grant. Once the standby is back, a
// sole view is granted again.
func TestDegradedPrimaryGrantsNothing(t *testing.T) {
	net := transport.NewInproc()
	clock := vclock.NewSim()
	primB := &refusingKV{kv: newKV()}
	a, _ := replPairOver(t, net, clock, directory.ReplConfig{}, scoped{newKV()}, primB)
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
	pushThrough(t, cm, view, "x", "refused")
	if !r.Degraded() {
		t.Fatal("setup: a refused batch left the standby up")
	}
	if err := cm.PullImage(); err != nil {
		t.Fatal(err)
	}
	if cm.Granted() || a.Granted("v1") || a.Grants() != 0 {
		t.Fatalf("a primary with its standby down granted a pull (%d grants)", a.Grants())
	}
	primB.refuse.Store(false)
	r.Heartbeat()
	for deadline := time.Now().Add(10 * time.Second); r.Degraded(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat probe did not bring the standby back")
		}
	}
	if err := cm.PullImage(); err != nil {
		t.Fatal(err)
	}
	if !cm.Granted() {
		t.Fatal("a sole view was not granted once the standby was back")
	}
}
