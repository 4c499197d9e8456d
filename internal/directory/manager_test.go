package directory_test

import (
	"strings"
	"testing"

	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

func newDM(t *testing.T) (*directory.Manager, *transport.Inproc, *vclock.Sim, *kv) {
	t.Helper()
	net := transport.NewInproc()
	clock := vclock.NewSim()
	prim := newKV()
	dm, err := directory.New("dm", prim, clock, net, directory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertInvariantsAtCleanup(t, dm)
	return dm, net, clock, prim
}

func newCM(t *testing.T, net transport.Network, clock vclock.Clock, name string) (*cache.Manager, *kv) {
	t.Helper()
	view := newKV()
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
	return cm, view
}

func TestCompactLogRespectsSlowestView(t *testing.T) {
	dm, net, clock, _ := newDM(t)
	cm1, v1 := newCM(t, net, clock, "v1")
	cm2, _ := newCM(t, net, clock, "v2")

	// Five committed updates by v1.
	for i := 0; i < 5; i++ {
		cm1.StartUse()
		v1.data["k"] = string(rune('a' + i))
		cm1.EndUse()
		if err := cm1.PushImage(); err != nil {
			t.Fatal(err)
		}
	}
	// v2 hasn't pulled: its seen is the init version (0), so nothing can
	// be compacted away.
	if dropped := dm.CompactLog(); dropped != 0 {
		t.Fatalf("dropped %d, want 0 (v2 still needs the log)", dropped)
	}
	if got := dm.UnseenCommitted("v2"); got != 5 {
		t.Fatalf("unseen = %d", got)
	}
	// After every view has pulled (v1's own pushes do not advance its
	// seen — see cache.PushImage), the whole log is observed and
	// compactable.
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm1.PullImage(); err != nil {
		t.Fatal(err)
	}
	if dropped := dm.CompactLog(); dropped != 5 {
		t.Fatalf("dropped %d, want 5", dropped)
	}
	// Quality accounting still exact.
	if got := dm.UnseenCommitted("v2"); got != 0 {
		t.Fatalf("unseen after compaction = %d", got)
	}
}

func TestCompactLogNoViews(t *testing.T) {
	dm, _, _, _ := newDM(t)
	d := image.New()
	d.Put(image.Entry{Key: "k", Value: []byte("v")})
	if _, err := dm.CommitLocal(d, 1); err != nil {
		t.Fatal(err)
	}
	if dropped := dm.CompactLog(); dropped != 1 {
		t.Fatalf("dropped %d, want 1 (no views registered)", dropped)
	}
}

func TestSeenAccessor(t *testing.T) {
	dm, net, clock, _ := newDM(t)
	cm, _ := newCM(t, net, clock, "v1")
	if dm.Seen("ghost") != 0 {
		t.Fatal("unknown view should report 0")
	}
	d := image.New()
	d.Put(image.Entry{Key: "k", Value: []byte("v")})
	if _, err := dm.CommitLocal(d, 1); err != nil {
		t.Fatal(err)
	}
	if err := cm.PullImage(); err != nil {
		t.Fatal(err)
	}
	if dm.Seen("v1") != dm.CurrentVersion() {
		t.Fatalf("seen = %d, current = %d", dm.Seen("v1"), dm.CurrentVersion())
	}
}

func TestUnexpectedMessageRejected(t *testing.T) {
	_, net, _, _ := newDM(t)
	ep, err := net.Attach("stranger", func(req *wire.Message) *wire.Message { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// TImage is a reply type; a DM must reject it as a request.
	if _, err := ep.Call("dm", &wire.Message{Type: wire.TImage}); err == nil {
		t.Fatal("reply-typed request should be rejected")
	}
	if _, err := ep.Call("dm", &wire.Message{Type: wire.TAcquire}); err == nil {
		t.Fatal("token message without a token handler should be rejected")
	}
}

// TestStrangerMigrationRefused: the two type numbers live shard
// migration used (16 took a manager's views, 17 installed them) are
// reserved, and no directory manager serves them. Any peer can send
// them, so a manager that did would let a stranger unregister every view
// and seed a standby with views of its own. Every transport decodes
// what it delivers and the decoder refuses both types, so the handlers
// are reached here through handlerNet.
func TestStrangerMigrationRefused(t *testing.T) {
	net := &handlerNet{Inproc: transport.NewInproc(), handlers: map[string]transport.Handler{}}
	clock := vclock.NewSim()
	dm, err := directory.New("dm", newKV(), clock, net, directory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertInvariantsAtCleanup(t, dm)
	newCM(t, net, clock, "v1")
	newCM(t, net, clock, "v2")
	sb, err := directory.New("dm!r", newKV(), clock, net, directory.Options{Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	blob := directory.EncodeSnapshot(dm.CaptureSince(0))

	take := net.handlers["dm"](&wire.Message{Type: wire.Type(16), From: "stranger", Seq: 1})
	if take == nil || take.Type != wire.TErr {
		t.Errorf("type 16 to the primary: reply %v, want an error", take)
	}
	if n := len(dm.Views()); n != 2 {
		t.Errorf("primary holds %d views after type 16, want 2", n)
	}
	apply := net.handlers["dm!r"](&wire.Message{Type: wire.Type(17), From: "stranger", Seq: 2, Blob: blob})
	if apply == nil || apply.Type != wire.TErr {
		t.Errorf("type 17 to the standby: reply %v, want an error", apply)
	}
	if n := len(sb.Views()); n != 0 {
		t.Errorf("standby holds %d views after type 17, want 0", n)
	}

	// Sent over the network, neither type reaches a handler: the call
	// fails at the decoder, as it does on TCP.
	stranger, err := net.Attach("stranger", func(req *wire.Message) *wire.Message { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		to  string
		typ wire.Type
	}{{"dm", 16}, {"dm!r", 17}} {
		reply, err := stranger.Call(c.to, &wire.Message{Type: c.typ, Blob: blob})
		if err == nil || !strings.Contains(err.Error(), "unknown message type") || reply != nil {
			t.Errorf("type %d to %s over Inproc: reply %v, err %v; want the decoder's refusal", c.typ, c.to, reply, err)
		}
	}
	if n, m := len(dm.Views()), len(sb.Views()); n != 2 || m != 0 {
		t.Errorf("after the network calls: primary holds %d views, standby %d; want 2 and 0", n, m)
	}
}

// handlerNet is an in-process network that keeps every handler attached
// to it, so a test can hand one a message no decoder lets through.
type handlerNet struct {
	*transport.Inproc
	handlers map[string]transport.Handler
}

func (n *handlerNet) Attach(name string, h transport.Handler) (transport.Endpoint, error) {
	n.handlers[name] = h
	return n.Inproc.Attach(name, h)
}

// TestStrangerPromoteRefused: no message promotes a standby. Bit 0 of a
// replication batch's flags once ordered a promotion; any peer can send
// it, so a standby that obeyed would let a stranger make it a second
// primary. A standby promotes itself only after the lease (PromoteSelf).
func TestStrangerPromoteRefused(t *testing.T) {
	net := transport.NewInproc()
	sb, err := directory.New("dm!r", newKV(), vclock.NewSim(), net, directory.Options{Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	stranger, err := net.Attach("stranger", func(req *wire.Message) *wire.Message { return nil })
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := stranger.Call("dm!r", &wire.Message{Type: wire.TReplicate, Blob: []byte{4, 1, 1}})
	if reply == nil || reply.Type != wire.TErr {
		t.Errorf("promote-flagged batch to the standby: reply %v, want an error", reply)
	}
	if !sb.Standby() || sb.Epoch() != 0 {
		t.Errorf("after the promote-flagged batch: standby=%v epoch=%d, want standby at epoch 0", sb.Standby(), sb.Epoch())
	}
}

func TestRegisterWithExplicitViewName(t *testing.T) {
	dm, net, _, _ := newDM(t)
	ep, err := net.Attach("node-7", func(req *wire.Message) *wire.Message { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// The View field overrides From for registry purposes.
	if _, err := ep.Call("dm", &wire.Message{Type: wire.TRegister, View: "logical-view"}); err != nil {
		t.Fatal(err)
	}
	views := dm.Views()
	if len(views) != 1 || views[0] != "logical-view" {
		t.Fatalf("views = %v", views)
	}
}

func TestUnseenCommittedUnknownView(t *testing.T) {
	dm, _, _, _ := newDM(t)
	if dm.UnseenCommitted("nope") != 0 {
		t.Fatal("unknown view should report 0")
	}
}

// TestRoutedInnerRequestRecycled: a routed envelope's inner request goes
// back to the wire pool once its handler has returned. A weak view's pull
// routed through an envelope pays, over the same pull sent directly, the
// inner request's name, which its decode reads without tables: 1
// allocation, about 1.3 under -race, whose pool drops a quarter of puts.
// An inner request left to the collector makes it 2.
func TestRoutedInnerRequestRecycled(t *testing.T) {
	_, net, _, _ := newDM(t)
	view, err := net.Attach("v", func(*wire.Message) *wire.Message { return nil })
	if err != nil {
		t.Fatal(err)
	}
	router, err := net.Attach("router", func(*wire.Message) *wire.Message { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []*wire.Message{
		{Type: wire.TRegister, View: "v", Props: property.MustSet("P={x}")},
		{Type: wire.TInit},
	} {
		if _, err := view.Call("dm", req); err != nil {
			t.Fatal(err)
		}
	}
	pull := &wire.Message{Type: wire.TPull}
	env := &wire.Message{Type: wire.TRouted, View: "v", Blob: wire.Encode(&wire.Message{Type: wire.TPull, From: "v"})}
	cost := func(ep transport.Endpoint, req *wire.Message) float64 {
		call := func() {
			reply, err := ep.Call("dm", req)
			if err != nil {
				t.Fatal(err)
			}
			if reply.Type != wire.TImage {
				t.Fatalf("pull answered %s, want %s", reply.Type, wire.TImage)
			}
			wire.Recycle(reply)
		}
		for range 16 {
			call()
		}
		// AllocsPerRun truncates to whole allocations: 20 calls a run keep
		// the fraction.
		const batch = 20
		return testing.AllocsPerRun(50, func() {
			for range batch {
				call()
			}
		}) / batch
	}
	direct, routed := cost(view, pull), cost(router, env)
	if routed-direct > 1.5 {
		t.Errorf("a routed pull: %v allocs, a direct one: %v; want at most 1.5 more", routed, direct)
	}
}
