package cache_test

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// TestDMRestartCMReconnect is the fleccd fail-over round-trip over real
// TCP: a view registers against a daemon, the daemon dies and is restarted
// from its snapshot on the same address, and the live cache manager
// re-dials, re-registers, and re-pulls on its own — the next push/pull
// just works, no manual re-registration.
func TestDMRestartCMReconnect(t *testing.T) {
	clock := vclock.NewSim()
	prim := newKV(map[string]string{"seed": "1"})

	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln1.Addr().String()
	dm1, err := directory.New("db", prim, clock, transport.NewServerNetwork(ln1, 5*time.Second), directory.Options{})
	if err != nil {
		t.Fatal(err)
	}

	view := newKV(nil)
	cm, err := cache.New(cache.Config{
		Name: "agent", Directory: "db",
		Net:   transport.NewDialNetwork(addr, 5*time.Second),
		View:  view,
		Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
		Reconnect: &cache.ReconnectPolicy{
			Attempts: 20,
			Base:     time.Millisecond,
			Max:      50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cm.KillImage()
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
	view.Set("before", "restart")
	if err := cm.PushImage(); err != nil {
		t.Fatal(err)
	}

	// Daemon restart: snapshot the protocol metadata, tear the server down
	// (the view's connection dies with it), come back on the same address.
	snap := dm1.Store().SnapshotSince(0)
	if err := dm1.Close(); err != nil {
		t.Fatal(err)
	}
	var ln2 net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	dm2, err := directory.New("db", prim, clock, transport.NewServerNetwork(ln2, 5*time.Second), directory.Options{Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	defer dm2.Close()

	// The next protocol call rides the reconnect machinery end to end.
	view.Set("after", "restart")
	if err := cm.PushImage(); err != nil {
		t.Fatalf("push across daemon restart: %v", err)
	}
	if got := prim.Get("after"); got != "restart" {
		t.Fatalf("primary missed the post-restart push: %q", got)
	}
	if err := cm.PullImage(); err != nil {
		t.Fatalf("pull after restart: %v", err)
	}
	if got := view.Get("before"); got != "restart" {
		t.Fatalf("replica lost pre-restart data: %q", got)
	}

	// The re-registration happened implicitly, against the restarted DM.
	views := dm2.Views()
	if len(views) != 1 || views[0] != "agent" {
		t.Fatalf("restarted DM views = %v, want [agent]", views)
	}
}

// callHook makes, or stands in for, one call an endpoint sends.
type callHook func(ep transport.Endpoint, to string, req *wire.Message) (*wire.Message, error)

// hookNet wraps a network so that every call its endpoints send goes
// through hook.
type hookNet struct {
	transport.Network
	hook callHook
}

func (n *hookNet) Attach(name string, h transport.Handler) (transport.Endpoint, error) {
	ep, err := n.Network.Attach(name, h)
	if err != nil {
		return nil, err
	}
	return &hookEndpoint{Endpoint: ep, hook: n.hook}, nil
}

type hookEndpoint struct {
	transport.Endpoint
	hook callHook
}

func (e *hookEndpoint) Call(to string, req *wire.Message) (*wire.Message, error) {
	return e.hook(e.Endpoint, to, req)
}

// A push whose reply is lost is committed once: the reconnect cycle's
// re-pull folds the committed write, and the push is rebuilt from the view
// (now clean) instead of re-sending the old request.
func TestLostPushReplyCommitsOnce(t *testing.T) {
	clock := vclock.NewSim()
	inproc := transport.NewInproc()
	prim := newKV(nil)
	dm, err := directory.New("db", prim, clock, inproc, directory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dm.Close()

	// The first TPush is delivered and committed, and its reply then lost:
	// the caller sees a transport error.
	var lost atomic.Bool
	hooked := &hookNet{Network: inproc, hook: func(ep transport.Endpoint, to string, req *wire.Message) (*wire.Message, error) {
		reply, err := ep.Call(to, req)
		if err == nil && req.Type == wire.TPush && lost.CompareAndSwap(false, true) {
			return nil, errors.New("push reply lost")
		}
		return reply, err
	}}
	v := newKV(nil)
	cm, err := cache.New(cache.Config{
		Name: "v1", Directory: "db", Net: hooked, View: v,
		Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
		Reconnect: &cache.ReconnectPolicy{Attempts: 4, Sleep: func(time.Duration) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
	ver, records := dm.CurrentVersion(), len(dm.Store().Log())

	if err := cm.StartUse(); err != nil {
		t.Fatal(err)
	}
	v.Set("a", "1")
	cm.EndUse()
	if err := cm.PushImage(); err != nil {
		t.Fatalf("push across the lost reply: %v", err)
	}
	if got := dm.CurrentVersion(); got != ver+1 {
		t.Fatalf("version went %d -> %d, want one commit", ver, got)
	}
	if got := len(dm.Store().Log()) - records; got != 1 {
		t.Fatalf("the log gained %d records, want 1", got)
	}
	if e, _ := cm.Base().Get("a"); string(e.Value) != "1" || e.Version != ver+1 {
		t.Fatalf("base a = %q at v%d, want %q at the committed v%d", e.Value, e.Version, "1", ver+1)
	}
	if got := cm.PendingOps(); got != 0 {
		t.Fatalf("PendingOps = %d, want 0", got)
	}
}
