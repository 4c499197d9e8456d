package shard_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/metrics"
	"flecc/internal/property"
	"flecc/internal/shard"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// TestBridgeOverTCP runs the full stack the fleccd daemon assembles: a
// sharded directory service hosted on a Bridge behind a TCP listener,
// with cache managers connecting as real TCP clients. The remote views
// must be routed to shards transparently, and the bridge's observer must
// expose the per-shard traffic split.
func TestBridgeOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	snet := transport.NewServerNetwork(ln, 5*time.Second)

	prim := newKV(map[string]string{"seed": "s0"})
	bridge := shard.NewBridge()
	stats := metrics.NewMessageStats(false)
	bridge.SetObserver(stats)
	svc, err := shard.NewService(shard.ServiceConfig{
		Name:    "db",
		Net:     bridge,
		Clock:   vclock.NewReal(),
		Shards:  2,
		Primary: func(int) image.Codec { return prim },
		Opts:    directory.Options{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := bridge.ConnectUplink(snet, "db"); err != nil {
		t.Fatal(err)
	}
	defer bridge.Close()

	dial := func(name string, view *kv, props string, mode wire.Mode) *cache.Manager {
		t.Helper()
		cm, err := cache.New(cache.Config{
			Name:      name,
			Directory: "db",
			Net:       transport.NewDialNetwork(ln.Addr().String(), 5*time.Second),
			View:      view,
			Props:     property.MustSet(props),
			Mode:      mode,
			Clock:     vclock.NewReal(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return cm
	}

	v1, v2 := newKV(nil), newKV(nil)
	cm1 := dial("v1", v1, "P={x}", wire.Strong)
	cm2 := dial("v2", v2, "P={x}", wire.Strong)

	if err := cm1.InitImage(); err != nil {
		t.Fatal(err)
	}
	if v1.Get("seed") != "s0" {
		t.Fatal("remote init should deliver the primary data")
	}
	if err := cm1.StartUse(); err != nil {
		t.Fatal(err)
	}
	v1.Set("x", "over-tcp")
	cm1.EndUse()

	// Strong mode: v2's init+pull invalidates v1 across the wire — the
	// shard's invalidate travels bridge → uplink → client.
	if err := cm2.InitImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if v2.Get("x") != "over-tcp" {
		t.Fatalf("v2 sees x=%q", v2.Get("x"))
	}

	// Both views conflict via P, so exactly one shard carries them all.
	per := stats.PerShard()
	if len(per) != 1 {
		t.Fatalf("per-shard traffic = %v, want exactly one loaded shard", per)
	}
	for s, n := range per {
		if _, _, ok := shard.IsNode(s); !ok || n == 0 {
			t.Fatalf("per-shard traffic = %v", per)
		}
	}
}

// TestBridgeSharedReplySurvivesRecycle: the bridge delivers by pointer, so
// a caller gets the handler's own reply. A handler that answers every
// request with one shared reply hands the same pointer to each caller;
// the first caller's wire.Recycle must leave it whole for the next,
// because the pool did not make it.
func TestBridgeSharedReplySurvivesRecycle(t *testing.T) {
	b := shard.NewBridge()
	defer b.Close()
	shared := &wire.Message{Type: wire.TImage, View: "v", Version: 9, Ops: 2}
	if _, err := b.Attach("callee", func(*wire.Message) *wire.Message { return shared }); err != nil {
		t.Fatal(err)
	}
	var callers [2]transport.Endpoint
	for i := range callers {
		ep, err := b.Attach(fmt.Sprintf("caller%d", i), func(*wire.Message) *wire.Message { return nil })
		if err != nil {
			t.Fatal(err)
		}
		callers[i] = ep
	}
	first, err := callers[0].Call("callee", &wire.Message{Type: wire.TPull})
	if err != nil {
		t.Fatal(err)
	}
	wire.Recycle(first)
	second, err := callers[1].Call("callee", &wire.Message{Type: wire.TPull})
	if err != nil {
		t.Fatal(err)
	}
	if second.Type != wire.TImage || second.View != "v" || second.Version != 9 || second.Ops != 2 || second.From != "callee" {
		t.Errorf("second caller reads %+v after the first recycled the shared reply, want type image, view v, version 9, ops 2, from callee", *second)
	}
}
