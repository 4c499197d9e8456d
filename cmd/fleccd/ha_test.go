package main

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
)

// mapCodec is a minimal image codec for the HA wiring tests (mutex-guarded:
// the TCP test merges from the server goroutine while the test reads).
type mapCodec struct {
	mu   sync.Mutex
	data map[string]string
}

func newMapCodec() *mapCodec { return &mapCodec{data: map[string]string{}} }

func (c *mapCodec) Extract(props property.Set) (*image.Image, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	img := image.New()
	for k, v := range c.data {
		img.Put(image.Entry{Key: k, Value: []byte(v)})
	}
	return img, nil
}

func (c *mapCodec) Merge(img *image.Image, props property.Set) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range img.Entries {
		k := e.Key
		if e.Deleted {
			delete(c.data, k)
			continue
		}
		c.data[k] = string(e.Value)
	}
	return nil
}

func (c *mapCodec) get(k string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.data[k]
}

func (c *mapCodec) set(k, v string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.data[k] = v
}

// TestHATickStandbySelfPromotes: the standby's ticker path. Once the
// replication stream has been silent past the lease, haTick promotes the
// standby to primary; before that deadline it stays gated.
func TestHATickStandbySelfPromotes(t *testing.T) {
	clock := vclock.NewSim()
	inproc := transport.NewInproc()
	prim, err := directory.New("p", newMapCodec(), clock, inproc, directory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	sb, err := directory.New("db", newMapCodec(), clock, inproc, directory.Options{Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	repl, err := prim.StartReplication(directory.ReplConfig{}, directory.ReplTarget{Name: "db"})
	if err != nil {
		t.Fatal(err)
	}

	// One replicated commit arms the silence clock on the standby.
	delta := image.New()
	delta.Put(image.Entry{Key: "k", Value: []byte("v")})
	if _, err := prim.CommitLocal(delta, 1); err != nil {
		t.Fatal(err)
	}

	ha := haOpts{standby: true, lease: 200 * time.Millisecond}
	wasFenced, wasStandby := false, true

	// Within the lease: no transition.
	clock.Advance(100)
	if msg := haTick(sb, nil, ha, &wasFenced, &wasStandby); msg != "" {
		t.Fatalf("premature transition: %q", msg)
	}
	if !sb.Standby() {
		t.Fatal("standby promoted inside the lease")
	}

	// The primary falls silent past the lease: the next tick promotes.
	repl.Close()
	clock.Advance(200)
	msg := haTick(sb, nil, ha, &wasFenced, &wasStandby)
	if !strings.Contains(msg, "promoted to primary") {
		t.Fatalf("tick past the lease returned %q, want a promotion", msg)
	}
	if sb.Standby() {
		t.Fatal("standby still gating after self-promotion")
	}
	if sb.Epoch() == 0 {
		t.Fatal("self-promotion did not open a new epoch")
	}
	// The transition logs once; a later tick is quiet.
	if msg := haTick(sb, nil, ha, &wasFenced, &wasStandby); msg != "" {
		t.Fatalf("repeated transition message: %q", msg)
	}
}

// TestStartDaemonReplicationTCP: the daemon-to-daemon link. A primary
// replicates over a real TCP connection to a standby daemon's listener;
// commits barrier on the standby's ack, and the redialing endpoint
// survives the standby restarting on the same address.
func TestStartDaemonReplicationTCP(t *testing.T) {
	clock := vclock.NewReal()
	inproc := transport.NewInproc()
	prim, err := directory.New("db", newMapCodec(), clock, inproc, directory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	snet := transport.NewServerNetwork(ln, 5*time.Second)
	sbCodec := newMapCodec()
	sb, err := directory.New("db", sbCodec, clock, snet, directory.Options{Standby: true})
	if err != nil {
		t.Fatal(err)
	}

	ha := haOpts{replicateTo: addr, lease: time.Second}
	retry := transport.RetryPolicy{Attempts: 20, Sleep: func(time.Duration) { time.Sleep(20 * time.Millisecond) }}
	repl, stop, err := startDaemonReplication(prim, "db", addr, "", ha, retry)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	// CommitLocal barriers on the standby's ack: when it returns, the
	// batch has crossed the wire and been absorbed.
	delta := image.New()
	delta.Put(image.Entry{Key: "k", Value: []byte("one")})
	if _, err := prim.CommitLocal(delta, 1); err != nil {
		t.Fatal(err)
	}
	if got := sb.CurrentVersion(); got != prim.CurrentVersion() {
		t.Fatalf("standby at v%d, primary at v%d", got, prim.CurrentVersion())
	}
	if sbCodec.get("k") != "one" {
		t.Fatalf("standby codec k=%q, want one", sbCodec.get("k"))
	}
	_ = repl

	// Standby restart on the same address, from scratch: the old conn
	// dies; the redial endpoint dials afresh, the fresh standby's gap
	// refusal rewinds the stream to a full snapshot, and the next commit
	// still barriers — all without restarting the primary.
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	ln2, err := rebind(addr)
	if err != nil {
		t.Fatal(err)
	}
	snet2 := transport.NewServerNetwork(ln2, 5*time.Second)
	sbCodec2 := newMapCodec()
	sb2, err := directory.New("db", sbCodec2, clock, snet2, directory.Options{Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sb2.Close()

	delta2 := image.New()
	delta2.Put(image.Entry{Key: "k", Value: []byte("two")})
	if _, err := prim.CommitLocal(delta2, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for sb2.CurrentVersion() < prim.CurrentVersion() {
		if time.Now().After(deadline) {
			t.Fatalf("replication never resumed after standby restart (standby at v%d)", sb2.CurrentVersion())
		}
		repl.Heartbeat()
		time.Sleep(20 * time.Millisecond)
	}
	if sbCodec2.get("k") != "two" {
		t.Fatalf("restarted standby codec k=%q, want two", sbCodec2.get("k"))
	}
}

// rebind reacquires a just-released listen address, retrying briefly while
// the kernel finishes tearing the old listener down.
func rebind(addr string) (net.Listener, error) {
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil, err
}
