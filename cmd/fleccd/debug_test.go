package main

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/shard"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// TestLogLenOnDebugAndStatus: every directory manager's update-log length
// is a log_len gauge on the debug registry, next to version and views,
// and appears in the status line.
func TestLogLenOnDebugAndStatus(t *testing.T) {
	commit := func(t *testing.T, dm *directory.Manager) {
		t.Helper()
		d := image.New()
		d.Put(image.Entry{Key: "k", Value: []byte("v")})
		if _, err := dm.CommitLocal(d, 1); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("single", func(t *testing.T) {
		net := transport.NewInproc()
		d, err := newDeployment("db", newMapCodec(), net, 1, directory.Options{}, "")
		if err != nil {
			t.Fatal(err)
		}
		defer d.close()
		o := newObservability("db", net, d)
		commit(t, d.dm)
		if got := o.reg.Snapshot().Gauges["log_len"]; got != 1 {
			t.Fatalf("log_len gauge = %d, want 1", got)
		}
		if s := d.status(); !strings.Contains(s, ", log 1") {
			t.Fatalf("status line has no log length: %q", s)
		}
	})
	t.Run("sharded", func(t *testing.T) {
		net := transport.NewInproc()
		d, err := newDeployment("db", newMapCodec(), net, 2, directory.Options{}, "")
		if err != nil {
			t.Fatal(err)
		}
		defer d.close()
		o := newObservability("db", net, d)
		commit(t, d.svc.Shard(1))
		gauges := o.reg.Snapshot().Gauges
		for i, want := range []int64{0, 1} {
			name := shard.Node("db", i) + ".log_len"
			if got, ok := gauges[name]; !ok || got != want {
				t.Fatalf("%s = %d (registered %v), want %d", name, got, ok, want)
			}
		}
		if s := d.status(); !strings.Contains(s, fmt.Sprintf("%s v1 0 views log 1", shard.Node("db", 1))) {
			t.Fatalf("status line has no per-shard log length: %q", s)
		}
	})
}

// TestWireGaugesOnDebug: the listener's wire counters the status line
// prints are gauges on the debug registry too.
func TestWireGaugesOnDebug(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	snet := transport.NewServerNetwork(ln, 5*time.Second)
	d, err := newDeployment("db", newMapCodec(), snet, 1, directory.Options{}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	d.snet = snet
	o := newObservability("db", snet, d)

	c, err := transport.Dial(ln.Addr().String(), "agent", func(*wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TAck}
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("db", &wire.Message{Type: wire.TRegister, Props: property.MustSet("P={x}")}); err != nil {
		t.Fatal(err)
	}

	// The reply can reach the client before the server's flusher counts
	// it; wait for the handshake ack and the register ack to be counted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		g := o.reg.Snapshot().Gauges
		ws := snet.WireStats()
		if g["wire_frames"] >= 2 && g["wire_frames"] == ws.Frames && g["wire_flushes"] == ws.Flushes &&
			g["wire_bytes"] == ws.Bytes && g["wire_bytes"] > 0 {
			if late, ok := g["wire_late_replies"]; !ok || late != 0 {
				t.Fatalf("wire_late_replies = %d (registered %v), want 0", late, ok)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("wire gauges %v never matched the listener's counters %+v", g, ws)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplCountersOnDebug: the replication session's shipped batches and
// degraded barriers are gauges beside repl_lag, reading zero before a
// session is attached.
func TestReplCountersOnDebug(t *testing.T) {
	net := transport.NewInproc()
	d, err := newDeployment("db", newMapCodec(), net, 1, directory.Options{}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	o := newObservability("db", net, d)
	gauge := func(name string) int64 {
		t.Helper()
		got, ok := o.reg.Snapshot().Gauges[name]
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		return got
	}
	if b, g := gauge("repl_batches"), gauge("repl_degraded_barriers"); b != 0 || g != 0 {
		t.Fatalf("before replication: repl_batches = %d, repl_degraded_barriers = %d", b, g)
	}

	sb, err := directory.New("dbr", newMapCodec(), vclock.NewReal(), net, directory.Options{Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	repl, err := d.dm.StartReplication(directory.ReplConfig{
		Retry: transport.RetryPolicy{Attempts: 1},
	}, directory.ReplTarget{Name: "dbr"})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	commit := func() {
		t.Helper()
		delta := image.New()
		delta.Put(image.Entry{Key: "k", Value: []byte("v")})
		if _, err := d.dm.CommitLocal(delta, 1); err != nil {
			t.Fatal(err)
		}
	}
	commit()
	if b, g := gauge("repl_batches"), gauge("repl_degraded_barriers"); b < 1 || g != 0 {
		t.Fatalf("healthy standby: repl_batches = %d, repl_degraded_barriers = %d", b, g)
	}
	sb.Close()
	commit()
	if g := gauge("repl_degraded_barriers"); g != 1 {
		t.Fatalf("standby gone: repl_degraded_barriers = %d, want 1", g)
	}
}
