package main

import (
	"bytes"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"flecc/internal/airline"
	"flecc/internal/directory"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// freeAddr reserves a loopback port and releases it for the daemon.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startDaemon launches run() and hands back its exit channel.
func startDaemon(addr, ckpt string, shards int) chan error {
	errc := make(chan error, 1)
	go func() {
		errc <- run(addr, "db", 5, 50, shards, 0, "", ckpt, 0,
			faultOpts{seed: 1}, 0, 0, "", haOpts{})
	}()
	return errc
}

// dialAgent connects a travel-agent view to a daemon, retrying while the
// daemon is still coming up.
func dialAgent(t *testing.T, addr, name string) *airline.TravelAgent {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		a, err := airline.NewTravelAgent(airline.AgentConfig{
			Name: name, Directory: "db",
			Net:         transport.NewDialNetwork(addr, 5*time.Second),
			Clock:       vclock.NewReal(),
			FlightsFrom: 100, FlightsTo: 104,
			Mode: wire.Weak,
		})
		if err == nil {
			return a
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// terminate delivers SIGTERM to the process (the daemon's signal.Notify
// picks it up) and waits for run() to exit cleanly.
func terminate(t *testing.T, errc chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
}

// guardSIGTERM keeps the test process alive around the self-delivered
// SIGTERMs (once anything Notifies for a signal, its default death is
// disabled process-wide).
func guardSIGTERM(t *testing.T) {
	t.Helper()
	guard := make(chan os.Signal, 4)
	signal.Notify(guard, syscall.SIGTERM)
	t.Cleanup(func() { signal.Stop(guard) })
}

// TestCheckpointDurableWriteAndCorruptFallback covers the checkpoint
// file discipline: the write-sync-rename-sync sequence round-trips, a
// missing file is a silent cold start, and a corrupt blob is a LOUD cold
// start — never a boot failure.
func TestCheckpointDurableWriteAndCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.ckpt")

	if snap, err := readCheckpoint(path); err != nil || snap != nil {
		t.Fatalf("missing checkpoint: snap=%v err=%v, want cold start", snap, err)
	}

	blob, err := directory.EncodeSnapshot(&directory.Snapshot{Version: 42})
	if err != nil {
		t.Fatal(err)
	}
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, blob); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	if err := syncDir(path); err != nil {
		t.Fatal(err)
	}
	snap, err := readCheckpoint(path)
	if err != nil || snap == nil || snap.Version != 42 {
		t.Fatalf("round trip: snap=%+v err=%v", snap, err)
	}

	// Corrupt blob (a torn pre-fsync write, a bad disk): loud log, cold
	// start, no error.
	if err := os.WriteFile(path, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	log.SetOutput(&logged)
	snap, err = readCheckpoint(path)
	log.SetOutput(os.Stderr)
	if err != nil || snap != nil {
		t.Fatalf("corrupt checkpoint: snap=%v err=%v, want loud cold start", snap, err)
	}
	if !bytes.Contains(logged.Bytes(), []byte("CHECKPOINT CORRUPT")) {
		t.Fatalf("corrupt checkpoint was not loudly logged: %q", logged.String())
	}
}

// TestDaemonSIGTERMShutdownCheckpoint is the shutdown-path test: a
// SIGTERM (what docker stop / systemd send) makes the daemon write a
// final checkpoint and exit cleanly instead of dying mid-write.
func TestDaemonSIGTERMShutdownCheckpoint(t *testing.T) {
	guardSIGTERM(t)
	addr := freeAddr(t)
	ckpt := filepath.Join(t.TempDir(), "db.ckpt")
	errc := startDaemon(addr, ckpt, 1)

	agent := dialAgent(t, addr, "agent-term")
	if err := agent.ReserveTickets(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := agent.CM.PushImage(); err != nil {
		t.Fatal(err)
	}
	agent.CM.KillImage()

	terminate(t, errc)

	snap, err := readCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Version < 1 {
		t.Fatalf("final checkpoint missing the acked commit: %+v", snap)
	}
}

// TestDaemonShardedCheckpointRoundTrip: with -shards 2 the daemon keeps
// one .sN checkpoint per shard. Versions survive a restart, and a
// corrupt shard file cold-starts that one shard — loudly — while the
// daemon still boots and serves.
func TestDaemonShardedCheckpointRoundTrip(t *testing.T) {
	guardSIGTERM(t)
	addr := freeAddr(t)
	ckpt := filepath.Join(t.TempDir(), "db.ckpt")

	// Generation 1: serve, commit, shut down.
	errc := startDaemon(addr, ckpt, 2)
	agent := dialAgent(t, addr, "agent-shard")
	if err := agent.ReserveTickets(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := agent.CM.PushImage(); err != nil {
		t.Fatal(err)
	}
	agent.CM.KillImage()
	terminate(t, errc)

	var vmax vclock.Version
	for i := 0; i < 2; i++ {
		path := shardCheckpointPath(ckpt, i)
		snap, err := readCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if snap == nil {
			t.Fatalf("shard checkpoint %s missing", path)
		}
		if snap.Version > vmax {
			vmax = snap.Version
		}
	}
	if vmax < 1 {
		t.Fatalf("no shard checkpoint recorded the commit (max v%d)", vmax)
	}

	// Generation 2: restart from the .sN files; the version sequence
	// continues where generation 1 stopped (same agent name and props,
	// so the view lands on the same shard).
	errc = startDaemon(addr, ckpt, 2)
	agent = dialAgent(t, addr, "agent-shard")
	if err := agent.ReserveTickets(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := agent.CM.PushImage(); err != nil {
		t.Fatal(err)
	}
	if err := agent.CM.PullImage(); err != nil {
		t.Fatal(err)
	}
	if seen := agent.CM.Seen(); seen <= vmax {
		t.Fatalf("restarted shard did not continue the version sequence: seen v%d, want > v%d", seen, vmax)
	}
	agent.CM.KillImage()
	terminate(t, errc)

	// Generation 3: one shard's checkpoint is corrupt. That shard cold
	// starts; the daemon still boots and serves.
	if err := os.WriteFile(shardCheckpointPath(ckpt, 0), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	errc = startDaemon(addr, ckpt, 2)
	agent = dialAgent(t, addr, "agent-shard")
	if err := agent.ReserveTickets(1, 100); err != nil {
		t.Fatal(err)
	}
	agent.CM.KillImage()
	terminate(t, errc)
}
