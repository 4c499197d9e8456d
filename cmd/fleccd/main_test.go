package main

import (
	"bytes"
	"encoding/hex"
	"fmt"
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

// gobCheckpointHex is a checkpoint as fleccd wrote it before snapshots
// moved to the wire codec — the gob encoding of a v42 store snapshot with
// two shadow records and one log record, captured at the last gob-era
// commit (43a37c2).
const gobCheckpointHex = "" +
	"417f03010108536e617073686f7401ff80000104010756657273696f6e0106000106536861646f7701ff840001034c6f" +
	"6701ff8a000105566965777301ff8e00000024ff83020101155b5d6469726563746f72792e536861646f7752656301ff" +
	"840001ff82000042ff8103010109536861646f7752656301ff8200010401034b6579010c00010756657273696f6e0106" +
	"000106577269746572010c00010744656c65746564010200000024ff89020101155b5d6469726563746f72792e557064" +
	"61746552656301ff8a0001ff86000048ff850301010955706461746552656301ff86000105010756657273696f6e0106" +
	"000106577269746572010c00010550726f707301ff880001034f70730104000102417401040000000fff870501010353" +
	"657401ff8800000027ff8d020101185b5d6469726563746f72792e48616e646f7665725669657701ff8e0001ff8c0000" +
	"5fff8b0301010c48616e646f7665725669657701ff8c00010701044e616d65010c00010550726f707301ff880001044d" +
	"6f646501060001024f7001060001045365656e010600010856616c6964697479010c0001064163746976650102000000" +
	"60ff80012a01020105662f313030012a01076167656e742d31000105662f313031012901076167656e742d3201010001" +
	"01012a01076167656e742d31011d466c69676874733d7b3130302c3130312c3130322c3130332c3130347d0102010e00" +
	"00"

// TestCheckpointDurableWriteAndCorruptFallback covers the checkpoint
// file discipline: the write-sync-rename-sync sequence round-trips, a
// missing file is a silent cold start, and a corrupt blob — garbage, a
// gob-era checkpoint nothing reads any more, or records Restore would
// refuse — is a LOUD cold start, never a boot failure.
func TestCheckpointDurableWriteAndCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.ckpt")

	if snap, err := readCheckpoint(path); err != nil || snap != nil {
		t.Fatalf("missing checkpoint: snap=%v err=%v, want cold start", snap, err)
	}

	blob := directory.EncodeSnapshot(&directory.Snapshot{Version: 42})
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

	// Corrupt blob (a torn pre-fsync write, a bad disk, a gob-era file,
	// records that would set the counter below a version they hold): loud
	// log, cold start, no error.
	gobBlob, err := hex.DecodeString(gobCheckpointHex)
	if err != nil {
		t.Fatal(err)
	}
	inconsistent := directory.EncodeSnapshot(&directory.Snapshot{
		Version: 2, Shadow: []directory.ShadowRec{{Key: "f/100", Version: 5}},
	})
	for _, bad := range [][]byte{[]byte("not a snapshot"), gobBlob, inconsistent} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		var logged bytes.Buffer
		log.SetOutput(&logged)
		snap, err = readCheckpoint(path)
		log.SetOutput(os.Stderr)
		if err != nil || snap != nil {
			t.Fatalf("corrupt checkpoint %.16q: snap=%v err=%v, want loud cold start", bad, snap, err)
		}
		if !bytes.Contains(logged.Bytes(), []byte("CHECKPOINT CORRUPT")) {
			t.Fatalf("corrupt checkpoint %.16q was not loudly logged: %q", bad, logged.String())
		}
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

// TestDaemonSIGTERMAtStartup: a SIGTERM sent the moment a client can
// connect — here while the daemon is still restoring a large checkpoint —
// still shuts the daemon down through its final checkpoint.
func TestDaemonSIGTERMAtStartup(t *testing.T) {
	guardSIGTERM(t)
	addr := freeAddr(t)
	ckpt := filepath.Join(t.TempDir(), "db.ckpt")
	big := &directory.Snapshot{Version: 1, Shadow: make([]directory.ShadowRec, 200_000)}
	for i := range big.Shadow {
		big.Shadow[i] = directory.ShadowRec{Key: fmt.Sprintf("k%06d", i), Version: 1, Writer: "w"}
	}
	if err := writeFileSync(ckpt, directory.EncodeSnapshot(big)); err != nil {
		t.Fatal(err)
	}
	errc := startDaemon(addr, ckpt, 1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial %s: %v", addr, err)
		}
	}

	terminate(t, errc)

	if snap, err := readCheckpoint(ckpt); err != nil || snap == nil || snap.Version != 1 {
		t.Fatalf("final checkpoint: %v, %v; want the restored v1 written back on shutdown", snap, err)
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
