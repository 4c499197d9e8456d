// Command fleccd runs a Flecc directory manager as a TCP daemon: the
// original component is an in-memory airline flight database (seeded with
// synthetic flights), and remote cache managers (fleccview) connect over
// TCP to register views, pull, push, and switch modes.
//
// One directory manager serves the whole database, as in the paper's
// runtime: commits of disjoint conflict groups run in parallel on its
// -lanes, and -replicate-to/-standby pair two daemons for fail-over.
//
// Usage:
//
//	fleccd -addr :7070 -flights 100 -capacity 200 -lanes 4
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"flecc/internal/airline"
	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/metrics"
	"flecc/internal/secure"
	"flecc/internal/transport"
	"flecc/internal/vclock"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7070", "listen address")
		name        = flag.String("name", "db", "directory manager node name")
		flights     = flag.Int("flights", 100, "number of synthetic flights to seed (starting at 100)")
		capacity    = flag.Int("capacity", 200, "seats per flight")
		interval    = flag.Duration("status", 10*time.Second, "status log interval (0 disables)")
		key         = flag.String("key", "", "shared secret; when set, the link is protected by an encryptor/decryptor pair")
		ckptPath    = flag.String("checkpoint", "", "file to write protocol-metadata snapshots to (enables fail-over)")
		ckptEvery   = flag.Duration("checkpoint-every", 30*time.Second, "snapshot interval when -checkpoint is set")
		faultDrop   = flag.Float64("fault-drop", 0, "inject faults: probability [0,1] of dropping any message before delivery")
		faultDelay  = flag.Duration("fault-delay", 0, "inject faults: fixed delay added before delivering each message")
		faultSeed   = flag.Int64("fault-seed", 1, "seed for the fault injector's random stream (deterministic runs)")
		fanOut      = flag.Int("fanout", 0, "width of an invalidate/gather/propagate round: views contacted at a time (0 = directory default of 4, 1 = serial)")
		lanes       = flag.Int("lanes", 0, "conflict-group execution lanes: commits of disjoint conflict groups run in parallel (0 = 1 lane: commits run one at a time)")
		debugAddr   = flag.String("debug-addr", "", "serve observability HTTP on this address: /metrics (text or ?format=json), /trace, /spans, /debug/pprof (empty disables)")
		standby     = flag.Bool("standby", false, "run as a hot standby: refuse client traffic until promoted (pair with a primary's -replicate-to)")
		replicateTo = flag.String("replicate-to", "", "stream replication to the standby fleccd at this address")
		haLease     = flag.Duration("ha-lease", 2*time.Second, "HA lease: a standby silent past this self-promotes; a primary unable to reach its standby past this fences itself")
	)
	flag.Parse()
	if err := run(*addr, *name, *flights, *capacity, *interval, *key, *ckptPath, *ckptEvery,
		faultOpts{drop: *faultDrop, delay: *faultDelay, seed: *faultSeed}, *fanOut, *lanes, *debugAddr,
		haOpts{standby: *standby, replicateTo: *replicateTo, lease: *haLease}); err != nil {
		fmt.Fprintln(os.Stderr, "fleccd:", err)
		os.Exit(1)
	}
}

// faultOpts carries the -fault-* flags into run.
type faultOpts struct {
	drop  float64
	delay time.Duration
	seed  int64
}

func (f faultOpts) enabled() bool { return f.drop > 0 || f.delay > 0 }

func run(addr, name string, flights, capacity int, statusEvery time.Duration, key, ckptPath string, ckptEvery time.Duration, faults faultOpts, fanOut, lanes int, debugAddr string, ha haOpts) error {
	if ha.standby && ha.replicateTo != "" {
		return fmt.Errorf("-standby and -replicate-to are mutually exclusive (no chained replication)")
	}
	if ha.enabled() && ha.lease <= 0 {
		return fmt.Errorf("-ha-lease must be > 0")
	}
	// SIGTERM is what init systems and container runtimes send; without it
	// a `docker stop` or systemd shutdown killed the daemon before the
	// final checkpoint below could run. Registered before the port opens,
	// so a signal sent the moment a client can connect is not lost.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	db := airline.NewReservationSystem()
	airline.SeedFlights(db, 100, flights, capacity)

	var ln net.Listener
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if key != "" {
		ln = secure.NewListener(ln, secure.NewPair([]byte(key)))
		log.Printf("fleccd: link protected by encryptor/decryptor pair")
	}
	snet := transport.NewServerNetwork(ln, 30*time.Second)
	var tnet transport.Network = snet
	var faulty *transport.Faulty
	if faults.enabled() {
		faulty = transport.NewFaulty(tnet, faults.seed)
		faulty.SetDropRate(faults.drop)
		faulty.SetDelay(faults.delay)
		tnet = faulty
		log.Printf("fleccd: fault injection on (drop=%.2f delay=%s seed=%d)", faults.drop, faults.delay, faults.seed)
	}
	// One seeded jitter stream serves every retry policy in the process
	// (the DM's view calls and the replication link), so identically
	// seeded runs replay the same backoffs.
	retry := transport.RetryPolicy{Jitter: 0.2, Rand: transport.NewRand(faults.seed)}
	opts := directory.Options{Resolver: airline.SeatResolver, FanOut: fanOut, Lanes: lanes, Retry: retry}
	if lanes > 1 {
		log.Printf("fleccd: %d conflict-group commit lanes", lanes)
	}

	if ha.standby {
		opts.Standby = true
	}
	d, err := newDeployment(name, db, tnet, opts, ckptPath)
	if err != nil {
		return err
	}
	d.faulty = faulty
	d.snet = snet
	defer d.close()
	role := "primary"
	if ha.standby {
		role = "hot standby (client traffic gated until promotion)"
	}
	log.Printf("fleccd: directory %q, %s, serving %d flights on %s", name, role, flights, ln.Addr())

	var repl *directory.Replicator
	if ha.replicateTo != "" {
		var stopRepl func()
		repl, stopRepl, err = startDaemonReplication(d.dm, name, ha.replicateTo, key, ha, retry)
		if err != nil {
			return err
		}
		defer stopRepl()
	}

	if debugAddr != "" {
		obs := newObservability(name, tnet, d)
		dln, err := obs.serveDebug(debugAddr)
		if err != nil {
			return err
		}
		defer dln.Close()
		log.Printf("fleccd: observability on http://%s (/metrics /trace /spans /debug/pprof)", dln.Addr())
	}

	checkpoint := func() {
		if ckptPath == "" {
			return
		}
		blob := directory.EncodeSnapshot(d.dm.Store().SnapshotSince(0))
		// Write-sync-rename-sync: the blob is durable before the rename
		// publishes it, and the rename itself is durable once the
		// directory entry is synced. A crash at any point leaves either
		// the old checkpoint or the new one — never a torn file.
		tmp := ckptPath + ".tmp"
		if err := writeFileSync(tmp, blob); err != nil {
			log.Printf("fleccd: checkpoint: %v", err)
			return
		}
		if err := os.Rename(tmp, ckptPath); err != nil {
			log.Printf("fleccd: checkpoint: %v", err)
			return
		}
		if err := syncDir(ckptPath); err != nil {
			log.Printf("fleccd: checkpoint: sync dir: %v", err)
		}
	}
	var ckptTick <-chan time.Time
	if ckptPath != "" && ckptEvery > 0 {
		t := time.NewTicker(ckptEvery)
		defer t.Stop()
		ckptTick = t.C
	}

	var ticker *time.Ticker
	var tick <-chan time.Time
	if statusEvery > 0 {
		ticker = time.NewTicker(statusEvery)
		defer ticker.Stop()
		tick = ticker.C
	}
	var haTickC <-chan time.Time
	if ha.enabled() {
		t, c := haTicker(ha)
		defer t.Stop()
		haTickC = c
	}
	wasFenced, wasStandby := false, ha.standby
	for {
		select {
		case <-stop:
			checkpoint()
			log.Printf("fleccd: shutting down")
			return nil
		case <-ckptTick:
			checkpoint()
		case <-haTickC:
			if msg := haTick(d.dm, repl, ha, &wasFenced, &wasStandby); msg != "" {
				log.Printf("fleccd: %s", msg)
			}
		case <-tick:
			log.Printf("fleccd: %s", d.status())
		}
	}
}

// deployment is the daemon's one directory manager together with the
// network pieces its status line and debug endpoint read.
type deployment struct {
	dm     *directory.Manager
	faulty *transport.Faulty
	snet   *transport.ServerNetwork // wire counters for the status line
}

func newDeployment(name string, db image.Codec, snet transport.Network, opts directory.Options, ckptPath string) (*deployment, error) {
	if ckptPath != "" {
		snap, err := readCheckpoint(ckptPath)
		if err != nil {
			return nil, err
		}
		if snap != nil {
			opts.Snapshot = snap
			log.Printf("fleccd: restored checkpoint from %s (v%d)", ckptPath, snap.Version)
		} else if err := refuseShardedCheckpoint(ckptPath); err != nil {
			return nil, err
		}
	}
	dm, err := directory.New(name, db, vclock.NewReal(), snet, opts)
	if err != nil {
		return nil, err
	}
	return &deployment{dm: dm}, nil
}

// refuseShardedCheckpoint fails a boot that finds no checkpoint at path
// but the first per-shard file (path.s0) of a daemon that ran with the
// since-removed -shards flag: starting cold there would silently drop the
// versions those files hold.
func refuseShardedCheckpoint(path string) error {
	sharded := path + ".s0"
	if _, err := os.Stat(sharded); err == nil {
		return fmt.Errorf("checkpoint %s is missing but %s exists: it was written by a sharded fleccd, which this daemon cannot restore; move the .sN files away to start cold", path, sharded)
	}
	return nil
}

// readCheckpoint loads a snapshot file. A missing file is not an error
// (cold start), and neither is a corrupt one: a blob that fails to decode
// — a torn write from a pre-fsync crash, a truncated disk — is loudly
// logged and treated as cold start, because refusing to boot over a
// checkpoint that exists only as an optimization would turn a recoverable
// restart into an outage.
func readCheckpoint(path string) (*directory.Snapshot, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	snap, err := directory.DecodeSnapshot(blob)
	if err != nil {
		log.Printf("fleccd: CHECKPOINT CORRUPT: %s failed to decode (%v); discarding it and starting cold", path, err)
		return nil, nil
	}
	return snap, nil
}

// writeFileSync writes blob to path and fsyncs it before returning.
func writeFileSync(path string, blob []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs the directory containing path, making a just-renamed
// entry durable.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// latencyLine renders the non-empty hot-path latency counters of a
// directory manager ("" when nothing has been observed yet).
func latencyLine(dm *directory.Manager) string {
	pull, push, fanout := dm.Latencies()
	var parts []string
	for _, l := range []struct {
		name string
		lat  *metrics.Latency
	}{{"pull", pull}, {"push", push}, {"fanout", fanout}} {
		if n := l.lat.Count(); n > 0 {
			parts = append(parts, fmt.Sprintf("%s n=%d avg=%s", l.name, n, time.Duration(l.lat.TotalNs()/n)))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "lat " + strings.Join(parts, " ")
}

// sizeString renders a byte count with a binary unit suffix.
func sizeString(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func (d *deployment) status() string {
	var b strings.Builder
	views := d.dm.Views()
	fmt.Fprintf(&b, "v%d, %d views registered %v, %d conflicts resolved, log %d",
		d.dm.CurrentVersion(), len(views), views, d.dm.Store().ConflictsSeen(), d.dm.Store().LogLen())
	if n := d.dm.ViewsEvicted(); n > 0 {
		fmt.Fprintf(&b, ", %d views evicted %v", n, d.dm.LostViews())
	}
	if lat := latencyLine(d.dm); lat != "" {
		fmt.Fprintf(&b, "; %s", lat)
	}
	if d.snet != nil {
		if ws := d.snet.WireStats(); ws.Flushes > 0 {
			fmt.Fprintf(&b, "; wire %d frames/%d writes (%.2f per write, %s)",
				ws.Frames, ws.Flushes, float64(ws.Frames)/float64(ws.Flushes), sizeString(ws.Bytes))
		}
	}
	if d.faulty != nil {
		fmt.Fprintf(&b, "; %d faults injected", d.faulty.Injected())
	}
	return b.String()
}

func (d *deployment) close() { d.dm.Close() }
