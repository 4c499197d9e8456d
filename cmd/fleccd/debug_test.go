package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
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
		d, err := newDeployment("db", newMapCodec(), net, directory.Options{}, "")
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
}

// TestWireGaugesOnDebug: the listener's wire counters the status line
// prints are gauges on the debug registry too.
func TestWireGaugesOnDebug(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	snet := transport.NewServerNetwork(ln, 5*time.Second)
	d, err := newDeployment("db", newMapCodec(), snet, directory.Options{}, "")
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

// TestReplCountersOnDebug: the replication session's shipped batches,
// degraded barriers and down standby are gauges beside repl_lag, reading
// zero before a session is attached. A down standby's lag keeps counting
// the commits it missed.
func TestReplCountersOnDebug(t *testing.T) {
	net := transport.NewInproc()
	d, err := newDeployment("db", newMapCodec(), net, directory.Options{}, "")
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
	if b, g, down := gauge("repl_batches"), gauge("repl_degraded_barriers"), gauge("repl_down"); b != 0 || g != 0 || down != 0 {
		t.Fatalf("before replication: repl_batches = %d, repl_degraded_barriers = %d, repl_down = %d", b, g, down)
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
	if b, g, down := gauge("repl_batches"), gauge("repl_degraded_barriers"), gauge("repl_down"); b < 1 || g != 0 || down != 0 {
		t.Fatalf("healthy standby: repl_batches = %d, repl_degraded_barriers = %d, repl_down = %d", b, g, down)
	}
	sb.Close()
	commit()
	if g := gauge("repl_degraded_barriers"); g != 1 {
		t.Fatalf("standby gone: repl_degraded_barriers = %d, want 1", g)
	}
	if lag, down := gauge("repl_lag"), gauge("repl_down"); lag != 1 || down != 1 {
		t.Fatalf("standby gone at v%d: repl_lag = %d, repl_down = %d, want 1 and 1", d.dm.CurrentVersion(), lag, down)
	}
}

// TestMetricNamesPinned pins the metric names /metrics serves, in text and
// in JSON, on both daemons of an HA pair. Per-type message counters are
// left out: which types appear depends on the traffic seen so far.
func TestMetricNamesPinned(t *testing.T) {
	want := []string{
		"gauge claim_retries", "gauge conflicts_resolved", "gauge log_len",
		"gauge grant_lease_waits", "gauge grants", "gauge revocations",
		"gauge version", "gauge views", "gauge views_evicted",
		"latency fanout", "latency pull", "latency push",
		"gauge spans_completed", "gauge wire_bytes", "gauge wire_flushes", "gauge wire_frames",
		"gauge wire_late_replies", "messages total",
		"gauge ha_epoch", "gauge ha_fenced", "gauge ha_standby",
		"gauge repl_batches", "gauge repl_degraded_barriers", "gauge repl_down", "gauge repl_lag",
	}
	sort.Strings(want)

	// daemon wires a deployment the way run does: on a loopback listener,
	// with its wire counters and the debug endpoint.
	daemon := func(t *testing.T, opts directory.Options) (*deployment, string, string) {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		snet := transport.NewServerNetwork(ln, 5*time.Second)
		d, err := newDeployment("db", newMapCodec(), snet, opts, "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.close() })
		d.snet = snet
		dln, err := newObservability("db", snet, d).serveDebug("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dln.Close() })
		return d, ln.Addr().String(), "http://" + dln.Addr().String() + "/metrics"
	}

	_, standbyAddr, standbyURL := daemon(t, directory.Options{Standby: true})
	primary, _, primaryURL := daemon(t, directory.Options{})
	ha := haOpts{replicateTo: standbyAddr, lease: time.Minute}
	_, stop, err := startDaemonReplication(primary.dm, "db", standbyAddr, "", ha, transport.RetryPolicy{Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)

	for _, c := range []struct{ shape, url string }{
		{"primary", primaryURL},
		{"standby", standbyURL},
	} {
		text, fromJSON := servedMetricNames(t, c.url)
		if !slices.Equal(text, want) {
			t.Errorf("%s: /metrics serves %q, want %q", c.shape, text, want)
		}
		if !slices.Equal(fromJSON, want) {
			t.Errorf("%s: /metrics?format=json serves %q, want %q", c.shape, fromJSON, want)
		}
	}
}

// servedMetricNames fetches /metrics as text and as JSON and returns the
// sorted "<kind> <name>" of every metric each form serves, leaving out the
// per-type message counters.
func servedMetricNames(t *testing.T, url string) (text, fromJSON []string) {
	t.Helper()
	get := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", url, resp.StatusCode, err)
		}
		return body
	}
	for _, line := range strings.Split(strings.TrimSpace(string(get(url))), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[0] == "messages" && f[1] == "type" {
			continue
		}
		text = append(text, f[0]+" "+f[1])
	}
	sort.Strings(text)

	var snap map[string]map[string]json.RawMessage
	if err := json.Unmarshal(get(url+"?format=json"), &snap); err != nil {
		t.Fatal(err)
	}
	for section, kind := range map[string]string{"gauges": "gauge", "latencies": "latency", "messages": "messages"} {
		for name := range snap[section] {
			if kind != "messages" || name != "by_type" {
				fromJSON = append(fromJSON, kind+" "+name)
			}
		}
		delete(snap, section)
	}
	for section := range snap {
		fromJSON = append(fromJSON, "section "+section)
	}
	sort.Strings(fromJSON)
	return text, fromJSON
}
