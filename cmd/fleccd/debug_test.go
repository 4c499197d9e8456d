package main

import (
	"fmt"
	"strings"
	"testing"

	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/shard"
	"flecc/internal/transport"
)

// TestLogLenOnDebugAndStatus: every directory manager's update-log length
// is a log_len gauge on the debug registry, next to version and views,
// and appears in the status line.
func TestLogLenOnDebugAndStatus(t *testing.T) {
	commit := func(t *testing.T, dm *directory.Manager) {
		t.Helper()
		d := image.New(property.MustSet("P={x}"))
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
