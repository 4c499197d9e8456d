package main

// The ha experiment (E17): machine-readable micro-benchmarks of the
// hot-standby replication path. `fleccbench -exp ha -json` writes
// BENCH_ha.json with the commit-path overhead of semi-synchronous
// replication (inline and windowed-async sessions vs an unreplicated
// baseline) plus the standby bootstrap path (snapshot restore + image
// absorb) — the numbers behind the "replication lag" column of the HA
// story — and the ha_batch rows: what one replicated push+pull costs with
// 16, 256 and 4096 registered views, which must be flat because a batch
// carries what changed, not what exists. Everything runs on the
// in-process transport so the rows measure protocol cost, not loopback
// TCP.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// benchKV is a minimal mutex-guarded codec for the HA benchmarks.
type benchKV struct {
	mu   sync.Mutex
	data map[string][]byte
}

func newBenchKV() *benchKV { return &benchKV{data: map[string][]byte{}} }

func (c *benchKV) Extract(props property.Set) (*image.Image, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	img := image.New(props.Clone())
	for k, v := range c.data {
		img.Put(image.Entry{Key: k, Value: v})
	}
	return img, nil
}

// ExtractKeys makes the codec keyed, like the airline database and
// image.MapCodec: a delta extract reads the changed keys, not everything.
func (c *benchKV) ExtractKeys(props property.Set, keys []string) (*image.Image, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	img := image.New(props.Clone())
	for _, k := range keys {
		if v, ok := c.data[k]; ok {
			img.Put(image.Entry{Key: k, Value: v})
		}
	}
	return img, nil
}

func (c *benchKV) Merge(img *image.Image, props property.Set) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range img.Entries {
		if e.Deleted {
			delete(c.data, k)
			continue
		}
		c.data[k] = e.Value
	}
	return nil
}

// haPair builds a primary + hot standby on one in-process transport with
// the given replication session config. The returned cleanup tears the
// whole pair down.
func haPair(cfg directory.ReplConfig) (*directory.Manager, *directory.Manager, func(), error) {
	return haPairOn(transport.NewInproc(), cfg)
}

func haPairOn(net transport.Network, cfg directory.ReplConfig) (*directory.Manager, *directory.Manager, func(), error) {
	clock := vclock.NewReal()
	prim, err := directory.New("dm", newBenchKV(), clock, net, directory.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	sb, err := directory.New("dmr", newBenchKV(), clock, net, directory.Options{Standby: true})
	if err != nil {
		prim.Close()
		return nil, nil, nil, err
	}
	repl, err := prim.StartReplication(cfg, directory.ReplTarget{Name: "dmr"})
	if err != nil {
		sb.Close()
		prim.Close()
		return nil, nil, nil, err
	}
	cleanup := func() {
		repl.Close()
		sb.Close()
		prim.Close()
	}
	return prim, sb, cleanup, nil
}

// benchCommits measures CommitLocal (which barriers on replication when a
// session is attached) through the given manager.
func benchCommits(dm *directory.Manager) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			delta := image.New(property.NewSet())
			delta.Put(image.Entry{Key: fmt.Sprintf("k%d", i%64), Value: []byte("v")})
			if _, err := dm.CommitLocal(delta, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchBatch measures the replication stream's steady state at a given
// number of registered views: each iteration is one push of one key and
// one pull by the same view, i.e. two inline batches — a one-key commit
// and a one-view touch — each built, encoded, decoded and applied before
// the request returns. The other views are registered on disjoint data
// and never speak, so anything that grows with their number is overhead.
func benchBatch(views int) (testing.BenchmarkResult, error) {
	net := transport.NewInproc()
	prim, sb, cleanup, err := haPairOn(net, directory.ReplConfig{Inline: true})
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	defer cleanup()
	view := func(i int) (string, property.Set) {
		return fmt.Sprintf("v%04d", i), property.NewSet(property.New("Flights", property.DiscreteRange(i, i)))
	}
	ctl, err := net.Attach("ctl", func(*wire.Message) *wire.Message { return nil })
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	defer ctl.Close()
	for i := 0; i < views; i++ {
		name, props := view(i)
		if _, err := ctl.Call("dm", &wire.Message{Type: wire.TRegister, View: name, Props: props}); err != nil {
			return testing.BenchmarkResult{}, err
		}
	}
	name, props := view(0)
	ep, err := net.Attach(name, func(*wire.Message) *wire.Message { return nil })
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	defer ep.Close()
	reply, err := ep.Call("dm", &wire.Message{Type: wire.TInit})
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	since := reply.Version
	var failed error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			delta := image.New(props)
			delta.Put(image.Entry{Key: "f/0", Value: []byte("NYC|SFO|200|57|19900")})
			if _, err := ep.Call("dm", &wire.Message{Type: wire.TPush, Img: delta, Ops: 1}); err != nil {
				failed = err
				return
			}
			reply, err := ep.Call("dm", &wire.Message{Type: wire.TPull, Since: since})
			if err != nil {
				failed = err
				return
			}
			since = reply.Version
		}
	})
	if failed != nil {
		return r, failed
	}
	if got, want := sb.CurrentVersion(), prim.CurrentVersion(); got != want {
		return r, fmt.Errorf("ha_batch views=%d: standby at v%d, primary at v%d", views, got, want)
	}
	if got := len(sb.Views()); got != views {
		return r, fmt.Errorf("ha_batch views=%d: standby holds %d views", views, got)
	}
	return r, nil
}

func haRow(name string, r testing.BenchmarkResult, extra map[string]float64) wireBenchResult {
	return wireBenchResult{
		Name:        name,
		N:           r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Extra:       extra,
	}
}

func runHABenchmarks() ([]wireBenchResult, error) {
	var out []wireBenchResult

	// Baseline: an unreplicated commit (no session, the barrier is free).
	net := transport.NewInproc()
	solo, err := directory.New("dm", newBenchKV(), vclock.NewReal(), net, directory.Options{})
	if err != nil {
		return nil, err
	}
	base := benchCommits(solo)
	solo.Close()
	baseNs := float64(base.T.Nanoseconds()) / float64(base.N)
	out = append(out, haRow("ha_commit/unreplicated", base, nil))

	// Semi-synchronous commit, inline session: the commit ships the batch
	// and waits for the standby's absorb on the caller's goroutine.
	overhead := func(r testing.BenchmarkResult) map[string]float64 {
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if baseNs <= 0 {
			return nil
		}
		return map[string]float64{"overhead_x": ns / baseNs}
	}
	prim, sb, cleanup, err := haPair(directory.ReplConfig{Inline: true})
	if err != nil {
		return nil, err
	}
	rInline := benchCommits(prim)
	if got, want := sb.CurrentVersion(), prim.CurrentVersion(); got != want {
		cleanup()
		return nil, fmt.Errorf("inline standby lagging: v%d vs v%d", got, want)
	}
	cleanup()
	out = append(out, haRow("ha_commit/semisync_inline", rInline, overhead(rInline)))

	// Semi-synchronous commit, async sender with a windowed pipeline: the
	// barrier overlaps with the sender goroutine shipping batches.
	prim, sb, cleanup, err = haPair(directory.ReplConfig{Window: 4, AckTimeout: 10 * time.Second})
	if err != nil {
		return nil, err
	}
	rAsync := benchCommits(prim)
	lag := float64(prim.CurrentVersion() - sb.CurrentVersion())
	cleanup()
	extra := overhead(rAsync)
	if extra == nil {
		extra = map[string]float64{}
	}
	// The barrier makes every acked commit standby-visible; a non-zero
	// value here would mean acked state only the primary had.
	extra["lag_after_last_ack"] = lag
	out = append(out, haRow("ha_commit/async_w4", rAsync, extra))

	// Standby bootstrap: restore a 1k-key snapshot and absorb the primary
	// image — the cold-start catch-up a fresh standby pays before the
	// stream goes incremental.
	seed := newBenchKV()
	st := directory.NewStore(seed, vclock.NewReal())
	for i := 0; i < 1024; i++ {
		delta := image.New(property.NewSet())
		delta.Put(image.Entry{Key: fmt.Sprintf("k%04d", i), Value: []byte("NYC|SFO|200|57|19900")})
		if _, _, _, err := st.Commit("v1", delta, 1); err != nil {
			return nil, err
		}
	}
	snap := st.SnapshotSince(0)
	img, err := st.Extract(property.NewSet(), 0)
	if err != nil {
		return nil, err
	}
	rBoot := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cold := directory.NewStore(newBenchKV(), vclock.NewReal())
			if err := cold.Restore(snap); err != nil {
				b.Fatal(err)
			}
			if err := cold.AbsorbImage(img); err != nil {
				b.Fatal(err)
			}
		}
	})
	out = append(out, haRow("ha_bootstrap/restore_absorb_1k", rBoot, map[string]float64{
		"keys": 1024,
	}))

	// Snapshot capture on a loaded primary: what the sender pays to open
	// a stream (or re-open one after a gap refusal).
	rCap := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s := st.SnapshotSince(0); s == nil {
				b.Fatal("nil snapshot")
			}
		}
	})
	out = append(out, haRow("ha_capture/snapshot_1k", rCap, nil))

	// O(Δ) stream: the same push+pull at 16, 256 and 4096 registered
	// views. The rows must be flat; a batch that grows with the view count
	// fails the run, not just the reader's eye.
	var small wireBenchResult
	for _, views := range []int{16, 256, 4096} {
		r, err := benchBatch(views)
		if err != nil {
			return nil, err
		}
		row := haRow(fmt.Sprintf("ha_batch/views=%d", views), r, map[string]float64{"views": float64(views)})
		if views == 16 {
			small = row
		}
		row.Extra["vs_16_views_x"] = row.NsPerOp / small.NsPerOp
		out = append(out, row)
		if row.NsPerOp > 2*small.NsPerOp || row.AllocsPerOp > 2*small.AllocsPerOp {
			return out, fmt.Errorf("%s is not flat: %.0f ns / %d allocs against %.0f ns / %d allocs at 16 views (bar: 2x)",
				row.Name, row.NsPerOp, row.AllocsPerOp, small.NsPerOp, small.AllocsPerOp)
		}
	}

	return out, nil
}

// runHA executes the HA benchmark set; with jsonOut non-empty the report
// is written there as JSON (BENCH_ha.json by default), otherwise a text
// table goes to stdout.
func runHA(jsonOut string) error {
	rows, err := runHABenchmarks()
	if err != nil {
		return err
	}
	report := wireBenchReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Results:   rows,
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", jsonOut, len(report.Results))
		return nil
	}
	fmt.Printf("%-34s %12s %12s %12s\n", "benchmark", "ns/op", "allocs/op", "B/op")
	for _, r := range report.Results {
		fmt.Printf("%-34s %12.1f %12d %12d", r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
		for k, v := range r.Extra {
			fmt.Printf("  %s=%.4f", k, v)
		}
		fmt.Println()
	}
	return nil
}
