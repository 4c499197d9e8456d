package flecc_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"flecc"
)

func newSystem(t *testing.T, opts ...flecc.Option) (*flecc.System, *flecc.MapCodec) {
	t.Helper()
	db := flecc.NewMapCodec()
	db.SetString("greeting", "hello")
	sys, err := flecc.New("db", db, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys, db
}

func newView(t *testing.T, sys *flecc.System, name, props string, mode flecc.Mode) (*flecc.View, *flecc.MapCodec) {
	t.Helper()
	replica := flecc.NewMapCodec()
	v, err := sys.NewView(flecc.ViewConfig{
		Name:  name,
		View:  replica,
		Props: flecc.MustProps(props),
		Mode:  mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v, replica
}

func TestQuickstartFlow(t *testing.T) {
	sys, db := newSystem(t)
	v, replica := newView(t, sys, "replica-1", "Data={greeting}", flecc.Weak)
	if replica.GetString("greeting") != "hello" {
		t.Fatal("init should deliver primary data")
	}
	err := v.Use(func() error {
		replica.SetString("greeting", "bonjour")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Push(); err != nil {
		t.Fatal(err)
	}
	if db.GetString("greeting") != "bonjour" {
		t.Fatal("push should reach the primary")
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sys.Views()) != 0 {
		t.Fatal("view should be unregistered")
	}
}

func TestTwoViewsShareData(t *testing.T) {
	sys, _ := newSystem(t)
	v1, r1 := newView(t, sys, "v1", "P={x}", flecc.Weak)
	v2, r2 := newView(t, sys, "v2", "P={x}", flecc.Weak)
	if err := v1.Use(func() error { r1.SetString("k", "from-v1"); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := v1.Push(); err != nil {
		t.Fatal(err)
	}
	if err := v2.Pull(); err != nil {
		t.Fatal(err)
	}
	if r2.GetString("k") != "from-v1" {
		t.Fatal("update should flow through the primary")
	}
	if v2.Seen() != sys.CurrentVersion() {
		t.Fatal("seen should advance")
	}
}

func TestStrongModePublicAPI(t *testing.T) {
	sys, _ := newSystem(t)
	v1, _ := newView(t, sys, "v1", "P={x}", flecc.Strong)
	v2, _ := newView(t, sys, "v2", "P={x}", flecc.Strong)
	if err := v1.Pull(); err != nil {
		t.Fatal(err)
	}
	if err := v2.Pull(); err != nil {
		t.Fatal(err)
	}
	if v1.Valid() {
		t.Fatal("v1 should be invalidated by v2's strong pull")
	}
	if err := v1.StartUse(); !errors.Is(err, flecc.ErrInvalidated) {
		t.Fatalf("err = %v", err)
	}
}

func TestModeAndPropsSwitch(t *testing.T) {
	sys, _ := newSystem(t)
	v, _ := newView(t, sys, "v1", "P={x}", flecc.Weak)
	if v.Mode() != flecc.Weak {
		t.Fatal("initial mode")
	}
	if err := v.SetMode(flecc.Strong); err != nil {
		t.Fatal(err)
	}
	if v.Mode() != flecc.Strong {
		t.Fatal("mode switch")
	}
	if err := v.SetProps(flecc.MustProps("P={y}")); err != nil {
		t.Fatal(err)
	}
	_ = sys
}

func TestUnseenMetric(t *testing.T) {
	sys, _ := newSystem(t)
	v1, r1 := newView(t, sys, "v1", "P={x}", flecc.Weak)
	v2, _ := newView(t, sys, "v2", "P={x}", flecc.Weak)
	for i := 0; i < 3; i++ {
		if err := v1.Use(func() error { r1.SetString("k", fmt.Sprint(i)); return nil }); err != nil {
			t.Fatal(err)
		}
		if err := v1.Push(); err != nil {
			t.Fatal(err)
		}
	}
	if got := sys.Unseen("v2"); got != 3 {
		t.Fatalf("unseen = %d, want 3", got)
	}
	if err := v2.Pull(); err != nil {
		t.Fatal(err)
	}
	if got := sys.Unseen("v2"); got != 0 {
		t.Fatalf("unseen after pull = %d", got)
	}
	if v1.PendingOps() != 0 {
		t.Fatal("pushed view should have no pending ops")
	}
}

func TestMessageStatsOption(t *testing.T) {
	sys, _ := newSystem(t, flecc.WithMessageStats())
	before := sys.Messages()
	v, _ := newView(t, sys, "v1", "P={x}", flecc.Weak)
	if sys.Messages() <= before {
		t.Fatal("registration should be counted")
	}
	_ = v
	// Without the option, Messages reports 0.
	sys2, _ := newSystem(t)
	if sys2.Messages() != 0 {
		t.Fatal("stats disabled should report 0")
	}
}

func TestLatencyOptionAndClock(t *testing.T) {
	sys, _ := newSystem(t, flecc.WithLatency(7))
	v, err := sys.NewView(flecc.ViewConfig{
		Name:  "far",
		View:  flecc.NewMapCodec(),
		Props: flecc.MustProps("P={x}"),
		Host:  "edge-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := sys.Now()
	if err := v.Pull(); err != nil {
		t.Fatal(err)
	}
	if sys.Now()-t0 != 14 {
		t.Fatalf("pull should cost one RTT (14ms), took %v", sys.Now()-t0)
	}
	sys.AdvanceTo(sys.Now() + 100)
}

func TestTriggersThroughPublicAPI(t *testing.T) {
	sys, db := newSystem(t)
	v1, r1 := newView(t, sys, "v1", "P={x}", flecc.Weak)
	v2, r2 := newView(t, sys, "v2", "P={x}", flecc.Weak)
	_ = r2
	v2b, err := sys.NewView(flecc.ViewConfig{
		Name:  "v3",
		View:  flecc.NewMapCodec(),
		Props: flecc.MustProps("P={x}"),
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = v2b
	// v1 publishes; v2 has a periodic pull trigger.
	if err := v1.Use(func() error { r1.SetString("fresh", "yes"); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := v1.Push(); err != nil {
		t.Fatal(err)
	}
	if db.GetString("fresh") != "yes" {
		t.Fatal("push failed")
	}
	// Recreate v2 with trigger (ViewConfig trigger path).
	v2.Close()
	replica := flecc.NewMapCodec()
	v2t, err := sys.NewView(flecc.ViewConfig{
		Name:        "v2t",
		View:        replica,
		Props:       flecc.MustProps("P={x}"),
		PullTrigger: "every(50)",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v2t.ScheduleTriggers(50) {
		t.Fatal("scheduler should start")
	}
	// Another publish after v2t's init.
	if err := v1.Use(func() error { r1.SetString("fresh2", "also"); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := v1.Push(); err != nil {
		t.Fatal(err)
	}
	sys.AdvanceTo(sys.Now() + 200)
	if replica.GetString("fresh2") != "also" {
		t.Fatal("periodic trigger should have pulled the update")
	}
	v2t.StopTriggers()
}

func TestReadAwareOption(t *testing.T) {
	sys, _ := newSystem(t, flecc.WithReadAware())
	mk := func(name string) *flecc.View {
		v, err := sys.NewView(flecc.ViewConfig{
			Name: name, View: flecc.NewMapCodec(),
			Props: flecc.MustProps("P={x}"), Mode: flecc.Strong, ReadOnly: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	r1, r2 := mk("r1"), mk("r2")
	if err := r1.Pull(); err != nil {
		t.Fatal(err)
	}
	if err := r2.Pull(); err != nil {
		t.Fatal(err)
	}
	if !r1.Valid() || !r2.Valid() {
		t.Fatal("read-aware strong readers should coexist")
	}
}

func TestStaticSeed(t *testing.T) {
	sys, _ := newSystem(t)
	sys.SetStatic("v1", "v2", flecc.NoConflict)
	v1, _ := newView(t, sys, "v1", "P={x}", flecc.Strong)
	v2, _ := newView(t, sys, "v2", "P={x}", flecc.Strong)
	v1.Pull()
	if err := v2.Pull(); err != nil {
		t.Fatal(err)
	}
	if !v1.Valid() {
		t.Fatal("static no-conflict should suppress invalidation")
	}
}

func TestMapCodecBasics(t *testing.T) {
	m := flecc.NewMapCodec()
	m.SetString("a", "1")
	m.Set("b", []byte{2})
	if m.Len() != 2 || m.GetString("a") != "1" || m.Get("b")[0] != 2 {
		t.Fatal("map ops")
	}
	if m.Get("missing") != nil {
		t.Fatal("missing key should be nil")
	}
	m.Delete("a")
	if m.Len() != 1 {
		t.Fatal("delete")
	}
	// Mutation isolation.
	val := []byte("orig")
	m.Set("c", val)
	val[0] = 'X'
	if m.GetString("c") != "orig" {
		t.Fatal("Set should copy")
	}
	got := m.Get("c")
	got[0] = 'Y'
	if m.GetString("c") != "orig" {
		t.Fatal("Get should copy")
	}
}

func TestTraceOption(t *testing.T) {
	sys, _ := newSystem(t, flecc.WithTrace(100), flecc.WithMessageStats())
	v1, _ := newView(t, sys, "v1", "P={x}", flecc.Strong)
	v2, _ := newView(t, sys, "v2", "P={x}", flecc.Strong)
	v1.Pull()
	v2.Pull() // invalidates v1
	out := sys.Trace()
	for _, want := range []string{"register", "pull", "invalidate", "v1", "v2", "db"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
	// Stats and trace compose.
	if sys.Messages() == 0 {
		t.Fatal("stats should still count")
	}
	// Without the option, Trace is empty.
	sys2, _ := newSystem(t)
	if sys2.Trace() != "" {
		t.Fatal("trace should be empty without WithTrace")
	}
}

func TestParseProps(t *testing.T) {
	p, err := flecc.ParseProps("A={1,2}; B=[0,5]")
	if err != nil || p.Len() != 2 {
		t.Fatalf("p=%v err=%v", p, err)
	}
	if _, err := flecc.ParseProps("!!!"); err == nil {
		t.Fatal("bad props should fail")
	}
}

// goidCodec hides MapCodec's change-tracking capabilities and records
// which goroutine runs each Extract, dwelling there long enough for any
// concurrent fan-out worker to pick up the next target.
type goidCodec struct {
	flecc.Codec
	mu  *sync.Mutex
	ids *[]string
}

func (c goidCodec) Extract(props flecc.Props) (*flecc.Image, error) {
	c.mu.Lock()
	*c.ids = append(*c.ids, goid())
	c.mu.Unlock()
	time.Sleep(time.Millisecond)
	return c.Codec.Extract(props)
}

// goid returns the running goroutine's id as the runtime prints it.
func goid() string {
	b := make([]byte, 64)
	return string(bytes.Fields(b[:runtime.Stack(b, false)])[1])
}

// TestWithFanOutNonPositiveIsSerial: WithFanOut documents serial rounds as
// the simulated network's default; a non-positive n must select that, not
// the directory's concurrent default. A serial gather round runs every
// fetch — and so every sharer's Extract — on the puller's own goroutine.
func TestWithFanOutNonPositiveIsSerial(t *testing.T) {
	for _, n := range []int{-1, 0} {
		sys, _ := newSystem(t, flecc.WithFanOut(n))
		var (
			mu  sync.Mutex
			ids []string
		)
		const sharers = 6
		for i := 0; i < sharers; i++ {
			replica := flecc.NewMapCodec()
			v, err := sys.NewView(flecc.ViewConfig{
				Name:  fmt.Sprintf("sharer-%d", i),
				View:  goidCodec{replica, &mu, &ids},
				Props: flecc.MustProps("Data={greeting}"),
			})
			if err != nil {
				t.Fatal(err)
			}
			// Leave a pending update for the gather to fetch.
			if err := v.Use(func() error { replica.SetString("greeting", v.Name()); return nil }); err != nil {
				t.Fatal(err)
			}
		}
		puller, err := sys.NewView(flecc.ViewConfig{
			Name: "puller", View: flecc.NewMapCodec(),
			Props: flecc.MustProps("Data={greeting}"), ValidityTrigger: "false",
		})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		ids = nil
		mu.Unlock()
		if err := puller.Pull(); err != nil {
			t.Fatal(err)
		}
		if len(ids) != sharers {
			t.Fatalf("WithFanOut(%d): gather extracted from %d sharers, want %d", n, len(ids), sharers)
		}
		for _, id := range ids {
			if id != goid() {
				t.Fatalf("WithFanOut(%d): gather ran on goroutines %v, want all on the puller's (%s)", n, ids, goid())
			}
		}
	}
}
