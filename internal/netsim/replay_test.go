package netsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/trace"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// mapCodec is a minimal string-map application component for the replay
// scenario.
type mapCodec struct{ data map[string]string }

func (c *mapCodec) Extract(props property.Set) (*image.Image, error) {
	img := image.New()
	for k, v := range c.data {
		img.Put(image.Entry{Key: k, Value: []byte(v)})
	}
	return img, nil
}

func (c *mapCodec) Merge(img *image.Image, props property.Set) error {
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

// runReplayScenario drives one full protocol run — two views, writes,
// pushes, pulls including an invalidation round — over a simulated LAN
// whose delivery hook drops a fixed schedule of request indices (forcing
// retries and failure paths), with every retry policy fed from the given
// seed. It returns the complete observable transcript: the message-flow
// trace, an operation log including error text, traffic statistics, the
// final virtual time, and the primary's committed content.
func runReplayScenario(t *testing.T, seed int64, drops map[int]bool) string {
	t.Helper()
	clock := vclock.NewSim()
	topo := LAN(2)
	for _, n := range []string{"dm", "v1", "v2"} {
		topo.Place(n, "h-"+n)
	}
	net := New(clock, topo)
	rec := trace.NewRecorder(4096)
	net.AddObserver(rec)

	delivered := 0
	net.SetDeliveryHook(func(from, to string, m *wire.Message) error {
		delivered++
		if drops[delivered] {
			return fmt.Errorf("replay: scheduled drop of request %d", delivered)
		}
		return nil
	})

	retry := transport.RetryPolicy{
		Attempts: 3,
		Jitter:   0.2,
		Rand:     transport.NewRand(seed),
		Sleep:    func(time.Duration) {},
	}
	prim := &mapCodec{data: map[string]string{"x": "x0", "y": "y0"}}
	if _, err := directory.New("dm", prim, clock, net, directory.Options{FanOut: 1, Retry: retry}); err != nil {
		t.Fatalf("directory: %v", err)
	}

	props := property.NewSet(property.New("K", property.Discrete("x", "y")))
	var log strings.Builder
	op := func(name string, err error) {
		if err != nil {
			fmt.Fprintf(&log, "%s: ERR %v\n", name, err)
			return
		}
		fmt.Fprintf(&log, "%s: ok\n", name)
	}

	newView := func(name string, mode wire.Mode) (*cache.Manager, *mapCodec) {
		data := &mapCodec{data: map[string]string{}}
		cm, err := cache.New(cache.Config{
			Name: name, Directory: "dm", Net: net, View: data,
			Props: props, Mode: mode, ValidityTrigger: "staleness < 1", Clock: clock,
		})
		if err != nil {
			t.Fatalf("view %s: %v", name, err)
		}
		return cm, data
	}
	v1, d1 := newView("v1", wire.Strong)
	v2, d2 := newView("v2", wire.Weak)
	op("init v1", v1.InitImage())
	op("init v2", v2.InitImage())

	// A fixed interleaving touching every protocol path: weak writes and
	// pushes, a strong pull's invalidation round, an update pull.
	op("use v2", v2.StartUse())
	d2.data["x"] = "x-from-v2"
	v2.EndUse()
	op("push v2", v2.PushImage())
	op("pull v1", v1.PullImage())
	op("use v1", v1.StartUse())
	d1.data["y"] = "y-from-v1"
	v1.EndUse()
	op("push v1", v1.PushImage())
	op("use v2 again", v2.StartUse())
	d2.data["x"] = "x-final"
	v2.EndUse()
	op("pull v1 again", v1.PullImage())
	op("push v2 again", v2.PushImage())
	op("final pull v2", v2.PullImage())
	op("final pull v1", v1.PullImage())

	var b strings.Builder
	b.WriteString("=== ops ===\n")
	b.WriteString(log.String())
	b.WriteString("=== trace ===\n")
	b.WriteString(rec.String())
	fmt.Fprintf(&b, "=== stats ===\nmessages=%d latency=%d dropped=%d clock=%d\n",
		net.Stats().Messages(), net.Stats().Latency(), net.Dropped(), clock.Now())
	for _, from := range []string{"h-dm", "h-v1", "h-v2"} {
		for _, to := range []string{"h-dm", "h-v1", "h-v2"} {
			if from != to {
				fmt.Fprintf(&b, "edge %s->%s = %d\n", from, to, net.Stats().Edge(from, to))
			}
		}
	}
	fmt.Fprintf(&b, "=== state ===\nprimary=%v\nv1=%v v2=%v\n", prim.data, d1.data, d2.data)
	return b.String()
}

// TestReplayDeterminism: two runs with the identical seed and drop
// schedule must produce byte-identical transcripts — operation outcomes,
// message-flow trace, traffic statistics, virtual time, and final state.
// This is the property the model checker's schedule replay and CI's fault
// soaks rest on.
func TestReplayDeterminism(t *testing.T) {
	drops := map[int]bool{7: true, 15: true, 22: true}
	a := runReplayScenario(t, 42, drops)
	b := runReplayScenario(t, 42, drops)
	if a != b {
		t.Fatalf("identical seed+schedule diverged:\n--- run A ---\n%s\n--- run B ---\n%s", a, b)
	}
	if !strings.Contains(a, "scheduled drop") && !strings.Contains(a, "ERR") && drops != nil {
		// The drops must actually have bitten something (retries may have
		// absorbed them, but the dropped counter still shows them).
		if !strings.Contains(a, "dropped=3") {
			t.Fatalf("drop schedule did not engage:\n%s", a)
		}
	}
}

// TestReplayScheduleMatters: a different drop schedule must change the
// transcript (the hook is actually gating deliveries, not just counting).
func TestReplayScheduleMatters(t *testing.T) {
	a := runReplayScenario(t, 42, map[int]bool{7: true, 15: true, 22: true})
	b := runReplayScenario(t, 42, nil)
	if a == b {
		t.Fatalf("drop schedule had no observable effect on the transcript")
	}
	if !strings.Contains(b, "dropped=0") {
		t.Fatalf("clean run still dropped messages:\n%s", b)
	}
}

// TestDeliveryHookCountsDropped: refused deliveries surface in Dropped()
// and fail the send at the caller.
func TestDeliveryHookCountsDropped(t *testing.T) {
	clock := vclock.NewSim()
	topo := LAN(1)
	topo.Place("a", "h1")
	topo.Place("b", "h2")
	net := New(clock, topo)
	net.Attach("b", ack)
	a, _ := net.Attach("a", ack)

	net.SetDeliveryHook(func(from, to string, m *wire.Message) error {
		return fmt.Errorf("refused")
	})
	if _, err := a.Call("b", &wire.Message{Type: wire.TPull}); err == nil {
		t.Fatal("hook-refused delivery should fail the call")
	}
	if net.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", net.Dropped())
	}
	net.SetDeliveryHook(nil)
	if _, err := a.Call("b", &wire.Message{Type: wire.TPull}); err != nil {
		t.Fatalf("after removing the hook: %v", err)
	}
}
