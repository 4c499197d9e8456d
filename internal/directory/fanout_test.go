package directory_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"flecc/internal/directory"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// fakeView attaches a raw endpoint that answers the DM-initiated protocol
// (TInvalidate/TPull/TUpdate) with empty success replies, then registers
// and activates it as a weak view with the given props whose validity
// trigger never accepts the primary copy, so its every pull gathers.
func fakeView(t *testing.T, net transport.Network, name string, props property.Set) transport.Endpoint {
	t.Helper()
	ep, err := net.Attach(name, func(req *wire.Message) *wire.Message {
		switch req.Type {
		case wire.TInvalidate, wire.TPull:
			return &wire.Message{Type: wire.TImage}
		default:
			return &wire.Message{Type: wire.TAck}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply, err := ep.Call("dm", &wire.Message{Type: wire.TRegister, View: name, Mode: wire.Weak, Props: props, Trig: wire.Triggers{Validity: "false"}}); err != nil || reply.Type == wire.TErr {
		t.Fatalf("register %s: %v %v", name, err, reply)
	}
	if reply, err := ep.Call("dm", &wire.Message{Type: wire.TInit}); err != nil || reply.Type == wire.TErr {
		t.Fatalf("init %s: %v %v", name, err, reply)
	}
	return ep
}

// TestParallelFanoutBoundsSlowMember: one of 8 conflicting weak views is
// isolated (a crashed process); with FanOut=8 the other seven — each
// behind a 15ms link — are gathered concurrently, so the puller pays
// roughly one link delay instead of seven plus the dead view's retry
// budget. The dead member is evicted off the critical path.
func TestParallelFanoutBoundsSlowMember(t *testing.T) {
	f := transport.NewFaulty(transport.NewInproc(), 42)
	clock := vclock.NewSim()
	dm, err := directory.New("dm", newKV(), clock, f, directory.Options{
		FanOut: 8,
		// The dead view's retries must not sleep through real backoff.
		Retry: transport.RetryPolicy{Attempts: 3, Base: time.Microsecond, Sleep: func(time.Duration) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dm.Close()

	props := property.MustSet("P={x}")
	const members = 8
	const linkDelay = 15 * time.Millisecond
	for i := 0; i < members; i++ {
		name := fmt.Sprintf("v%d", i)
		fakeView(t, f, name, props)
		f.SetEdgeDelay("dm", name, linkDelay)
	}
	puller := fakeView(t, f, "puller", props)
	f.Isolate("v3") // one crashed member

	start := time.Now()
	reply, err := puller.Call("dm", &wire.Message{Type: wire.TPull})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	if reply.Type != wire.TImage {
		t.Fatalf("pull reply = %v", reply)
	}
	// Serial gathering would cost 7 live links x 15ms = 105ms (plus the
	// dead member's budget); concurrent gathering costs about one link.
	// The bound is generous for -race and loaded CI machines.
	if elapsed > 75*time.Millisecond {
		t.Fatalf("pull took %s; fan-out is not concurrent (serial would be ~%s)", elapsed, 7*linkDelay)
	}
	if n := dm.ViewsEvicted(); n != 1 {
		t.Fatalf("ViewsEvicted = %d, want 1", n)
	}
	if lost := dm.LostViews(); len(lost) != 1 || lost[0] != "v3" {
		t.Fatalf("lost views = %v, want [v3]", lost)
	}

	// The survivors are still active conflict-set members; a second pull
	// still gathers from all seven, again in one link delay.
	start = time.Now()
	if reply, err := puller.Call("dm", &wire.Message{Type: wire.TPull}); err != nil || reply.Type != wire.TImage {
		t.Fatalf("second pull: %v %v", err, reply)
	}
	if elapsed := time.Since(start); elapsed > 75*time.Millisecond {
		t.Fatalf("second pull took %s", elapsed)
	}
	if n := dm.ViewsEvicted(); n != 1 {
		t.Fatalf("eviction count moved to %d after healthy round", dm.ViewsEvicted())
	}
}

// TestFanoutSerialOrderAtOne: at FanOut=1 the targets are contacted one at
// a time in conflict-set order, every one of them, and a remote error from
// one target is the error the pull surfaces.
func TestFanoutSerialOrderAtOne(t *testing.T) {
	net := transport.NewInproc()
	clock := vclock.NewSim()
	dm, err := directory.New("dm", newKV(), clock, net, directory.Options{FanOut: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dm.Close()

	props := property.MustSet("P={x}")
	var contacted []string
	inFlight := false
	for _, name := range []string{"v0", "v1", "v2"} {
		name := name
		ep, err := net.Attach(name, func(req *wire.Message) *wire.Message {
			if req.Type == wire.TPull {
				// Unsynchronized on purpose: at width 1 these handlers run
				// on the puller's calling goroutine, one after another.
				if inFlight {
					t.Errorf("%s contacted while another target is in flight", name)
				}
				inFlight = true
				defer func() { inFlight = false }()
				contacted = append(contacted, name)
				if name == "v1" {
					return &wire.Message{Type: wire.TErr, Err: "view busy"}
				}
			}
			return &wire.Message{Type: wire.TImage}
		})
		if err != nil {
			t.Fatal(err)
		}
		if reply, err := ep.Call("dm", &wire.Message{Type: wire.TRegister, View: name, Mode: wire.Weak, Props: props}); err != nil || reply.Type == wire.TErr {
			t.Fatalf("register %s: %v %v", name, err, reply)
		}
		if reply, err := ep.Call("dm", &wire.Message{Type: wire.TInit}); err != nil || reply.Type == wire.TErr {
			t.Fatalf("init %s: %v %v", name, err, reply)
		}
	}
	puller := fakeView(t, net, "puller", props)

	reply, err := puller.Call("dm", &wire.Message{Type: wire.TPull})
	if err == nil || reply == nil || reply.Type != wire.TErr {
		t.Fatalf("pull should surface the gather error, got reply=%v err=%v", reply, err)
	}
	if !strings.Contains(reply.Err, "fetch from v1") || !strings.Contains(reply.Err, "view busy") {
		t.Fatalf("pull error = %q, want v1's", reply.Err)
	}
	// The round contacts every target; v1's remote error does not stop v2.
	if fmt.Sprint(contacted) != "[v0 v1 v2]" {
		t.Fatalf("contacted = %v, want [v0 v1 v2]", contacted)
	}
}
