package cache_test

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// scopedKV is a kvView that scopes commits (image.Scoper): a key is in a
// set's scope when a property of the set has it as a member, and every
// key is in the empty set's. Only a directory over such a primary grants.
type scopedKV struct{ *kvView }

func (scopedKV) InScope(props property.Set, key string) bool {
	if props.IsEmpty() {
		return true
	}
	for _, p := range props.Properties() {
		if p.Domain.ContainsMember(key) {
			return true
		}
	}
	return false
}

// lease is wire.GrantLease on a wall clock (vclock.Real counts
// milliseconds).
const lease = time.Duration(wire.GrantLease) * time.Millisecond

// grantRig is a directory and the network its views attach to: in-process,
// or loopback TCP with every view on its own dialed connection. pulls
// counts the TPull requests the views send.
type grantRig struct {
	dm    *directory.Manager
	net   transport.Network
	clock vclock.Clock
	pulls atomic.Int64
}

func newGrantRig(t *testing.T, overTCP bool) *grantRig {
	t.Helper()
	r := &grantRig{clock: vclock.NewReal()}
	var dmNet, cmNet transport.Network
	if overTCP {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dmNet = transport.NewServerNetwork(ln, 5*time.Second)
		cmNet = transport.NewDialNetwork(ln.Addr().String(), 5*time.Second)
	} else {
		inproc := transport.NewInproc()
		dmNet, cmNet = inproc, inproc
	}
	var err error
	r.dm, err = directory.New("dm", scopedKV{newKV(nil)}, r.clock, dmNet, directory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.dm.Close() })
	r.net = &hookNet{Network: cmNet, hook: func(ep transport.Endpoint, to string, req *wire.Message) (*wire.Message, error) {
		if req.Type == wire.TPull {
			r.pulls.Add(1)
		}
		return ep.Call(to, req)
	}}
	return r
}

// view registers and initializes a weak view with the given properties.
func (r *grantRig) view(t *testing.T, name, props string) (*cache.Manager, *kvView) {
	t.Helper()
	v := newKV(nil)
	cm, err := cache.New(cache.Config{
		Name: name, Directory: "dm", Net: r.net, View: v,
		Props: property.MustSet(props), Mode: wire.Weak, Clock: r.clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cm.KillImage() })
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
	return cm, v
}

// write sets k in the view inside a use window and pushes it.
func write(t *testing.T, cm *cache.Manager, v *kvView, k, val string) {
	t.Helper()
	if err := cm.StartUse(); err != nil {
		t.Fatal(err)
	}
	v.Set(k, val)
	cm.EndUse()
	if err := cm.PushImage(); err != nil {
		t.Fatal(err)
	}
}

// granted pulls until the view holds a grant: its first pull after init
// is granted when it is alone in its group.
func granted(t *testing.T, cm *cache.Manager) {
	t.Helper()
	if err := cm.PullImage(); err != nil {
		t.Fatal(err)
	}
	if !cm.Granted() {
		t.Fatalf("%s: a pull alone in its group was not granted", cm.Name())
	}
}

// A view alone in its conflict group pulls once over the wire and is
// granted; its next pulls send nothing, and each raises seen to its last
// push ack. The directory moves its seen with its clean pushes.
func TestSoleViewPullsLocally(t *testing.T) {
	r := newGrantRig(t, false)
	cm, v := r.view(t, "h", "P={x}")
	granted(t, cm)
	sent := r.pulls.Load()
	for i := range 3 {
		write(t, cm, v, "x", string(rune('a'+i)))
		if err := cm.PullImage(); err != nil {
			t.Fatal(err)
		}
		if cm.Seen() != cm.Acked() || r.dm.Seen("h") != cm.Acked() {
			t.Fatalf("after a local pull: seen %d, directory's seen %d, want the ack v%d", cm.Seen(), r.dm.Seen("h"), cm.Acked())
		}
	}
	if got := r.pulls.Load() - sent; got != 0 {
		t.Fatalf("a granted view sent %d pulls", got)
	}
	if r.dm.Grants() != 1 {
		t.Fatalf("grants = %d, want 1", r.dm.Grants())
	}
}

// (a) A joiner's first commit is never hidden from the holder's next pull,
// whether it joins by registering or by widening its properties, on
// Inproc and over TCP. (fleccck's default bounds join by a revival.)
func TestJoinerCommitNeverHiddenFromHolder(t *testing.T) {
	joins := map[string]func(t *testing.T, r *grantRig) (*cache.Manager, *kvView){
		"register": func(t *testing.T, r *grantRig) (*cache.Manager, *kvView) {
			return r.view(t, "j", "P={x}")
		},
		"set-props": func(t *testing.T, r *grantRig) (*cache.Manager, *kvView) {
			cm, v := r.view(t, "j", "P={y}")
			granted(t, cm)
			if err := cm.SetProps(property.MustSet("P={x,y}")); err != nil {
				t.Fatal(err)
			}
			return cm, v
		},
	}
	for _, overTCP := range []bool{false, true} {
		for name, join := range joins {
			net := "inproc"
			if overTCP {
				net = "tcp"
			}
			t.Run(net+"/"+name, func(t *testing.T) {
				r := newGrantRig(t, overTCP)
				h, hv := r.view(t, "h", "P={x}")
				granted(t, h)
				j, jv := join(t, r)
				if h.Granted() || r.dm.Granted("h") {
					t.Fatal("the holder still holds its grant after a view joined its group")
				}
				write(t, j, jv, "x", "joiner")
				if err := h.PullImage(); err != nil {
					t.Fatal(err)
				}
				if got := hv.Get("x"); got != "joiner" {
					t.Fatalf("the holder's pull after the joiner's commit reads x=%q", got)
				}
				if r.dm.Revocations() != 1 {
					t.Fatalf("revocations = %d, want 1", r.dm.Revocations())
				}
			})
		}
	}
}

// A holder whose lease ran out before a view joined its group is a holder
// no more: the join has nothing to revoke, and the directory stops taking
// the holder's clean push for all there is to see.
func TestExpiredGrantEndsOnJoin(t *testing.T) {
	r := newGrantRig(t, false)
	h, hv := r.view(t, "h", "P={x}")
	granted(t, h)
	time.Sleep(lease)
	j, jv := r.view(t, "j", "P={x}")
	if r.dm.Granted("h") {
		t.Fatal("the directory still counts h as granted after a view joined its group")
	}
	write(t, j, jv, "x", "joiner")
	write(t, h, hv, "x", "holder")
	if seen := r.dm.Seen("h"); seen >= j.Acked() {
		t.Fatalf("the holder's push moved its seen to v%d, past the joiner's unseen commit v%d", seen, j.Acked())
	}
	if r.dm.Revocations() != 0 || r.dm.GrantLeaseWaits() != 0 {
		t.Fatalf("%d revocations, %d lease waits for a lease already over; want none", r.dm.Revocations(), r.dm.GrantLeaseWaits())
	}
}

// (b) A holder the directory cannot reach stops answering locally within
// the lease, and the joiner is not served before then: its registration
// waits the lease out.
func TestPartitionedHolderStopsWithinLease(t *testing.T) {
	inproc := transport.NewInproc()
	faulty := transport.NewFaulty(inproc, 1)
	clock := vclock.NewReal()
	dm, err := directory.New("dm", scopedKV{newKV(nil)}, clock, faulty, directory.Options{Retry: transport.RetryPolicy{Attempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer dm.Close()
	mk := func(name string) (*cache.Manager, *kvView) {
		v := newKV(nil)
		cm, err := cache.New(cache.Config{
			Name: name, Directory: "dm", Net: faulty, View: v,
			Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cm.InitImage(); err != nil {
			t.Fatal(err)
		}
		return cm, v
	}
	h, hv := mk("h")
	sent := time.Now()
	granted(t, h)
	faulty.Partition("dm", "h")
	j, jv := mk("j") // its registration waits the holder's lease out
	if served := time.Since(sent); served < lease {
		t.Fatalf("the joiner was served %v after the holder's grant, inside the %v lease", served, lease)
	}
	if h.Granted() {
		t.Fatal("the partitioned holder still answers pulls locally after its lease")
	}
	if dm.GrantLeaseWaits() != 1 {
		t.Fatalf("grant lease waits = %d, want 1", dm.GrantLeaseWaits())
	}
	write(t, j, jv, "x", "joiner")
	faulty.HealAll()
	if err := h.PullImage(); err != nil {
		t.Fatal(err)
	}
	if got := hv.Get("x"); got != "joiner" || dm.Phase("h") == directory.PhaseLost {
		t.Fatalf("the holder's pull after healing reads x=%q, phase %s", got, dm.Phase("h"))
	}
}

// (d) A reconnect, a set-props, a set-mode and a kill each drop the grant:
// the next pull asks the directory.
func TestReconfigurationDropsGrant(t *testing.T) {
	inproc := transport.NewInproc()
	faulty := transport.NewFaulty(inproc, 1)
	clock := vclock.NewReal()
	dm, err := directory.New("dm", scopedKV{newKV(nil)}, clock, inproc, directory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dm.Close()
	v := newKV(nil)
	cm, err := cache.New(cache.Config{
		Name: "h", Directory: "dm", Net: faulty, View: v,
		Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
		Reconnect: &cache.ReconnectPolicy{Sleep: func(time.Duration) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name string
		drop func() error
	}{
		{"set-mode", func() error { return cm.SetMode(wire.Strong) }},
		{"set-props", func() error { return cm.SetProps(property.MustSet("P={x,y}")) }},
		{"reconnect", func() error {
			if err := cm.StartUse(); err != nil {
				return err
			}
			v.Set("x", "v")
			cm.EndUse()
			faulty.DisconnectNext("h", "dm", 1)
			return cm.PushImage()
		}},
		{"kill", cm.KillImage},
	}
	for _, s := range steps {
		granted(t, cm)
		if err := s.drop(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if cm.Granted() {
			t.Fatalf("the view still holds its grant after %s", s.name)
		}
	}
}

// (e) A pull under a grant allocates nothing.
func TestLocalPullAllocs(t *testing.T) {
	r := newGrantRig(t, false)
	cm, _ := r.view(t, "h", "P={x}")
	granted(t, cm)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := cm.PullImage(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a local pull allocates %.1f times", allocs)
	}
	if !cm.Granted() {
		t.Fatal("the grant ran out during the measurement")
	}
}

// A directory over a primary that does not scope commits grants nothing:
// there a view of another conflict group commits every key its codec
// extracts, also the keys a holder holds, and a local pull would miss it.
func TestUnscopedPrimaryGrantsNothing(t *testing.T) {
	inproc := transport.NewInproc()
	clock := vclock.NewSim()
	dm, err := directory.New("dm", newKV(nil), clock, inproc, directory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dm.Close()
	mk := func(name, props string) (*cache.Manager, *kvView) {
		v := newKV(nil)
		cm, err := cache.New(cache.Config{
			Name: name, Directory: "dm", Net: inproc, View: v,
			Props: property.MustSet(props), Mode: wire.Weak, Clock: clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cm.KillImage() })
		if err := cm.InitImage(); err != nil {
			t.Fatal(err)
		}
		return cm, v
	}
	h, hv := mk("h", "P={x}")
	o, ov := mk("o", "P={y}")
	if err := h.PullImage(); err != nil {
		t.Fatal(err)
	}
	if h.Granted() || dm.Grants() != 0 {
		t.Fatalf("a view alone in its group was granted (%d grants) over an unscoped primary", dm.Grants())
	}
	write(t, o, ov, "x", "other")
	if err := h.PullImage(); err != nil {
		t.Fatal(err)
	}
	if got := hv.Get("x"); got != "other" {
		t.Fatalf("the sole view's pull after another group's commit reads x=%q", got)
	}
}
