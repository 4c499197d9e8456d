package cache_test

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
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

// typeCounter counts wire messages by type; driven single-goroutine over
// Inproc, so no locking is needed.
type typeCounter struct{ counts map[wire.Type]int }

func (c *typeCounter) OnMessage(from, to string, m *wire.Message) {
	if c.counts == nil {
		c.counts = map[wire.Type]int{}
	}
	c.counts[m.Type]++
}

// Adjacent asynchronous pushes must coalesce: N writes each followed by a
// PushImageAsync join one buffered round, and flushing costs exactly one
// TPush on the wire, carrying all N keys.
func TestPushAsyncCoalescesIntoOneRound(t *testing.T) {
	clock := vclock.NewSim()
	inproc := transport.NewInproc()
	obs := &typeCounter{}
	inproc.SetObserver(obs)

	prim := newKV(nil)
	dm, err := directory.New("db", prim, clock, inproc, directory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dm.Close()

	v := newKV(nil)
	cm, err := cache.New(cache.Config{
		Name: "v1", Directory: "db", Net: inproc, View: v,
		Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
		ManualFlush: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}

	const n = 6
	var fut *cache.PushFuture
	for i := 0; i < n; i++ {
		if err := cm.StartUse(); err != nil {
			t.Fatal(err)
		}
		v.Set(fmt.Sprintf("k%d", i), fmt.Sprintf("val%d", i))
		cm.EndUse()
		f := cm.PushImageAsync()
		if fut != nil && f != fut {
			t.Fatalf("write %d started a new round; adjacent pushes must coalesce", i)
		}
		fut = f
	}
	if !cm.PushPending() {
		t.Fatal("a buffered round should be pending before Flush")
	}
	if got := cm.PendingOps(); got != n {
		t.Fatalf("PendingOps = %d before flush, want %d (buffered ops still count)", got, n)
	}

	before := obs.counts[wire.TPush]
	if err := cm.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := obs.counts[wire.TPush] - before; got != 1 {
		t.Fatalf("%d writes cost %d TPush rounds, want exactly 1 (coalescing broken)", n, got)
	}
	if cm.PushPending() {
		t.Fatal("no round should remain after Flush")
	}
	if got := cm.PendingOps(); got != 0 {
		t.Fatalf("PendingOps = %d after flush, want 0", got)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%d", i)
		if got, want := prim.Get(k), fmt.Sprintf("val%d", i); got != want {
			t.Fatalf("primary %s = %q, want %q", k, got, want)
		}
	}
	// An async push on a clean view resolves without touching the wire.
	before = obs.counts[wire.TPush]
	clean := cm.PushImageAsync()
	if err := cm.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := clean.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := obs.counts[wire.TPush] - before; got != 0 {
		t.Fatalf("clean-view async push cost %d TPush rounds, want 0", got)
	}
}

// A session death under an in-flight async push must resolve the future
// with the typed ErrSessionReset — not hang it, not lose the write: the
// delta stays pending locally and the next synchronous push (which runs
// the reconnect cycle) delivers it.
func TestPushAsyncSessionResetUnderFaults(t *testing.T) {
	clock := vclock.NewSim()
	faulty := transport.NewFaulty(transport.NewInproc(), 11)
	noSleep := func(time.Duration) {}

	prim := newKV(nil)
	dm, err := directory.New("db", prim, clock, faulty, directory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dm.Close()

	v := newKV(nil)
	cm, err := cache.New(cache.Config{
		Name: "v1", Directory: "db", Net: faulty, View: v,
		Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
		ManualFlush: true,
		Reconnect: &cache.ReconnectPolicy{
			Attempts: 4, Base: time.Microsecond, Max: time.Microsecond, Sleep: noSleep,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}

	// Round 1: the dispatch itself hits a dead wire.
	if err := cm.StartUse(); err != nil {
		t.Fatal(err)
	}
	v.Set("a", "first")
	cm.EndUse()
	fut := cm.PushImageAsync()
	faulty.DisconnectNext("v1", "db", 1)
	if err := cm.Flush(); !errors.Is(err, cache.ErrSessionReset) {
		t.Fatalf("Flush over dead wire: err = %v, want ErrSessionReset in chain", err)
	}
	if err := fut.Wait(); !errors.Is(err, cache.ErrSessionReset) {
		t.Fatalf("future: err = %v, want ErrSessionReset in chain", err)
	}
	// A second Wait reports the same resolution (futures are sticky).
	if err := fut.Wait(); !errors.Is(err, cache.ErrSessionReset) {
		t.Fatalf("re-Wait: err = %v, want the same ErrSessionReset", err)
	}

	// The write survived the reset: the synchronous push re-extracts it and
	// the reconnect machinery heals the endpoint.
	if got := cm.PendingOps(); got != 1 {
		t.Fatalf("PendingOps = %d after reset, want 1 (write must stay pending)", got)
	}
	if err := cm.PushImage(); err != nil {
		t.Fatalf("sync push after reset: %v", err)
	}
	if got := prim.Get("a"); got != "first" {
		t.Fatalf("primary a = %q after recovery, want %q", got, "first")
	}

	// Round 2: a reconnect cycle triggered by an unrelated synchronous call
	// must also fail a buffered round — the session it was issued on is
	// being replaced — instead of letting it straddle two connections.
	if err := cm.StartUse(); err != nil {
		t.Fatal(err)
	}
	v.Set("b", "second")
	cm.EndUse()
	fut = cm.PushImageAsync()
	faulty.DisconnectNext("v1", "db", 1)
	if err := cm.PullImage(); err != nil {
		t.Fatalf("pull through reconnect: %v", err)
	}
	if err := fut.Wait(); !errors.Is(err, cache.ErrSessionReset) {
		t.Fatalf("buffered round across reconnect: err = %v, want ErrSessionReset", err)
	}
	if err := cm.PushImage(); err != nil {
		t.Fatal(err)
	}
	if got := prim.Get("b"); got != "second" {
		t.Fatalf("primary b = %q after second recovery, want %q", got, "second")
	}
}

// pushedKeys counts, per key, the entries TPush requests carry to the
// directory. Pushes arrive from several goroutines, hence the lock.
type pushedKeys struct {
	mu sync.Mutex
	n  map[string]int
}

func (p *pushedKeys) OnMessage(from, to string, m *wire.Message) {
	if m.Type != wire.TPush || m.Img == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range m.Img.Entries {
		p.n[e.Key]++
	}
}

// Synchronous pushes from several goroutines share the session's rounds:
// each write reaches the directory in exactly one TPush, and the update log
// counts each use window once. Repeated, because a push path that re-sends
// an unacknowledged delta only duplicates writes under some interleavings.
func TestConcurrentPushesCommitEachWriteOnce(t *testing.T) {
	const writers, repeats = 8, 30
	for rep := 0; rep < repeats; rep++ {
		clock := vclock.NewSim()
		inproc := transport.NewInproc()
		pushed := &pushedKeys{n: map[string]int{}}
		inproc.SetObserver(pushed)
		prim := newKV(nil)
		dm, err := directory.New("db", prim, clock, inproc, directory.Options{})
		if err != nil {
			t.Fatal(err)
		}
		v := newKV(nil)
		cm, err := cache.New(cache.Config{
			Name: "v1", Directory: "db", Net: inproc, View: v,
			Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cm.InitImage(); err != nil {
			t.Fatal(err)
		}

		errs := make(chan error, writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(k string) {
				defer wg.Done()
				if err := cm.StartUse(); err != nil {
					errs <- err
					return
				}
				v.Set(k, k)
				cm.EndUse()
				errs <- cm.PushImage()
			}(fmt.Sprintf("k%d", w))
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("repeat %d: %v", rep, err)
			}
		}

		ops := 0
		for _, rec := range dm.Store().Log() {
			ops += rec.Ops
		}
		if ops != writers {
			t.Fatalf("repeat %d: the log holds %d ops for %d writes", rep, ops, writers)
		}
		if got := cm.PendingOps(); got != 0 {
			t.Fatalf("repeat %d: PendingOps = %d after every push returned, want 0", rep, got)
		}
		for w := 0; w < writers; w++ {
			k := fmt.Sprintf("k%d", w)
			if n := pushed.n[k]; n != 1 {
				t.Fatalf("repeat %d: %s went out in %d pushes, want 1", rep, k, n)
			}
			if got := prim.Get(k); got != k {
				t.Fatalf("repeat %d: primary %s = %q, want %q", rep, k, got, k)
			}
		}
		dm.Close()
	}
}

// parkFirstPush returns a hook that holds the first TPush until release
// closes, after closing parked, and then ends it with end. Every other
// call goes through.
func parkFirstPush(parked, release chan struct{}, end callHook) callHook {
	var first atomic.Bool
	return func(ep transport.Endpoint, to string, req *wire.Message) (*wire.Message, error) {
		if req.Type != wire.TPush || !first.CompareAndSwap(false, true) {
			return ep.Call(to, req)
		}
		close(parked)
		<-release
		return end(ep, to, req)
	}
}

// sessionRig is a directory and one auto-dispatching weak view on Inproc,
// the view's calls passing through hook.
func sessionRig(t *testing.T, hook callHook) (*kvView, *kvView, *cache.Manager) {
	t.Helper()
	clock := vclock.NewSim()
	inproc := transport.NewInproc()
	prim := newKV(nil)
	dm, err := directory.New("db", prim, clock, inproc, directory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dm.Close() })
	v := newKV(nil)
	cm, err := cache.New(cache.Config{
		Name: "v1", Directory: "db", Net: &hookNet{Network: inproc, hook: hook}, View: v,
		Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
	return prim, v, cm
}

func writeKey(t *testing.T, cm *cache.Manager, v *kvView, k string) {
	t.Helper()
	if err := cm.StartUse(); err != nil {
		t.Fatal(err)
	}
	v.Set(k, k)
	cm.EndUse()
}

// A round buffered behind a synchronous push goes out when that push
// returns, with no Flush: the goroutine PushImageAsync starts outlives the
// round the synchronous caller has on the wire.
func TestAsyncRoundBehindSyncPushDispatches(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	prim, v, cm := sessionRig(t, parkFirstPush(parked, release, transport.Endpoint.Call))

	writeKey(t, cm, v, "a")
	pushed := make(chan error, 1)
	go func() { pushed <- cm.PushImage() }()
	<-parked
	writeKey(t, cm, v, "b")
	fut := cm.PushImageAsync()
	time.Sleep(20 * time.Millisecond) // the async round's goroutine runs while "a" is out
	close(release)
	if err := <-pushed; err != nil {
		t.Fatal(err)
	}
	select {
	case <-fut.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the round buffered behind the synchronous push never went out")
	}
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b"} {
		if got := prim.Get(k); got != k {
			t.Fatalf("primary %s = %q, want %q", k, got, k)
		}
	}
}

// Close delivers writes whose round died with its session: a final push
// that fails leaves the view open, and Close called again pushes again.
func TestCloseAfterSessionResetDeliversWrites(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	lose := func(transport.Endpoint, string, *wire.Message) (*wire.Message, error) {
		return nil, errors.New("push lost")
	}
	prim, v, cm := sessionRig(t, parkFirstPush(parked, release, lose))

	writeKey(t, cm, v, "a")
	fut := cm.PushImageAsync()
	<-parked
	writeKey(t, cm, v, "b")
	closed := make(chan error, 1)
	go func() { closed <- cm.KillImage() }()
	time.Sleep(20 * time.Millisecond) // Close joins the session while "a" is out
	close(release)
	if err := fut.Wait(); !errors.Is(err, cache.ErrSessionReset) || !transport.IsTransportError(err) {
		t.Fatalf("round lost with its session resolved %v, want a transport-level ErrSessionReset", err)
	}
	if err := <-closed; err != nil {
		if err := cm.KillImage(); err != nil {
			t.Fatalf("Close after a failed final push: %v", err)
		}
	}
	for _, k := range []string{"a", "b"} {
		if got := prim.Get(k); got != k {
			t.Fatalf("primary %s = %q after Close, want %q", k, got, k)
		}
	}
}

// KillImage waits like PushImage for a use window another goroutine has
// open, even when nothing else is pending: the window's writes are part
// of the final push, not dropped with the view.
func TestKillImageWaitsForOpenWindow(t *testing.T) {
	prim, v, cm := sessionRig(t, transport.Endpoint.Call)
	if err := cm.StartUse(); err != nil {
		t.Fatal(err)
	}
	v.Set("k", "k")
	killed := make(chan error, 1)
	go func() { killed <- cm.KillImage() }()
	select {
	case err := <-killed:
		t.Fatalf("KillImage returned %v while a use window was open", err)
	case <-time.After(50 * time.Millisecond):
	}
	cm.EndUse()
	select {
	case err := <-killed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("KillImage still blocked after the window closed")
	}
	if got := prim.Get("k"); got != "k" {
		t.Fatalf("primary k = %q after KillImage, want the window's write", got)
	}
}

// Asynchronous pushes over real TCP: the auto-dispatch pump, its blocking
// Call on the pumping goroutine, and the flush rules all run under the
// race detector here.
func TestPushAsyncOverTCPWithWindow(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	clock := vclock.NewReal()
	snet := transport.NewServerNetwork(ln, 5*time.Second)
	prim := newKV(nil)
	dm, err := directory.New("dm", prim, clock, snet, directory.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dm.Close()

	dnet := transport.NewDialNetwork(ln.Addr().String(), 5*time.Second)
	v := newKV(nil)
	cm, err := cache.New(cache.Config{
		Name: "v1", Directory: "dm", Net: dnet, View: v,
		Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}

	const writes = 40
	futs := make([]*cache.PushFuture, 0, writes)
	for i := 0; i < writes; i++ {
		if err := cm.StartUse(); err != nil {
			t.Fatal(err)
		}
		v.Set(fmt.Sprintf("k%d", i%8), fmt.Sprintf("val%d", i))
		cm.EndUse()
		futs = append(futs, cm.PushImageAsync())
	}
	if err := cm.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		if err := f.Wait(); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
	// KillImage flushes and delivers whatever is left; the primary must hold
	// the last value written to every key.
	if err := cm.KillImage(); err != nil {
		t.Fatal(err)
	}
	for i := writes - 8; i < writes; i++ {
		k := fmt.Sprintf("k%d", i%8)
		if got, want := prim.Get(k), fmt.Sprintf("val%d", i); got != want {
			t.Fatalf("primary %s = %q, want %q", k, got, want)
		}
	}
}

// An asynchronous push round is bounded by the client's call timeout like
// every other call: a DM that accepts the TPush and never answers turns
// the round into a transport failure, so Flush resolves ErrSessionReset
// instead of blocking forever, and the write stays pending locally.
func TestPushAsyncHonoursCallTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	srv := transport.Serve(ln, "dm", func(req *wire.Message) *wire.Message {
		if req.Type == wire.TPush {
			<-release // parked: the DM accepted the push and never answers
		}
		return &wire.Message{Type: wire.TAck}
	}, 5*time.Second)
	// Close waits for in-flight handlers, so release the parked one first.
	defer srv.Close()
	defer close(release)

	dnet := transport.NewDialNetwork(ln.Addr().String(), 200*time.Millisecond)
	v := newKV(nil)
	cm, err := cache.New(cache.Config{
		Name: "v1", Directory: "dm", Net: dnet, View: v,
		Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: vclock.NewReal(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm.StartUse(); err != nil {
		t.Fatal(err)
	}
	v.Set("a", "1")
	cm.EndUse()
	cm.PushImageAsync()

	flushed := make(chan error, 1)
	go func() { flushed <- cm.Flush() }()
	select {
	case err := <-flushed:
		if !errors.Is(err, cache.ErrSessionReset) {
			t.Fatalf("Flush: err = %v, want ErrSessionReset in chain", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Flush still blocked 3s after the 200ms call timeout")
	}
	if got := cm.PendingOps(); got != 1 {
		t.Fatalf("PendingOps = %d after the timed-out round, want 1 (write must stay pending)", got)
	}
}

// versionWatch records, per key, the highest DM-stamped entry version seen
// in db-originated messages, and the first regression it observes. Driven
// single-goroutine over Inproc, so no locking is needed.
type versionWatch struct {
	high      map[string]vclock.Version
	violation string
}

func (w *versionWatch) OnMessage(from, to string, m *wire.Message) {
	if from != "db" || m.Img == nil {
		return
	}
	if w.high == nil {
		w.high = map[string]vclock.Version{}
	}
	for _, e := range m.Img.Entries {
		k := e.Key
		if e.Version < w.high[k] {
			if w.violation == "" {
				w.violation = fmt.Sprintf("key %s went v%d after v%d (db->%s %s)",
					k, e.Version, w.high[k], to, m.Type)
			}
			continue
		}
		w.high[k] = e.Version
	}
}

// TestSoakPipelinedWindow8 is the pipelined fault soak: three views with
// asynchronous push sessions over a seeded Faulty transport, async pushes and
// flushes interleaved with pulls, mode flips, and one-shot disconnects
// that force reconnect cycles. Invariants:
//
//   - no future hangs, and every failed round fails with ErrSessionReset
//     (or a reconnect-exhaustion error on sync paths);
//   - per-key versions in each view's synchronized snapshot never move
//     backwards;
//   - two runs at the same seed produce byte-identical outcomes.
//
// Driven from one goroutine over the synchronous Inproc transport with
// ManualFlush sessions, so the seeded fault stream is consumed in a fixed
// order and the run is reproducible.
func TestSoakPipelinedWindow8(t *testing.T) {
	run := func(seed int64) string {
		r := rand.New(rand.NewSource(seed))
		clock := vclock.NewSim()
		faulty := transport.NewFaulty(transport.NewInproc(), seed)
		noSleep := func(time.Duration) {}

		prim := newKV(nil)
		dm, err := directory.New("db", prim, clock, faulty, directory.Options{
			Retry: transport.RetryPolicy{Attempts: 3, Base: time.Microsecond, Sleep: noSleep},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer dm.Close()

		names := []string{"v1", "v2", "v3"}
		cms := map[string]*cache.Manager{}
		views := map[string]*kvView{}
		for _, n := range names {
			v := newKV(nil)
			cm, err := cache.New(cache.Config{
				Name: n, Directory: "db", Net: faulty, View: v,
				Props: property.MustSet("P={x}"), Mode: wire.Weak, Clock: clock,
				ManualFlush: true,
				Reconnect: &cache.ReconnectPolicy{
					Attempts: 4, Base: time.Microsecond, Max: time.Microsecond, Sleep: noSleep,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := cm.InitImage(); err != nil {
				t.Fatal(err)
			}
			cms[n], views[n] = cm, v
		}

		// Per-key version monotonicity, checked at the wire: every image
		// entry the DM sends (init/pull replies, push-ack winners, updates)
		// carries a DM-stamped version, and for a given key that version
		// must never move backwards across the whole run. (The CM's own
		// pushes are excluded: their entries deliberately carry the old
		// base version for conflict detection.)
		watch := &versionWatch{}
		faulty.SetObserver(watch)
		faulty.SetDropRate(faultDropRate())

		var resets, pushErrs, pullErrs, flushes int
		futs := map[string][]*cache.PushFuture{}
		const steps = 500
		for i := 0; i < steps; i++ {
			clock.Advance(1)
			n := names[r.Intn(len(names))]
			cm, v := cms[n], views[n]
			switch r.Intn(10) {
			case 0, 1, 2, 3: // write + async push
				v.Set(fmt.Sprintf("%s-k%d", n, r.Intn(12)), fmt.Sprintf("s%d", i))
				futs[n] = append(futs[n], cm.PushImageAsync())
			case 4, 5: // flush the session
				flushes++
				if err := cm.Flush(); err != nil {
					if !errors.Is(err, cache.ErrSessionReset) {
						t.Fatalf("step %d: flush %s: %v (want ErrSessionReset for failed rounds)", i, n, err)
					}
					resets++
				}
				for _, f := range futs[n] {
					select {
					case <-f.Done():
					default:
						t.Fatalf("step %d: %s has an unresolved future after Flush", i, n)
					}
				}
				futs[n] = futs[n][:0]
			case 6: // pull
				if err := cm.PullImage(); err != nil {
					pullErrs++
				}
			case 7: // sync push (joins the buffered round)
				if err := cm.PushImage(); err != nil {
					pushErrs++
				}
			case 8: // mode flip (flushes the session first)
				mode := wire.Weak
				if r.Intn(2) == 0 {
					mode = wire.Strong
				}
				if err := cm.SetMode(mode); err != nil {
					pushErrs++
				}
			case 9: // kill the wire under the next call: forces a reconnect
				faulty.DisconnectNext(n, "db", 1+r.Intn(2))
			}
		}

		// Quiesce: stop injecting, flush and drain everything, converge.
		faulty.SetDropRate(0)
		for _, n := range names {
			if err := cms[n].PushImage(); err != nil {
				t.Fatalf("final push %s: %v", n, err)
			}
		}
		for _, n := range names {
			if err := cms[n].PullImage(); err != nil {
				t.Fatalf("final pull %s: %v", n, err)
			}
			if cms[n].PushPending() {
				t.Fatalf("%s still has a pending round after quiesce", n)
			}
		}
		if watch.violation != "" {
			t.Fatalf("per-key version monotonicity violated: %s", watch.violation)
		}
		if len(watch.high) == 0 {
			t.Fatal("version watch saw no DM-stamped entries; the soak exercised nothing")
		}

		// Fingerprint the outcome: primary state plus every counter that a
		// scheduling or fault-stream divergence would disturb.
		img, err := prim.Extract(property.MustSet("P={x}"))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, e := range img.Entries {
			fmt.Fprintf(&b, "%s=%s;", e.Key, e.Value)
		}
		fmt.Fprintf(&b, "|injected=%d|resets=%d|pushErrs=%d|pullErrs=%d|flushes=%d|version=%d",
			faulty.Injected(), resets, pushErrs, pullErrs, flushes, dm.CurrentVersion())
		return b.String()
	}

	a := run(42)
	b := run(42)
	if a != b {
		t.Fatalf("identically seeded pipelined soaks diverged:\n  run 1: %s\n  run 2: %s", a, b)
	}
	if strings.Contains(a, "|injected=0|") {
		t.Fatal("soak injected no faults; nothing was exercised")
	}
	if c := run(43); c == a {
		t.Logf("note: different seed matched outcome (possible but unlikely): %s", c)
	}
	t.Logf("soak outcome: %s", a)
}
