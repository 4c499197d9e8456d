package cache_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/trigger"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

func TestEndUseWithoutStartIsNoop(t *testing.T) {
	r := newRig(t, directory.Options{})
	cm := r.view(t, "v1", "P={x}", wire.Weak, newKV(nil))
	cm.InitImage()
	cm.EndUse() // must not panic or count an op
	if cm.PendingOps() != 0 {
		t.Fatalf("pending = %d", cm.PendingOps())
	}
}

func TestStartUseBlocksSecondWindow(t *testing.T) {
	r := newRig(t, directory.Options{})
	cm := r.view(t, "v1", "P={x}", wire.Weak, newKV(nil))
	cm.InitImage()
	if err := cm.StartUse(); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	go func() {
		cm.StartUse()
		close(entered)
	}()
	select {
	case <-entered:
		t.Fatal("second StartUse should block while the window is open")
	case <-time.After(20 * time.Millisecond):
	}
	cm.EndUse()
	select {
	case <-entered:
	case <-time.After(time.Second):
		t.Fatal("second StartUse should proceed after EndUse")
	}
	cm.EndUse()
}

func TestUseAfterKillFails(t *testing.T) {
	r := newRig(t, directory.Options{})
	cm := r.view(t, "v1", "P={x}", wire.Weak, newKV(nil))
	cm.InitImage()
	if err := cm.KillImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm.StartUse(); err == nil {
		t.Fatal("StartUse after kill should fail")
	}
}

func TestSeenDoesNotAdvanceOnPush(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Weak, v1)
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, v2)
	cm1.InitImage()
	cm2.InitImage()
	// v2 commits something v1 hasn't seen.
	cm2.StartUse()
	v2.Set("other", "update")
	cm2.EndUse()
	cm2.PushImage()
	// v1 pushes its own change; its seen must stay below v2's commit so
	// the next pull still delivers it.
	cm1.StartUse()
	v1.Set("mine", "x")
	cm1.EndUse()
	if err := cm1.PushImage(); err != nil {
		t.Fatal(err)
	}
	if cm1.Seen() >= r.dmFor("v1").CurrentVersion() {
		t.Fatalf("seen = %d advanced past unobserved commits (current %d)",
			cm1.Seen(), r.dmFor("v1").CurrentVersion())
	}
	if err := cm1.PullImage(); err != nil {
		t.Fatal(err)
	}
	if v1.Get("other") != "update" {
		t.Fatal("pull after push should still deliver the missed commit")
	}
}

func TestTriggerBuiltinVariables(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	// Push when at least 2 ops are pending and 100ms passed since the
	// last push.
	cm := r.view(t, "v1", "P={x}", wire.Weak, v1, "pending >= 2 && sincePush >= 100")
	cm.InitImage()
	work := func() {
		cm.StartUse()
		v1.Set("k", "v")
		cm.EndUse()
	}
	work()
	r.clock.Advance(200)
	pushed, _, err := cm.EvaluateTriggers()
	if err != nil || pushed {
		t.Fatalf("1 pending: pushed=%v err=%v", pushed, err)
	}
	work()
	pushed, _, err = cm.EvaluateTriggers()
	if err != nil || !pushed {
		t.Fatalf("2 pending + time: pushed=%v err=%v", pushed, err)
	}
	// sincePush reset: immediate re-fire is suppressed even with pending.
	work()
	work()
	pushed, _, _ = cm.EvaluateTriggers()
	if pushed {
		t.Fatal("sincePush should gate an immediate re-push")
	}
}

func TestTriggerEvaluationSkippedWhileInUse(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	cm := r.view(t, "v1", "P={x}", wire.Weak, v1, "true")
	cm.InitImage()
	cm.StartUse()
	pushed, pulled, err := cm.EvaluateTriggers()
	if err != nil || pushed || pulled {
		t.Fatalf("in-use evaluation must be skipped: %v %v %v", pushed, pulled, err)
	}
	cm.EndUse()
}

func TestTriggerEvalErrorSurfaces(t *testing.T) {
	r := newRig(t, directory.Options{})
	cm := r.view(t, "v1", "P={x}", wire.Weak, newKV(nil), "bogusvar > 0")
	cm.InitImage()
	if _, _, err := cm.EvaluateTriggers(); err == nil {
		t.Fatal("undefined trigger variable should surface")
	}
}

func TestCustomVarsEnv(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	cm, err := cache.New(cache.Config{
		Name: "v1", Directory: "dm", Net: r.net, View: v1,
		Props: property.MustSet("P={x}"), Clock: r.clock,
		PushTrigger: "load > 5",
		Vars:        trigger.MapEnv{"load": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	cm.InitImage()
	cm.StartUse()
	v1.Set("k", "v")
	cm.EndUse()
	pushed, _, err := cm.EvaluateTriggers()
	if err != nil || !pushed {
		t.Fatalf("custom var trigger: pushed=%v err=%v", pushed, err)
	}
}

func TestBuiltinsShadowCustomVars(t *testing.T) {
	r := newRig(t, directory.Options{})
	cm, err := cache.New(cache.Config{
		Name: "v1", Directory: "dm", Net: r.net, View: newKV(nil),
		Props: property.MustSet("P={x}"), Clock: r.clock,
		PushTrigger: "pending > 100",
		// The view tries to export a conflicting "pending": the builtin
		// must win (it is protocol state, not app state).
		Vars: trigger.MapEnv{"pending": 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	cm.InitImage()
	pushed, _, err := cm.EvaluateTriggers()
	if err != nil || pushed {
		t.Fatalf("builtin pending (0) should shadow the custom value: %v %v", pushed, err)
	}
}

func TestStartTickerRealTime(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Weak, v1)
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, v2, "", "pending == 0")
	cm1.InitImage()
	cm2.InitImage()
	cm1.StartUse()
	v1.Set("k", "fresh")
	cm1.EndUse()
	if err := cm1.PushImage(); err != nil {
		t.Fatal(err)
	}

	stop := cm2.StartTicker(2*time.Millisecond, func(err error) { t.Error(err) })
	if stop == nil {
		t.Fatal("ticker should start")
	}
	deadline := time.Now().Add(2 * time.Second)
	for v2.Get("k") != "fresh" {
		if time.Now().After(deadline) {
			t.Fatal("ticker never pulled the update")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
}

func TestStartTickerRefusals(t *testing.T) {
	r := newRig(t, directory.Options{})
	cm := r.view(t, "v1", "P={x}", wire.Weak, newKV(nil)) // no triggers
	if cm.StartTicker(time.Millisecond, nil) != nil {
		t.Fatal("no triggers: ticker should refuse")
	}
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, newKV(nil), "pending > 0")
	if cm2.StartTicker(0, nil) != nil {
		t.Fatal("non-positive period should refuse")
	}
}

// brokenMerger wraps a kvView but fails Merge on demand.
type brokenMerger struct {
	*kvView
	fail bool
}

func (b *brokenMerger) Merge(img *image.Image, props property.Set) error {
	if b.fail {
		return errors.New("application merge failed")
	}
	return b.kvView.Merge(img, props)
}

func TestMergeErrorsSurface(t *testing.T) {
	r := newRig(t, directory.Options{})
	broken := &brokenMerger{kvView: newKV(nil)}
	cm, err := cache.New(cache.Config{
		Name: "v1", Directory: "dm", Net: r.net, View: broken,
		Props: property.MustSet("P={x}"), Clock: r.clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	broken.fail = true
	if err := cm.InitImage(); err == nil {
		t.Fatal("init should surface the application merge failure")
	}
	broken.fail = false
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
	// Pull path: put fresh data at the primary, then break the merger.
	v2 := newKV(nil)
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, v2)
	cm2.InitImage()
	cm2.StartUse()
	v2.Set("k", "update")
	cm2.EndUse()
	if err := cm2.PushImage(); err != nil {
		t.Fatal(err)
	}
	broken.fail = true
	if err := cm.PullImage(); err == nil {
		t.Fatal("pull should surface the application merge failure")
	}
	// The failed pull must not have advanced seen (no silent data loss).
	broken.fail = false
	if err := cm.PullImage(); err != nil {
		t.Fatal(err)
	}
	if broken.Get("k") != "update" {
		t.Fatal("retried pull should deliver the update")
	}
}

// flakyExtractor fails the view's next extract — the whole-view one, or
// the keyed one when keyed is set — once.
type flakyExtractor struct {
	image.Codec
	keyed image.KeyedExtractor
	fail  *bool
}

func (f flakyExtractor) tripped() error {
	if !*f.fail {
		return nil
	}
	*f.fail = false
	return errors.New("application extract failed")
}

func (f flakyExtractor) Extract(props property.Set) (*image.Image, error) {
	if err := f.tripped(); err != nil {
		return nil, err
	}
	return f.Codec.Extract(props)
}

type flakyKeyedExtractor struct{ flakyExtractor }

func (f flakyKeyedExtractor) ExtractKeys(props property.Set, keys []string) (*image.Image, error) {
	if err := f.tripped(); err != nil {
		return nil, err
	}
	return f.keyed.ExtractKeys(props, keys)
}

// A pull reply is filtered against the view's current values so pending
// local changes survive it. When reading those values fails the pull must
// fail too: merging the unfiltered reply would overwrite the pending
// change with the primary's value — a silent lost update.
func TestPullSurfacesViewExtractError(t *testing.T) {
	for _, keyed := range []bool{false, true} {
		r := newRig(t, directory.Options{})
		kv := newKV(nil)
		fail := false
		flaky := flakyExtractor{Codec: kv, keyed: keyedKV{kv}, fail: &fail}
		var codec image.Codec = flaky
		if keyed {
			codec = flakyKeyedExtractor{flaky}
		}
		cm, err := cache.New(cache.Config{
			Name: "v1", Directory: "dm", Net: r.net, View: codec,
			Props: property.MustSet("P={x}"), Clock: r.clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cm.InitImage(); err != nil {
			t.Fatal(err)
		}
		// v1 holds a pending local change; v2 commits a different value.
		cm.StartUse()
		kv.Set("k", "local")
		cm.EndUse()
		v2 := newKV(nil)
		cm2 := r.view(t, "v2", "P={x}", wire.Weak, v2)
		cm2.InitImage()
		cm2.StartUse()
		v2.Set("k", "remote")
		cm2.EndUse()
		if err := cm2.PushImage(); err != nil {
			t.Fatal(err)
		}

		fail = true
		if err := cm.PullImage(); err == nil {
			t.Fatalf("keyed=%t: pull should surface the application extract failure", keyed)
		}
		if fail {
			t.Fatalf("keyed=%t: the pull did not read the view through the expected extract", keyed)
		}
		if got := kv.Get("k"); got != "local" {
			t.Fatalf("keyed=%t: failed pull overwrote the pending change: k = %q", keyed, got)
		}
		if err := cm.PullImage(); err != nil {
			t.Fatal(err)
		}
		if got := kv.Get("k"); got != "local" {
			t.Fatalf("keyed=%t: retried pull overwrote the pending change: k = %q", keyed, got)
		}
		if err := cm.PushImage(); err != nil {
			t.Fatal(err)
		}
		if got := r.prim.Get("k"); got != "local" {
			t.Fatalf("keyed=%t: the push after the failed pull did not carry the pending change: primary k = %q", keyed, got)
		}
	}
}

// keyedKV gives a kvView the keyed-extract capability.
type keyedKV struct{ *kvView }

func (v keyedKV) ExtractKeys(props property.Set, keys []string) (*image.Image, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	img := image.New()
	for _, k := range keys {
		if val, ok := v.data[k]; ok {
			img.Put(image.Entry{Key: k, Value: []byte(val)})
		}
	}
	return img, nil
}

func TestAcquireAgainstPlainDM(t *testing.T) {
	r := newRig(t, directory.Options{})
	cm := r.view(t, "v1", "P={x}", wire.Weak, newKV(nil))
	if err := cm.Acquire(); err == nil {
		t.Fatal("plain Flecc DM should reject token messages")
	}
	if err := cm.Release(); err == nil {
		t.Fatal("plain Flecc DM should reject token messages")
	}
}

func TestDoubleKill(t *testing.T) {
	r := newRig(t, directory.Options{})
	cm := r.view(t, "v1", "P={x}", wire.Weak, newKV(nil))
	cm.InitImage()
	if err := cm.KillImage(); err != nil {
		t.Fatal(err)
	}
	// Second kill fails at the transport (endpoint closed) but must not
	// panic.
	if err := cm.KillImage(); err == nil {
		t.Fatal("second kill should report the closed endpoint")
	}
}

func TestInvalidateBeforeInit(t *testing.T) {
	r := newRig(t, directory.Options{})
	// A registered-but-uninitialized view being invalidated must reply
	// cleanly with an empty image.
	v1 := newKV(nil)
	v2 := newKV(nil)
	_ = r.view(t, "v1", "P={x}", wire.Weak, v1) // never initialized
	// A stale active mark: the directory serves an init in v1's name (a
	// routed envelope speaks for a view) that v1's cache manager never
	// sent.
	dm := r.dmFor("v1")
	probe, err := r.net.Attach("probe", func(*wire.Message) *wire.Message { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	routedInit := &wire.Message{Type: wire.TRouted, View: "v1", Blob: wire.Encode(&wire.Message{Type: wire.TInit})}
	if reply, err := probe.Call(dm.Name(), routedInit); err != nil || reply.Type == wire.TErr {
		t.Fatalf("init in v1's name: %v %v", err, reply)
	}
	if got := dm.Phase("v1"); got != directory.PhaseActive {
		t.Fatalf("v1 is %s, want active", got)
	}
	cm2 := r.view(t, "v2", "P={x}", wire.Strong, v2)
	cm2.InitImage()
	r.stats.Reset()
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if n := r.stats.ByType()[wire.TInvalidate]; n != 1 || r.stats.Edge("dm", "v1") != 1 {
		t.Fatalf("%d invalidations sent, %d messages dm->v1; want v1's one", n, r.stats.Edge("dm", "v1"))
	}
	if got := dm.Phase("v1"); got != directory.PhaseInactive {
		t.Fatalf("v1 is %s after its invalidation, want inactive", got)
	}
}

func TestConcurrentPushersManyViews(t *testing.T) {
	r := newRig(t, directory.Options{})
	const n = 6
	cms := make([]*cache.Manager, n)
	views := make([]*kvView, n)
	for i := 0; i < n; i++ {
		views[i] = newKV(nil)
		cms[i] = r.view(t, string(rune('a'+i)), "P={x}", wire.Weak, views[i])
		if err := cms[i].InitImage(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := cms[i].StartUse(); err != nil {
					errs <- err
					return
				}
				views[i].Set("k"+string(rune('a'+i)), "v")
				cms[i].EndUse()
				if err := cms[i].PushImage(); err != nil {
					errs <- err
					return
				}
				if err := cms[i].PullImage(); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Everyone's key made it to the primary.
	for i := 0; i < n; i++ {
		if r.prim.Get("k"+string(rune('a'+i))) != "v" {
			t.Fatalf("key %d missing at primary", i)
		}
	}
}

func TestErrNotInitializedSentinel(t *testing.T) {
	if !errors.Is(cache.ErrNotInitialized, cache.ErrNotInitialized) {
		t.Fatal("sentinel identity")
	}
	_ = vclock.Time(0) // keep import for the helper package shape
}
