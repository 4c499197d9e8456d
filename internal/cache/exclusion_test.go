package cache_test

import (
	"sync"
	"testing"
	"time"

	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/wire"
)

// checkExclusion fails unless the directory counts every view whose cache
// manager holds a valid image as active, and no two of the strong views
// hold valid images at once: one-copy serializability for strong mode.
func checkExclusion(t *testing.T, r *rig, cms map[string]*cache.Manager, strong ...string) {
	t.Helper()
	for name, cm := range cms {
		if ph := r.dmFor(name).Phase(name); cm.Valid() && ph != directory.PhaseActive {
			t.Errorf("%s holds a valid image but the directory has it %s", name, ph)
		}
	}
	var valid []string
	for _, name := range strong {
		if cms[name].Valid() {
			valid = append(valid, name)
		}
	}
	if len(valid) > 1 {
		t.Errorf("strong views %v all hold valid images; active views %v", valid, r.activeViews())
	}
}

// TestConcurrentStrongPullsExclusive (check-then-act in handlePull): two
// strong pulls of one group both find the weak holder active, both wait on
// its open use window, and both are answered once it closes. Each built
// its invalidation set before the other was served, so only a re-check
// under the group's lane keeps the second from being granted beside the
// first, which goes round again: the directory counts a claim retry.
func TestConcurrentStrongPullsExclusive(t *testing.T) {
	r := newRig(t, directory.Options{})
	cms := map[string]*cache.Manager{
		"a": r.view(t, "a", "P={x}", wire.Strong, newKV(nil)),
		"b": r.view(t, "b", "P={x}", wire.Strong, newKV(nil)),
		"w": r.view(t, "w", "P={x}", wire.Weak, newKV(nil)),
	}
	for _, name := range []string{"a", "b", "w"} {
		if err := cms[name].InitImage(); err != nil {
			t.Fatal(err)
		}
	}
	w := cms["w"]
	// Init activates without invalidating; w's pull stops both strong views.
	if err := w.PullImage(); err != nil {
		t.Fatal(err)
	}
	if active := r.activeViews(); len(active) != 1 || active[0] != "w" {
		t.Fatalf("active views after w's pull = %v, want [w]", active)
	}
	if err := w.StartUse(); err != nil {
		t.Fatal(err)
	}
	invalidates := make(chan struct{}, 2) // one per strong pull; later sends are dropped
	r.net.SetBeforeDeliver(func(from, to string, m *wire.Message, _ int) {
		if to == "w" && m.Type == wire.TInvalidate {
			select {
			case invalidates <- struct{}{}:
			default:
			}
		}
	})
	errs := make(chan error, 2)
	for _, name := range []string{"a", "b"} {
		cm := cms[name]
		go func() { errs <- cm.PullImage() }()
	}
	// Both pulls have built {w} and wait on w's window.
	<-invalidates
	<-invalidates
	w.EndUse()
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	checkExclusion(t, r, cms, "a", "b")
	if n := r.dmFor("a").ClaimRetries(); n < 1 {
		t.Fatalf("claim retries = %d, want >= 1: one of the two strong pulls lost its claim", n)
	}
}

// TestStaleInvalidateReplyIgnored (a stale invalidation result): w
// surrenders to a's pull, but before the directory reads w's reply, w
// pulls again and is granted. Applying the late reply then would record w
// inactive while its cache manager holds a valid image, and a's next pull
// would be granted beside it. The reply applies only while w's serve
// generation is the one read before the request went out.
//
// w's image is extracted only once the surrender a's round holds has
// landed, so w's pull cannot return while the reply is held; a watchdog
// releases it. Without the fix the release comes from w's own reply.
func TestStaleInvalidateReplyIgnored(t *testing.T) {
	r := newRig(t, directory.Options{})
	cms := map[string]*cache.Manager{
		"a": r.view(t, "a", "P={x}", wire.Strong, newKV(nil)),
		"w": r.view(t, "w", "P={x}", wire.Weak, newKV(nil)),
	}
	for _, name := range []string{"a", "w"} {
		if err := cms[name].InitImage(); err != nil {
			t.Fatal(err)
		}
	}
	a, w := cms["a"], cms["w"]
	held, release := make(chan struct{}), make(chan struct{})
	var hold, unhold sync.Once
	releaseHeld := func() { unhold.Do(func() { close(release) }) }
	r.net.SetBeforeDeliver(func(from, to string, m *wire.Message, _ int) {
		// The first reply w gives the directory answers a's TInvalidate.
		if from == "w" && m.Type == wire.TImage {
			hold.Do(func() {
				close(held)
				<-release
			})
		}
	})
	errA := make(chan error, 1)
	go func() { errA <- a.PullImage() }()
	<-held
	watchdog := time.AfterFunc(200*time.Millisecond, releaseHeld)
	defer watchdog.Stop()
	if err := w.PullImage(); err != nil {
		t.Fatal(err)
	}
	releaseHeld()
	if err := <-errA; err != nil {
		t.Fatal(err)
	}
	checkExclusion(t, r, cms, "a")
	// a pulls again: it must not be granted beside a valid w.
	if err := a.PullImage(); err != nil {
		t.Fatal(err)
	}
	checkExclusion(t, r, cms, "a")
	if a.Valid() && w.Valid() {
		t.Fatal("strong a and weak w both hold valid images")
	}
}
