package directory

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/vclock"
)

// mapStore is a trivial primary component: a map of key->string with the
// image codec implemented over it. The codec methods lock, as the codec
// contract (image.Merger) requires; single-goroutine tests read data
// directly.
type mapStore struct {
	mu   sync.Mutex
	data map[string]string
}

func newMapStore() *mapStore { return &mapStore{data: map[string]string{}} }

func (s *mapStore) Extract(props property.Set) (*image.Image, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	img := image.New()
	for k, v := range s.data {
		img.Put(image.Entry{Key: k, Value: []byte(v)})
	}
	return img, nil
}

func (s *mapStore) Merge(img *image.Image, props property.Set) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range img.Entries {
		k := e.Key
		if e.Deleted {
			delete(s.data, k)
			continue
		}
		s.data[k] = string(e.Value)
	}
	return nil
}

func delta(kv ...string) *image.Image {
	img := image.New()
	for i := 0; i+1 < len(kv); i += 2 {
		img.Put(image.Entry{Key: kv[i], Value: []byte(kv[i+1])})
	}
	return img
}

// commitScoped commits d under props, the way the manager scopes a view's
// commit by its registration (a bare Commit uses the empty set).
func commitScoped(st *Store, writer string, props string, d *image.Image, ops int) {
	st.gate.RLock()
	defer st.gate.RUnlock()
	st.commitGated(writer, property.MustSet(props), d, ops)
}

func TestStoreCommitAndExtract(t *testing.T) {
	ms := newMapStore()
	st := NewStore(ms, vclock.NewSim())
	v, conflicts, _, err := st.Commit("v1", delta("k1", "a", "k2", "b"), 2)
	if err != nil || conflicts != 0 || v != 1 {
		t.Fatalf("commit: v=%d conflicts=%d err=%v", v, conflicts, err)
	}
	if ms.data["k1"] != "a" {
		t.Fatal("primary not updated")
	}
	img, err := st.Extract(property.MustSet("F={1}"), 0)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := img.Get("k1")
	if !ok || e.Version != 1 || e.Writer != "v1" {
		t.Fatalf("extract entry = %+v", e)
	}
	if img.Version != 1 {
		t.Fatalf("img version = %d", img.Version)
	}
}

func TestStoreEmptyCommitIsNoop(t *testing.T) {
	st := NewStore(newMapStore(), vclock.NewSim())
	v, _, _, err := st.Commit("v1", nil, 0)
	if err != nil || v != 0 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	v, _, _, err = st.Commit("v1", image.New(), 0)
	if err != nil || v != 0 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	if len(st.Log()) != 0 {
		t.Fatal("no log records expected")
	}
}

func TestStoreDeltaExtract(t *testing.T) {
	st := NewStore(newMapStore(), vclock.NewSim())
	st.Commit("v1", delta("k1", "a"), 1)
	st.Commit("v2", delta("k2", "b"), 1)
	img, err := st.Extract(property.MustSet("F={1}"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if img.Len() != 1 {
		t.Fatalf("delta should contain only k2, got %v", img.Entries)
	}
	if _, ok := img.Get("k2"); !ok {
		t.Fatal("k2 missing from delta")
	}
}

func TestStoreConflictDetection(t *testing.T) {
	st := NewStore(newMapStore(), vclock.NewSim())
	// v1 commits k at version 1.
	st.Commit("v1", delta("k", "from-v1"), 1)
	// v2 commits based on version 0 (stale): conflict.
	d := delta("k", "from-v2")
	d.Entries[0].Version = 0
	_, conflicts, _, err := st.Commit("v2", d, 1)
	if err != nil || conflicts != 1 {
		t.Fatalf("conflicts=%d err=%v", conflicts, err)
	}
	if st.ConflictsSeen() != 1 {
		t.Fatal("ConflictsSeen should be 1")
	}
	// Incoming wins by default.
	img, _ := st.Extract(property.MustSet("F={1}"), 0)
	ent, _ := img.Get("k")
	if string(ent.Value) != "from-v2" {
		t.Fatalf("winner = %q", ent.Value)
	}
}

func TestStoreSameWriterNoConflict(t *testing.T) {
	st := NewStore(newMapStore(), vclock.NewSim())
	st.Commit("v1", delta("k", "a"), 1)
	// Same writer updating again with stale base version: not a conflict.
	d := delta("k", "a2")
	d.Entries[0].Version = 0
	_, conflicts, _, err := st.Commit("v1", d, 1)
	if err != nil || conflicts != 0 {
		t.Fatalf("conflicts=%d err=%v", conflicts, err)
	}
}

func TestStoreFreshBaseNoConflict(t *testing.T) {
	st := NewStore(newMapStore(), vclock.NewSim())
	st.Commit("v1", delta("k", "a"), 1)
	// v2 based its change on version 1 (current): no conflict.
	d := delta("k", "b")
	d.Entries[0].Version = 1
	_, conflicts, _, err := st.Commit("v2", d, 1)
	if err != nil || conflicts != 0 {
		t.Fatalf("conflicts=%d err=%v", conflicts, err)
	}
}

func TestStoreResolverKeepsOurs(t *testing.T) {
	ms := newMapStore()
	st := NewStore(ms, vclock.NewSim())
	st.SetResolver(func(c image.Conflict) (image.Entry, error) {
		return c.Ours, nil // primary always wins
	})
	st.Commit("v1", delta("k", "ours"), 1)
	d := delta("k", "theirs")
	d.Entries[0].Version = 0
	_, conflicts, _, err := st.Commit("v2", d, 1)
	if err != nil || conflicts != 1 {
		t.Fatalf("conflicts=%d err=%v", conflicts, err)
	}
	if ms.data["k"] != "ours" {
		t.Fatalf("resolver should keep ours, got %q", ms.data["k"])
	}
	// Shadow must still attribute k to v1.
	img, _ := st.Extract(property.MustSet("F={1}"), 0)
	ent, _ := img.Get("k")
	if ent.Writer != "v1" {
		t.Fatalf("shadow writer = %q", ent.Writer)
	}
}

// TestStoreResolverKeepsOursDeleted: when the primary no longer holds the
// key (it was deleted) and the resolver keeps "ours", ours is the
// primary's tombstone — the rejected image hands the pusher that deletion
// under the key's shadow stamp, not an entry with an empty key.
func TestStoreResolverKeepsOursDeleted(t *testing.T) {
	ms := newMapStore()
	st := NewStore(ms, vclock.NewSim())
	st.SetResolver(func(c image.Conflict) (image.Entry, error) { return c.Ours, nil })
	st.Commit("v1", delta("k", "a"), 1)
	del := image.New()
	del.Put(image.Entry{Key: "k", Deleted: true, Version: 1})
	delVer, _, _, err := st.Commit("v1", del, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := delta("k", "theirs") // based on v0: conflicts with v1's delete
	_, conflicts, rejected, err := st.Commit("v2", d, 1)
	if err != nil || conflicts != 1 {
		t.Fatalf("conflicts=%d err=%v", conflicts, err)
	}
	if _, ok := ms.data["k"]; ok {
		t.Fatalf("resolver kept the deletion, but the primary holds k=%q", ms.data["k"])
	}
	if rejected == nil || rejected.Len() != 1 {
		t.Fatalf("rejected = %v, want exactly k's tombstone", rejected)
	}
	got, ok := rejected.Get("k")
	if !ok || !got.Deleted || got.Version != delVer || got.Writer != "v1" {
		t.Fatalf("rejected entries %+v, want k deleted at v%d by v1", rejected.Entries, delVer)
	}
}

func TestStoreResolverError(t *testing.T) {
	st := NewStore(newMapStore(), vclock.NewSim())
	st.SetResolver(func(c image.Conflict) (image.Entry, error) {
		return image.Entry{}, fmt.Errorf("cannot resolve")
	})
	st.Commit("v1", delta("k", "a"), 1)
	d := delta("k", "b")
	d.Entries[0].Version = 0
	if _, _, _, err := st.Commit("v2", d, 1); err == nil {
		t.Fatal("resolver error should propagate")
	}
}

// flakyStore is a mapStore whose Merge can be made to fail.
type flakyStore struct {
	*mapStore
	failMerge bool
}

func (s *flakyStore) Merge(img *image.Image, props property.Set) error {
	if s.failMerge {
		return fmt.Errorf("merge refused")
	}
	return s.mapStore.Merge(img, props)
}

// TestStoreFailedCommitLeavesNoTrace: a commit that fails — in the codec's
// Merge, after its version was allocated, or in the resolver, before —
// leaves the shadow, the dirty index and the log exactly as they were,
// never shows up as a key stamp in a later extract, does not wedge the
// published watermark, and does not get in the way of the next commit. A
// resolver failure additionally allocates no version.
func TestStoreFailedCommitLeavesNoTrace(t *testing.T) {
	props := property.MustSet("F={1}")
	cases := []struct {
		name string
		// arm makes the next commit of k fail and returns the delta entry's
		// base version: 1 is current (no conflict, so the commit reaches
		// Merge), 0 is stale (a conflict, so it reaches the resolver).
		arm         func(st *Store, ms *flakyStore) vclock.Version
		burnVersion bool
	}{
		{
			name:        "merge error",
			arm:         func(st *Store, ms *flakyStore) vclock.Version { ms.failMerge = true; return 1 },
			burnVersion: true,
		},
		{
			name: "resolver error",
			arm: func(st *Store, ms *flakyStore) vclock.Version {
				st.SetResolver(func(image.Conflict) (image.Entry, error) {
					return image.Entry{}, fmt.Errorf("cannot resolve")
				})
				return 0
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ms := &flakyStore{mapStore: newMapStore()}
			st := NewStore(ms, vclock.NewSim())
			if _, _, _, err := st.Commit("v1", delta("k", "a", "j", "x"), 1); err != nil {
				t.Fatal(err)
			}
			stripe := st.stripeFor("k")
			shadowBefore := stripe.shadow["k"]
			dirtyBefore := append([]dirtyRec(nil), stripe.dirty...)
			logBefore := st.Log()

			d := delta("k", "b")
			d.Entries[0].Version = tc.arm(st, ms)
			// A commit takes its delta; d is committed again below.
			if _, _, _, err := st.Commit("v2", d.Clone(), 1); err == nil {
				t.Fatal("commit should have failed")
			}

			want := vclock.Version(1)
			if tc.burnVersion {
				want = 2
			}
			if got := st.Current(); got != want {
				t.Fatalf("counter at v%d after the failed commit, want v%d", got, want)
			}
			if got := stripe.shadow["k"]; got != shadowBefore {
				t.Fatalf("shadow of k moved: %+v -> %+v", shadowBefore, got)
			}
			if !reflect.DeepEqual(stripe.dirty, dirtyBefore) {
				t.Fatalf("dirty index moved: %v -> %v", dirtyBefore, stripe.dirty)
			}
			if got := st.Log(); !reflect.DeepEqual(got, logBefore) {
				t.Fatalf("log moved: %v -> %v", logBefore, got)
			}
			if ms.data["k"] != "a" {
				t.Fatalf("primary holds %q for k, want the pre-failure value", ms.data["k"])
			}
			// The landed defer did its job: watermark == counter.
			if err := st.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			full, err := st.Extract(props, 0)
			if err != nil {
				t.Fatal(err)
			}
			if full.Version != want {
				t.Fatalf("extract stamped v%d, want the watermark v%d", full.Version, want)
			}
			for _, ent := range full.Entries {
				k := ent.Key
				if ent.Version != 1 || ent.Writer != "v1" {
					t.Fatalf("key %s stamped v%d by %q after the failed commit", k, ent.Version, ent.Writer)
				}
			}
			if since, err := st.Extract(props, 1); err != nil || since.Len() != 0 {
				t.Fatalf("delta since v1 carries %v (err %v), want nothing", since, err)
			}

			// The next commit is unaffected.
			ms.failMerge = false
			st.SetResolver(nil)
			next, _, _, err := st.Commit("v2", d, 1)
			if err != nil || next != want+1 {
				t.Fatalf("next commit: v%d err=%v, want v%d", next, err, want+1)
			}
			if got := stripe.shadow["k"]; got.version != next || got.writer != "v2" {
				t.Fatalf("shadow of k after the next commit: %+v", got)
			}
			since, err := st.Extract(props, 1)
			if err != nil {
				t.Fatal(err)
			}
			if ent, ok := since.Get("k"); !ok || since.Len() != 1 || ent.Version != next || string(ent.Value) != "b" {
				t.Fatalf("delta since v1 = %v, want exactly k at v%d", since, next)
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStoreUnseenOps(t *testing.T) {
	st := NewStore(newMapStore(), vclock.NewSim())
	commitScoped(st, "a", "F={1..3}", delta("k1", "x"), 2)
	commitScoped(st, "b", "F={2..4}", delta("k2", "y"), 3)
	commitScoped(st, "c", "F={9}", delta("k3", "z"), 5)

	// Viewer "a" with props F={1..3}, seen=0: sees b's 3 ops (overlap),
	// not its own 2, not c's disjoint 5.
	got := st.UnseenOps(0, "a", property.MustSet("F={1..3}"))
	if got != 3 {
		t.Fatalf("unseen = %d, want 3", got)
	}
	// After observing version 2 (b's commit), nothing unseen.
	if got := st.UnseenOps(2, "a", property.MustSet("F={1..3}")); got != 0 {
		t.Fatalf("unseen = %d, want 0", got)
	}
	// A viewer with empty props sees everything by others.
	if got := st.UnseenOps(0, "zz", property.NewSet()); got != 10 {
		t.Fatalf("unseen = %d, want 10", got)
	}
}

func TestStoreCompactLog(t *testing.T) {
	st := NewStore(newMapStore(), vclock.NewSim())
	for i := 0; i < 5; i++ {
		st.Commit("v", delta("k", fmt.Sprintf("x%d", i)), 1)
	}
	backing := &st.log[0]
	dropped := st.CompactLog(3)
	if dropped != 3 || len(st.Log()) != 2 {
		t.Fatalf("dropped=%d remaining=%d", dropped, len(st.Log()))
	}
	// In place: the tail shifted down into the same array, and the
	// vacated slots were cleared so their property sets can be freed.
	if &st.log[0] != backing || st.log[0].Version != 4 {
		t.Fatalf("compaction reallocated the log or kept the wrong records: %+v", st.log)
	}
	for i, rec := range st.log[len(st.log):cap(st.log)] {
		if rec.Version != 0 || rec.Writer != "" || !rec.Props.IsEmpty() {
			t.Fatalf("vacated slot %d not cleared: %+v", len(st.log)+i, rec)
		}
	}
	if st.CompactLog(3) != 0 {
		t.Fatal("a second compaction at the same floor dropped records")
	}
	// Quality for seen>=3 still correct after compaction.
	if got := st.UnseenOps(3, "other", property.MustSet("F={1}")); got != 2 {
		t.Fatalf("unseen = %d, want 2", got)
	}
}

func TestStoreLogTimes(t *testing.T) {
	clk := vclock.NewSim()
	st := NewStore(newMapStore(), clk)
	clk.Advance(123)
	st.Commit("v", delta("k", "x"), 1)
	log := st.Log()
	if len(log) != 1 || log[0].At != 123 {
		t.Fatalf("log = %+v", log)
	}
}

func TestStoreDeletionCommit(t *testing.T) {
	ms := newMapStore()
	st := NewStore(ms, vclock.NewSim())
	st.Commit("v1", delta("k", "a"), 1)
	d := image.New()
	d.Put(image.Entry{Key: "k", Version: 1, Writer: "v1", Deleted: true})
	if _, _, _, err := st.Commit("v1", d, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := ms.data["k"]; ok {
		t.Fatal("deletion should remove key from primary")
	}
}
