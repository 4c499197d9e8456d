package image_test

// The laws of conflict resolution, stated against directory.Store.Commit:
// the one three-way merge Flecc runs. A delta entry's Version is the base
// its writer changed, the key's shadow stamp is ours' provenance, and the
// delta is theirs (image.Resolver has the contract).

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/vclock"
)

// mapPrimary is an original component over a plain map, written as the
// image.FuncCodec a store is built around. merged lists the keys Merge
// was handed, in order.
type mapPrimary struct {
	mu     sync.Mutex
	data   map[string]string
	merged []string
}

func newStore() (*mapPrimary, *directory.Store) {
	p := &mapPrimary{data: map[string]string{}}
	codec := image.FuncCodec{
		ExtractFn: func(property.Set) (*image.Image, error) {
			p.mu.Lock()
			defer p.mu.Unlock()
			es := make([]image.Entry, 0, len(p.data))
			for k, v := range p.data {
				es = append(es, image.Entry{Key: k, Value: []byte(v)})
			}
			return image.Of(0, es), nil
		},
		MergeFn: func(img *image.Image, _ property.Set) error {
			p.mu.Lock()
			defer p.mu.Unlock()
			for _, e := range img.Entries {
				p.merged = append(p.merged, e.Key)
				if e.Deleted {
					delete(p.data, e.Key)
				} else {
					p.data[e.Key] = string(e.Value)
				}
			}
			return nil
		},
	}
	return p, directory.NewStore(codec, vclock.NewSim())
}

// put is a delta entry setting key to val, changed from the value at base.
func put(key, val string, base vclock.Version) image.Entry {
	return image.Entry{Key: key, Value: []byte(val), Version: base}
}

// del is a delta entry deleting key, changed from the value at base.
func del(key string, base vclock.Version) image.Entry {
	return image.Entry{Key: key, Version: base, Deleted: true}
}

// commit commits the entries as one delta by writer.
func commit(st *directory.Store, writer string, es ...image.Entry) (vclock.Version, int, *image.Image, error) {
	return st.Commit(writer, image.Of(0, es), len(es))
}

// stamp is the key's entry as a pull of everything sees it: content,
// tombstone state and shadow stamp.
func stamp(t *testing.T, st *directory.Store, key string) image.Entry {
	t.Helper()
	img, err := st.Extract(property.Set{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := img.Get(key)
	if !ok {
		t.Fatalf("%s: not in the store's extract %v", key, img.Entries)
	}
	return e
}

// same reports whether two entries agree in content and stamp.
func same(a, b image.Entry) bool {
	return a.Equal(b) && a.Version == b.Version && a.Writer == b.Writer
}

// A key nobody else changed since the pusher's base fast-forwards: it
// lands stamped with the commit's version and the pusher, counts no
// conflict and never reaches the resolver. Nor does the pusher's own
// earlier write, however stale the base it names.
func TestThreeWayMergeFastForward(t *testing.T) {
	p, st := newStore()
	st.SetResolver(func(c image.Conflict) (image.Entry, error) {
		t.Errorf("resolver consulted on %v", c)
		return c.Theirs, nil
	})
	if _, _, _, err := commit(st, "v1", put("k", "v0", 0)); err != nil {
		t.Fatal(err)
	}
	ver, conflicts, rejected, err := commit(st, "v2", put("k", "v1", 1))
	if err != nil || ver != 2 || conflicts != 0 || rejected != nil {
		t.Fatalf("fast-forward: v%d, %d conflicts, rejected %v, %v", ver, conflicts, rejected, err)
	}
	if p.data["k"] != "v1" {
		t.Fatalf("primary holds k=%q, want v1", p.data["k"])
	}
	if e := stamp(t, st, "k"); e.Version != 2 || e.Writer != "v2" {
		t.Fatalf("k stamped v%d by %q, want v2 by v2", e.Version, e.Writer)
	}
	// v2 again, from base 0: its own write is not a conflict.
	ver, conflicts, rejected, err = commit(st, "v2", put("k", "v2", 0))
	if err != nil || ver != 3 || conflicts != 0 || rejected != nil {
		t.Fatalf("own write: v%d, %d conflicts, rejected %v, %v", ver, conflicts, rejected, err)
	}
	if e := stamp(t, st, "k"); string(e.Value) != "v2" || e.Version != 3 || e.Writer != "v2" {
		t.Fatalf("k = %+v, want v2 at v3 by v2", e)
	}
	if n := st.ConflictsSeen(); n != 0 {
		t.Fatalf("ConflictsSeen = %d", n)
	}
}

// Two writers making the same change from the same base leave the
// primary as the first left it. The second commit conflicts, and a
// resolver that picks either side, or a keyless copy of ours' value,
// picks ours' content. So the key keeps the first writer's stamp, is not
// merged again, and goes back to the pusher in rejected. A key beside it
// in the delta still lands.
func TestThreeWayMergeBothSame(t *testing.T) {
	for _, tc := range []struct {
		name string
		pick func(image.Conflict) image.Entry
	}{
		{"theirs", func(c image.Conflict) image.Entry { return c.Theirs }},
		{"ours", func(c image.Conflict) image.Entry { return c.Ours }},
		{"keyless", func(c image.Conflict) image.Entry { return image.Entry{Value: c.Ours.Value} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, st := newStore()
			st.SetResolver(func(c image.Conflict) (image.Entry, error) { return tc.pick(c), nil })
			if _, _, _, err := commit(st, "a", put("k", "same", 0)); err != nil {
				t.Fatal(err)
			}
			p.merged = nil
			ver, conflicts, rejected, err := commit(st, "b", put("j", "new", 0), put("k", "same", 0))
			if err != nil || ver != 2 || conflicts != 1 {
				t.Fatalf("v%d, %d conflicts, %v", ver, conflicts, err)
			}
			if want := map[string]string{"j": "new", "k": "same"}; !maps.Equal(p.data, want) {
				t.Fatalf("primary = %v, want %v", p.data, want)
			}
			if !slices.Equal(p.merged, []string{"j"}) {
				t.Fatalf("merged %v, want only j", p.merged)
			}
			if e := stamp(t, st, "k"); e.Version != 1 || e.Writer != "a" {
				t.Fatalf("k stamped v%d by %q, want its first stamp v1 by a", e.Version, e.Writer)
			}
			if e := stamp(t, st, "j"); e.Version != 2 || e.Writer != "b" {
				t.Fatalf("j stamped v%d by %q, want v2 by b", e.Version, e.Writer)
			}
			if rejected == nil || rejected.Version != 2 || rejected.Len() != 1 ||
				!same(rejected.Entries[0], image.Entry{Key: "k", Value: []byte("same"), Version: 1, Writer: "a"}) {
				t.Fatalf("rejected = %v, want k=same at v1 by a", rejected)
			}
		})
	}
}

// With no resolver installed the last writer wins, in commit order: a
// commit from a stale base overwrites the newer value another writer
// committed, counts the conflict, and rejects nothing. Version numbers do
// not decide: ours is two commits newer than theirs' base. Removing an
// installed resolver restores the rule.
func TestThreeWayMergeConflictLWW(t *testing.T) {
	p, st := newStore()
	st.SetResolver(func(c image.Conflict) (image.Entry, error) { return c.Ours, nil })
	st.SetResolver(nil)
	for i, v := range []string{"mine", "mine again"} {
		if _, _, _, err := commit(st, "me", put("k", v, vclock.Version(i))); err != nil {
			t.Fatal(err)
		}
	}
	ver, conflicts, rejected, err := commit(st, "them", put("k", "theirs", 0), put("z", "fresh", 0))
	if err != nil || ver != 3 || conflicts != 1 || rejected != nil {
		t.Fatalf("v%d, %d conflicts, rejected %v, %v", ver, conflicts, rejected, err)
	}
	if want := map[string]string{"k": "theirs", "z": "fresh"}; !maps.Equal(p.data, want) {
		t.Fatalf("primary = %v, want %v", p.data, want)
	}
	if e := stamp(t, st, "k"); e.Version != 3 || e.Writer != "them" {
		t.Fatalf("k stamped v%d by %q, want v3 by them", e.Version, e.Writer)
	}
	if n := st.ConflictsSeen(); n != 1 {
		t.Fatalf("ConflictsSeen = %d, want 1", n)
	}
}

// A resolver may return neither side: a merged entry, built without a
// key. It lands under the conflict's key, stamped with the commit's
// version and the pusher, and nothing is rejected. The resolver saw ours
// as the primary's value under its shadow stamp, and theirs as pushed.
func TestThreeWayMergeResolver(t *testing.T) {
	p, st := newStore()
	var seen []image.Conflict
	st.SetResolver(func(c image.Conflict) (image.Entry, error) {
		seen = append(seen, c)
		return image.Entry{Value: []byte(string(c.Ours.Value) + "+" + string(c.Theirs.Value))}, nil
	})
	if _, _, _, err := commit(st, "me", put("k", "7", 0)); err != nil {
		t.Fatal(err)
	}
	theirs := put("k", "4", 0)
	theirs.Writer = "them"
	ver, conflicts, rejected, err := commit(st, "them", theirs)
	if err != nil || ver != 2 || conflicts != 1 || rejected != nil {
		t.Fatalf("v%d, %d conflicts, rejected %v, %v", ver, conflicts, rejected, err)
	}
	if want := map[string]string{"k": "7+4"}; !maps.Equal(p.data, want) {
		t.Fatalf("primary = %v, want %v", p.data, want)
	}
	if e := stamp(t, st, "k"); e.Version != 2 || e.Writer != "them" {
		t.Fatalf("k stamped v%d by %q, want v2 by them", e.Version, e.Writer)
	}
	if len(seen) != 1 || seen[0].Key != "k" ||
		!same(seen[0].Ours, image.Entry{Key: "k", Value: []byte("7"), Version: 1, Writer: "me"}) ||
		!same(seen[0].Theirs, theirs) {
		t.Fatalf("resolver saw %v", seen)
	}
}

// A resolver error fails the whole commit: no key of its delta lands, not
// even those that did not conflict, and it burns no version, counts no
// conflict and logs nothing. The next commit goes on as if it had never
// been tried.
func TestThreeWayMergeResolverError(t *testing.T) {
	p, st := newStore()
	st.SetResolver(func(c image.Conflict) (image.Entry, error) { return image.Entry{}, fmt.Errorf("boom") })
	if _, _, _, err := commit(st, "me", put("k", "a", 0)); err != nil {
		t.Fatal(err)
	}
	p.merged = nil
	_, _, rejected, err := commit(st, "them", put("a", "x", 0), put("k", "b", 0), put("z", "y", 0))
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), `"k"`) || rejected != nil {
		t.Fatalf("err %v, rejected %v; want the resolver's error on k", err, rejected)
	}
	if want := map[string]string{"k": "a"}; !maps.Equal(p.data, want) || len(p.merged) != 0 {
		t.Fatalf("primary = %v after merging %v, want %v untouched", p.data, p.merged, want)
	}
	if st.Current() != 1 || st.ConflictsSeen() != 0 || len(st.Log()) != 1 {
		t.Fatalf("version %d, %d conflicts, %d log records; want 1, 0, 1", st.Current(), st.ConflictsSeen(), len(st.Log()))
	}
	if e := stamp(t, st, "k"); e.Version != 1 || e.Writer != "me" {
		t.Fatalf("k stamped v%d by %q, want v1 by me", e.Version, e.Writer)
	}
	if ver, _, _, err := commit(st, "them", put("z", "y", 0)); err != nil || ver != 2 {
		t.Fatalf("next commit: v%d, %v; want v2", ver, err)
	}
}

// A deletion is an update like any other. From a current base it
// fast-forwards: the primary drops the key, and a delta pull names the
// tombstone under the commit's stamp. From a stale base it conflicts with
// the newer value, reaches the resolver as theirs, and wins when theirs
// does.
func TestThreeWayMergeDeletionWins(t *testing.T) {
	p, st := newStore()
	if _, _, _, err := commit(st, "a", put("j", "w", 0), put("k", "v", 0)); err != nil {
		t.Fatal(err)
	}
	ver, conflicts, _, err := commit(st, "b", del("k", 1))
	if err != nil || ver != 2 || conflicts != 0 {
		t.Fatalf("fast-forward deletion: v%d, %d conflicts, %v", ver, conflicts, err)
	}
	if _, ok := p.data["k"]; ok {
		t.Fatal("the primary still holds k")
	}
	d, err := st.Extract(property.Set{}, 1)
	if err != nil || d.Len() != 1 || !same(d.Entries[0], image.Entry{Key: "k", Version: 2, Writer: "b", Deleted: true}) {
		t.Fatalf("delta since v1 = %v (%v), want k's tombstone at v2 by b", d.Entries, err)
	}

	if _, _, _, err := commit(st, "a", put("j", "w2", 1)); err != nil {
		t.Fatal(err)
	}
	var seen image.Entry
	st.SetResolver(func(c image.Conflict) (image.Entry, error) {
		seen = c.Theirs
		return c.Theirs, nil
	})
	ver, conflicts, rejected, err := commit(st, "b", del("j", 1))
	if err != nil || ver != 4 || conflicts != 1 || rejected != nil {
		t.Fatalf("conflicting deletion: v%d, %d conflicts, rejected %v, %v", ver, conflicts, rejected, err)
	}
	if !seen.Deleted || len(p.data) != 0 {
		t.Fatalf("resolver saw theirs %+v; primary = %v, want empty", seen, p.data)
	}
	if e := stamp(t, st, "j"); !same(e, image.Entry{Key: "j", Version: 4, Writer: "b", Deleted: true}) {
		t.Fatalf("j = %+v, want its tombstone at v4 by b", e)
	}
}

// resolverMode is the resolver a model-checked store runs.
type resolverMode int

const (
	noResolver resolverMode = iota
	oursResolver
	theirsResolver
)

func (m resolverMode) String() string { return [...]string{"none", "ours", "theirs"}[m] }

func (m resolverMode) install(st *directory.Store) {
	switch m {
	case oursResolver:
		st.SetResolver(func(c image.Conflict) (image.Entry, error) { return c.Ours, nil })
	case theirsResolver:
		st.SetResolver(func(c image.Conflict) (image.Entry, error) { return c.Theirs, nil })
	}
}

// model is what a store must hold after a run of commits: each key's
// content and shadow stamp, by key.
type model map[string]image.Entry

// commit advances the model by the delta writer commits as version ver,
// and returns the conflicts it counts and the entries it rejects.
func (m model) commit(mode resolverMode, writer string, delta []image.Entry, ver vclock.Version) (int, []image.Entry) {
	conflicts, rejected := 0, []image.Entry(nil)
	for _, e := range delta {
		ours, ok := m[e.Key]
		if ok && ours.Version > e.Version && ours.Writer != writer {
			conflicts++
			winner := e
			if mode == oursResolver {
				winner = ours
			}
			if mode != noResolver && winner.Equal(ours) {
				rejected = append(rejected, ours)
				continue
			}
		}
		m[e.Key] = image.Entry{Key: e.Key, Value: e.Value, Deleted: e.Deleted, Version: ver, Writer: writer}
	}
	return conflicts, rejected
}

// modelRun drives a store and a model side by side from one seed.
type modelRun struct {
	r    *rand.Rand
	mode resolverMode
	p    *mapPrimary
	st   *directory.Store
	m    model
}

func newModelRun(seed int64, mode resolverMode) *modelRun {
	p, st := newStore()
	mode.install(st)
	return &modelRun{r: rand.New(rand.NewSource(seed)), mode: mode, p: p, st: st, m: model{}}
}

// delta is a random delta: one to three of five keys, each set to one of
// three values or deleted, each from a random base up to the current
// version.
func (mr *modelRun) delta() []image.Entry {
	var es []image.Entry
	for _, i := range mr.r.Perm(5)[:1+mr.r.Intn(3)] {
		k, base := fmt.Sprintf("k%d", i), vclock.Version(mr.r.Int63n(int64(mr.st.Current())+1))
		if mr.r.Intn(5) == 0 {
			es = append(es, del(k, base))
		} else {
			es = append(es, put(k, fmt.Sprint(mr.r.Intn(3)), base))
		}
	}
	return image.Of(0, es).Entries
}

// commit commits delta by writer on the store and checks what it returns
// and what the store then holds against the model. It returns the
// conflicts and the rejected entries.
func (mr *modelRun) commit(writer string, delta []image.Entry) (int, []image.Entry, error) {
	ver := mr.st.Current() + 1
	wantConflicts, wantRejected := mr.m.commit(mr.mode, writer, delta, ver)
	d := image.Of(0, slices.Clone(delta))
	gotVer, conflicts, rejected, err := mr.st.Commit(writer, d, len(delta))
	if err != nil || gotVer != ver || conflicts != wantConflicts {
		return 0, nil, fmt.Errorf("%s commits %v: v%d, %d conflicts, %v; want v%d, %d conflicts",
			writer, delta, gotVer, conflicts, err, ver, wantConflicts)
	}
	var gotRejected []image.Entry
	if rejected != nil {
		if rejected.Version != ver {
			return 0, nil, fmt.Errorf("%s commits %v: rejected at v%d, want v%d", writer, delta, rejected.Version, ver)
		}
		gotRejected = rejected.Entries
		if len(gotRejected) == 0 {
			return 0, nil, fmt.Errorf("%s commits %v: rejected is empty, not nil", writer, delta)
		}
	}
	if !slices.EqualFunc(gotRejected, wantRejected, same) {
		return 0, nil, fmt.Errorf("%s commits %v: rejected %v, want %v", writer, delta, gotRejected, wantRejected)
	}
	return conflicts, gotRejected, mr.check()
}

// check compares the primary's content and the store's stamps with the
// model.
func (mr *modelRun) check() error {
	live := map[string]string{}
	var want []image.Entry
	for k, e := range mr.m {
		if !e.Deleted {
			live[k] = string(e.Value)
		}
		want = append(want, e)
	}
	want = image.Of(0, want).Entries
	if !maps.Equal(mr.p.data, live) {
		return fmt.Errorf("primary = %v, model = %v", mr.p.data, live)
	}
	img, err := mr.st.Extract(property.Set{}, 0)
	if err != nil || !slices.EqualFunc(img.Entries, want, same) {
		return fmt.Errorf("store extracts %v (%v), model = %v", img.Entries, err, want)
	}
	return nil
}

// history runs one to twelve random commits by three writers, checking
// each against the model.
func (mr *modelRun) history() error {
	for range 1 + mr.r.Intn(12) {
		if _, _, err := mr.commit(fmt.Sprintf("w%d", mr.r.Intn(3)), mr.delta()); err != nil {
			return err
		}
	}
	return nil
}

// quickModel checks law on 200 seeds under each resolver mode.
func quickModel(t *testing.T, cfgSeed int64, law func(*modelRun) error) {
	t.Helper()
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(cfgSeed))}
	for _, mode := range []resolverMode{noResolver, oursResolver, theirsResolver} {
		if err := quick.Check(func(seed int64) bool {
			if err := law(newModelRun(seed, mode)); err != nil {
				t.Logf("resolver %s, seed %d: %v", mode, seed, err)
				return false
			}
			return true
		}, cfg); err != nil {
			t.Fatal(err)
		}
	}
}

// Random writers commit random deltas from random bases, and the store
// matches a map model in the primary's content, the conflicts it counts
// and the entries it rejects. Theirs absorbs: unless an ours resolver
// kept ours, every key of a delta holds its pushed content once the
// commit returns.
func TestQuickMergePolicyTheirsAbsorbs(t *testing.T) {
	quickModel(t, 40, func(mr *modelRun) error {
		for range 1 + mr.r.Intn(12) {
			writer, delta := fmt.Sprintf("w%d", mr.r.Intn(3)), mr.delta()
			_, rejected, err := mr.commit(writer, delta)
			if err != nil {
				return err
			}
			for _, e := range delta {
				kept := slices.ContainsFunc(rejected, func(r image.Entry) bool { return r.Key == e.Key })
				if mr.mode == oursResolver && kept {
					continue
				}
				v, ok := mr.p.data[e.Key]
				if ok == e.Deleted || ok && v != string(e.Value) {
					return fmt.Errorf("%s commits %v: primary holds %s=%q (%v)", writer, delta, e.Key, v, ok)
				}
			}
		}
		return nil
	})
}

// Commit is idempotent: after a random history, a writer committing the
// same delta twice, as a push retried after a lost ack does, finds the
// primary as its first commit left it. The retry conflicts exactly on the
// keys the first one rejected, and rejects them again with the same
// entries.
func TestQuickMergeIdempotent(t *testing.T) {
	quickModel(t, 41, func(mr *modelRun) error {
		if err := mr.history(); err != nil {
			return err
		}
		writer, delta := fmt.Sprintf("w%d", mr.r.Intn(3)), mr.delta()
		_, rejected, err := mr.commit(writer, delta)
		if err != nil {
			return err
		}
		after := maps.Clone(mr.p.data)
		conflicts, again, err := mr.commit(writer, delta)
		if err != nil {
			return err
		}
		if !maps.Equal(mr.p.data, after) || conflicts != len(rejected) || !slices.EqualFunc(again, rejected, same) {
			return fmt.Errorf("%s retries %v: primary %v (was %v), %d conflicts, rejected %v (was %v)",
				writer, delta, mr.p.data, after, conflicts, again, rejected)
		}
		return nil
	})
}
