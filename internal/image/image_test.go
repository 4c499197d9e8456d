package image

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"flecc/internal/property"
	"flecc/internal/vclock"
)

func entry(key, val string, v vclock.Version, writer string) Entry {
	return Entry{Key: key, Value: []byte(val), Version: v, Writer: writer}
}

func TestImageBasics(t *testing.T) {
	im := New()
	im.Put(entry("f/1", "a", 1, "v1"))
	im.Put(entry("f/2", "b", 2, "v1"))
	if im.Len() != 2 {
		t.Fatalf("len = %d", im.Len())
	}
	e, ok := im.Get("f/1")
	if !ok || string(e.Value) != "a" {
		t.Fatalf("Get = %v, %v", e, ok)
	}
	if got := im.Entries; got[0].Key != "f/1" || got[1].Key != "f/2" {
		t.Fatalf("entries = %v", got)
	}
	im.Delete("f/1", 3, "v2")
	e, _ = im.Get("f/1")
	if !e.Deleted {
		t.Fatal("tombstone missing")
	}
}

func TestImagePutOnZero(t *testing.T) {
	var im Image
	im.Put(entry("k", "v", 1, ""))
	if im.Len() != 1 {
		t.Fatal("Put on zero image should allocate")
	}
}

func TestCloneIndependence(t *testing.T) {
	im := New()
	im.Put(entry("k", "orig", 1, ""))
	c := im.Clone()
	c.Entries[0].Value[0] = 'X'
	if e, _ := im.Get("k"); string(e.Value) != "orig" {
		t.Fatal("clone shares payload storage")
	}
	c.Put(entry("k2", "v", 2, ""))
	if im.Len() != 1 {
		t.Fatal("clone shares entry map")
	}
}

// Any sequence of Put, Delete and in-place removal leaves the entries
// sorted with no key twice, and agrees with a map holding the same
// operations; Get finds exactly the model's keys.
func TestQuickPutGetDelete(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func() bool {
		im := New()
		model := map[string]Entry{}
		for range 1 + r.Intn(40) {
			k := fmt.Sprintf("k%02d", r.Intn(16))
			switch r.Intn(4) {
			case 0, 1:
				e := entry(k, fmt.Sprint(r.Intn(5)), vclock.Version(r.Intn(9)), "w")
				im.Put(e)
				model[k] = e
			case 2:
				im.Delete(k, 7, "d")
				model[k] = Entry{Key: k, Version: 7, Writer: "d", Deleted: true}
			default:
				im.Entries = slices.DeleteFunc(im.Entries, func(e Entry) bool { return e.Key == k })
				delete(model, k)
			}
			if im.Len() != len(model) || !strictlySorted(im.Entries) {
				return false
			}
		}
		for i := range 16 {
			k := fmt.Sprintf("k%02d", i)
			got, ok := im.Get(k)
			want, wantOK := model[k]
			if ok != wantOK || ok && (!got.Equal(want) || got.Version != want.Version || got.Writer != want.Writer) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func strictlySorted(es []Entry) bool {
	for i := 1; i < len(es); i++ {
		if es[i-1].Key >= es[i].Key {
			return false
		}
	}
	return true
}

func TestOfSortsOnce(t *testing.T) {
	im := Of(3, []Entry{entry("c", "3", 0, ""), entry("a", "1", 0, ""), entry("b", "2", 0, "")})
	if im.Version != 3 || im.Len() != 3 || im.Entries[0].Key != "a" || im.Entries[1].Key != "b" || im.Entries[2].Key != "c" {
		t.Fatalf("Of = %v %v", im, im.Entries)
	}
	if e, ok := im.Get("b"); !ok || string(e.Value) != "2" {
		t.Fatalf("Get(b) = %v, %v", e, ok)
	}
	if _, ok := im.Get("bb"); ok {
		t.Fatal("Get of an absent key between two entries found one")
	}
}

func TestEntryEqual(t *testing.T) {
	a := entry("k", "v", 1, "w1")
	b := entry("k", "v", 9, "w2") // metadata differs, content equal
	if !a.Equal(b) {
		t.Fatal("content-equal entries should be Equal")
	}
	if a.Equal(entry("k", "x", 1, "w1")) {
		t.Fatal("different payloads should differ")
	}
	if a.Equal(Entry{Key: "k", Value: []byte("v"), Deleted: true}) {
		t.Fatal("tombstone should differ")
	}
}

func TestImageEqualAndDiff(t *testing.T) {
	a := New()
	b := New()
	a.Put(entry("k1", "v", 1, ""))
	b.Put(entry("k1", "v", 5, "")) // same content
	if !a.Equal(b) {
		t.Fatal("images with same content should be equal")
	}
	b.Put(entry("k2", "w", 6, ""))
	if a.Equal(b) {
		t.Fatal("extra key should break equality")
	}
	d := Diff(a, b)
	if len(d) != 1 || d[0] != "k2" {
		t.Fatalf("diff = %v", d)
	}
	if got := Diff(nil, b); len(got) != 2 {
		t.Fatalf("diff(nil,b) = %v", got)
	}
	if got := Diff(a, nil); len(got) != 1 {
		t.Fatalf("diff(a,nil) = %v", got)
	}
}

func TestFuncCodec(t *testing.T) {
	c := FuncCodec{
		ExtractFn: func(props property.Set) (*Image, error) { return New(), nil },
		MergeFn:   func(img *Image, props property.Set) error { return nil },
	}
	if _, err := c.Extract(property.NewSet()); err != nil {
		t.Fatal(err)
	}
	if err := c.Merge(nil, property.NewSet()); err != nil {
		t.Fatal(err)
	}
	var empty FuncCodec
	if _, err := empty.Extract(property.NewSet()); err == nil {
		t.Fatal("empty codec Extract should fail")
	}
	if err := empty.Merge(nil, property.NewSet()); err == nil {
		t.Fatal("empty codec Merge should fail")
	}
}

func TestThreeWayMergeFastForward(t *testing.T) {
	base := New()
	base.Put(entry("k", "v0", 1, ""))
	ours := base.Clone()
	theirs := base.Clone()
	theirs.Put(entry("k", "v1", 2, "remote"))
	theirs.Version = 2

	res, err := ThreeWayMerge(base, ours, theirs, MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 || len(res.Conflicts) != 0 {
		t.Fatalf("res = %+v", res)
	}
	e, _ := ours.Get("k")
	if string(e.Value) != "v1" || ours.Version != 2 {
		t.Fatalf("ours = %v", ours)
	}
}

func TestThreeWayMergeBothSame(t *testing.T) {
	base := New()
	base.Put(entry("k", "v0", 1, ""))
	ours := base.Clone()
	theirs := base.Clone()
	ours.Put(entry("k", "same", 2, "a"))
	theirs.Put(entry("k", "same", 3, "b"))
	res, err := ThreeWayMerge(base, ours, theirs, MergeOptions{})
	if err != nil || len(res.Conflicts) != 0 {
		t.Fatalf("identical changes should not conflict: %+v, %v", res, err)
	}
}

func TestThreeWayMergeConflictLWW(t *testing.T) {
	base := New()
	base.Put(entry("k", "v0", 1, ""))
	ours := base.Clone()
	theirs := base.Clone()
	ours.Put(entry("k", "mine", 5, "me"))
	theirs.Put(entry("k", "theirs", 3, "them"))

	res, err := ThreeWayMerge(base, ours, theirs, MergeOptions{Policy: PolicyLastWriterWins})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conflicts) != 1 || res.KeptOurs != 1 {
		t.Fatalf("res = %+v", res)
	}
	e, _ := ours.Get("k")
	if string(e.Value) != "mine" {
		t.Fatalf("LWW kept %q, want mine (v5 > v3)", e.Value)
	}
}

func TestThreeWayMergePolicies(t *testing.T) {
	mk := func() (*Image, *Image, *Image) {
		base := New()
		base.Put(entry("k", "v0", 1, ""))
		ours := base.Clone()
		theirs := base.Clone()
		ours.Put(entry("k", "mine", 2, "me"))
		theirs.Put(entry("k", "theirs", 2, "them"))
		return base, ours, theirs
	}
	base, ours, theirs := mk()
	if _, err := ThreeWayMerge(base, ours, theirs, MergeOptions{Policy: PolicyOurs}); err != nil {
		t.Fatal(err)
	}
	e, _ := ours.Get("k")
	if string(e.Value) != "mine" {
		t.Fatal("PolicyOurs should keep ours")
	}
	base, ours, theirs = mk()
	if _, err := ThreeWayMerge(base, ours, theirs, MergeOptions{Policy: PolicyTheirs}); err != nil {
		t.Fatal(err)
	}
	e, _ = ours.Get("k")
	if string(e.Value) != "theirs" {
		t.Fatal("PolicyTheirs should take theirs")
	}
	// LWW tie goes to theirs.
	base, ours, theirs = mk()
	if _, err := ThreeWayMerge(base, ours, theirs, MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	e, _ = ours.Get("k")
	if string(e.Value) != "theirs" {
		t.Fatal("LWW tie should take theirs")
	}
}

func TestThreeWayMergeResolver(t *testing.T) {
	base := New()
	base.Put(entry("k", "10", 1, ""))
	ours := base.Clone()
	theirs := base.Clone()
	ours.Put(entry("k", "7", 2, "me"))
	theirs.Put(entry("k", "4", 2, "them"))

	// Domain resolver: numeric minimum (airline "seats remaining" style).
	res, err := ThreeWayMerge(base, ours, theirs, MergeOptions{
		Resolver: func(c Conflict) (Entry, error) {
			if string(c.Ours.Value) < string(c.Theirs.Value) {
				return c.Ours, nil
			}
			return c.Theirs, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := ours.Get("k")
	if string(e.Value) != "4" {
		t.Fatalf("resolver result = %q", e.Value)
	}
	if len(res.Conflicts) != 1 {
		t.Fatalf("conflicts = %d", len(res.Conflicts))
	}
}

func TestThreeWayMergeResolverError(t *testing.T) {
	base := New()
	base.Put(entry("k", "v", 1, ""))
	ours := base.Clone()
	theirs := base.Clone()
	ours.Put(entry("k", "a", 2, ""))
	theirs.Put(entry("k", "b", 2, ""))
	_, err := ThreeWayMerge(base, ours, theirs, MergeOptions{
		Resolver: func(c Conflict) (Entry, error) { return Entry{}, fmt.Errorf("boom") },
	})
	if err == nil {
		t.Fatal("resolver error should propagate")
	}
}

func TestThreeWayMergeNilBase(t *testing.T) {
	ours := New()
	theirs := New()
	theirs.Put(entry("k", "v", 1, ""))
	res, err := ThreeWayMerge(nil, ours, theirs, MergeOptions{})
	if err != nil || res.Applied != 1 {
		t.Fatalf("nil base merge: %+v, %v", res, err)
	}
}

func TestThreeWayMergeNilTheirs(t *testing.T) {
	ours := New()
	res, err := ThreeWayMerge(nil, ours, nil, MergeOptions{})
	if err != nil || res.Applied != 0 {
		t.Fatalf("nil theirs: %+v, %v", res, err)
	}
}

func TestThreeWayMergeDeletionWins(t *testing.T) {
	base := New()
	base.Put(entry("k", "v", 1, ""))
	ours := base.Clone()
	theirs := base.Clone()
	theirs.Delete("k", 2, "them")
	if _, err := ThreeWayMerge(base, ours, theirs, MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	e, _ := ours.Get("k")
	if !e.Deleted {
		t.Fatal("remote deletion should fast-forward")
	}
}

func TestConflictString(t *testing.T) {
	c := Conflict{Key: "k", Ours: entry("k", "a", 1, "x"), Theirs: entry("k", "b", 2, "y")}
	s := c.String()
	if !strings.Contains(s, "k") || !strings.Contains(s, "x") || !strings.Contains(s, "y") {
		t.Fatalf("String = %q", s)
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		PolicyLastWriterWins: "last-writer-wins",
		PolicyOurs:           "ours",
		PolicyTheirs:         "theirs",
	} {
		if p.String() != want {
			t.Fatalf("%d.String() = %q", p, p.String())
		}
	}
}

func genImage(r *rand.Rand, writer string, baseVer vclock.Version) *Image {
	im := New()
	n := r.Intn(5)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%d", r.Intn(6))
		im.Put(entry(k, fmt.Sprintf("%s-%d", writer, r.Intn(3)), baseVer+vclock.Version(r.Intn(4)), writer))
	}
	im.Version = baseVer + vclock.Version(r.Intn(5))
	return im
}

// Merging theirs into ours makes ours contain theirs' content wherever
// there was no conflict resolved to ours; with PolicyTheirs, ours must end
// up containing every key of theirs with theirs' content.
func TestQuickMergePolicyTheirsAbsorbs(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	f := func() bool {
		base := genImage(r, "base", 0)
		ours := base.Clone()
		theirs := base.Clone()
		// independent mutations
		om := genImage(r, "ours", 10)
		tm := genImage(r, "theirs", 10)
		for _, e := range om.Entries {
			ours.Put(e)
		}
		for _, e := range tm.Entries {
			theirs.Put(e)
		}
		if _, err := ThreeWayMerge(base, ours, theirs, MergeOptions{Policy: PolicyTheirs}); err != nil {
			return false
		}
		for _, te := range theirs.Entries {
			k := te.Key
			oe, ok := ours.Get(k)
			if !ok {
				return false
			}
			// if theirs changed the key, ours must now equal theirs
			be, baseOK := base.Get(k)
			if !baseOK || !te.Equal(be) {
				if !oe.Equal(te) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Merge is idempotent: merging the same theirs twice changes nothing the
// second time.
func TestQuickMergeIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	f := func() bool {
		base := genImage(r, "base", 0)
		ours := base.Clone()
		theirs := base.Clone()
		for _, e := range genImage(r, "theirs", 10).Entries {
			theirs.Put(e)
		}
		if _, err := ThreeWayMerge(base, ours, theirs, MergeOptions{}); err != nil {
			return false
		}
		snapshot := ours.Clone()
		if _, err := ThreeWayMerge(base, ours, theirs, MergeOptions{}); err != nil {
			return false
		}
		return ours.Equal(snapshot)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
