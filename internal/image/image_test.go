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
	im.Put(Entry{Key: "f/1", Version: 3, Writer: "v2", Deleted: true})
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

// Any sequence of Puts, live or tombstone, and in-place removals leaves
// the entries sorted with no key twice, and agrees with a map holding the
// same operations; Get finds exactly the model's keys.
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
				im.Put(Entry{Key: k, Version: 7, Writer: "d", Deleted: true})
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

func TestConflictString(t *testing.T) {
	c := Conflict{Key: "k", Ours: entry("k", "a", 1, "x"), Theirs: entry("k", "b", 2, "y")}
	s := c.String()
	if !strings.Contains(s, "k") || !strings.Contains(s, "x") || !strings.Contains(s, "y") {
		t.Fatalf("String = %q", s)
	}
}
