package registry

import (
	"reflect"
	"sync"
	"testing"

	"flecc/internal/property"
)

func TestRegisterUnregister(t *testing.T) {
	r := New()
	if err := r.Register("v1", property.MustSet("A={1}")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("v1", property.NewSet()); err == nil {
		t.Fatal("duplicate register should fail")
	}
	if !r.Has("v1") || len(r.Views()) != 1 {
		t.Fatal("v1 should be registered")
	}
	r.Unregister("v1")
	r.Unregister("v1") // idempotent
	if r.Has("v1") {
		t.Fatal("v1 should be gone")
	}
}

func TestStaticMatrixSymmetric(t *testing.T) {
	r := New()
	r.SetStatic("a", "b", Conflict)
	rel := func(a, b string) Relation {
		r.mu.RLock()
		defer r.mu.RUnlock()
		return r.staticRelationLocked(a, b)
	}
	if rel("a", "b") != Conflict || rel("b", "a") != Conflict {
		t.Fatal("static matrix must be symmetric")
	}
	if rel("a", "a") != Conflict {
		t.Fatal("diagonal must be Conflict")
	}
	if rel("a", "zz") != Dynamic {
		t.Fatal("default must be Dynamic")
	}
}

func TestConflictsStaticOne(t *testing.T) {
	r := New()
	// Static 1 but disjoint properties: static wins.
	r.Register("a", property.MustSet("P={1}"))
	r.Register("b", property.MustSet("P={2}"))
	r.SetStatic("a", "b", Conflict)
	if !r.Conflicts("a", "b") {
		t.Fatal("static 1 should force conflict")
	}
}

func TestConflictsStaticZero(t *testing.T) {
	r := New()
	// Static 0 but overlapping properties: static wins.
	r.Register("a", property.MustSet("P={1}"))
	r.Register("b", property.MustSet("P={1}"))
	r.SetStatic("a", "b", NoConflict)
	if r.Conflicts("a", "b") {
		t.Fatal("static 0 should suppress conflict")
	}
}

func TestConflictsDynamic(t *testing.T) {
	r := New()
	r.Register("a", property.MustSet("Flights={100..104}"))
	r.Register("b", property.MustSet("Flights={104..108}"))
	r.Register("c", property.MustSet("Flights={200..204}"))
	if !r.Conflicts("a", "b") {
		t.Fatal("overlapping flights should conflict")
	}
	if r.Conflicts("a", "c") {
		t.Fatal("disjoint flights should not conflict")
	}
	// Property update changes the answer at run time.
	if err := r.SetProps("c", property.MustSet("Flights={104}")); err != nil {
		t.Fatal(err)
	}
	if !r.Conflicts("a", "c") {
		t.Fatal("after SetProps, a and c should conflict")
	}
}

func TestConflictsUnregistered(t *testing.T) {
	r := New()
	r.Register("a", property.MustSet("P={1}"))
	if r.Conflicts("a", "ghost") || r.Conflicts("ghost", "a") {
		t.Fatal("unregistered views never conflict")
	}
	r.SetStatic("a", "ghost", Conflict)
	if r.Conflicts("a", "ghost") {
		t.Fatal("static conflict with unregistered view must not fire")
	}
}

func TestSetPropsUnregistered(t *testing.T) {
	r := New()
	if err := r.SetProps("nope", property.NewSet()); err == nil {
		t.Fatal("SetProps on unknown view should fail")
	}
}

// TestPropsIsRegisteredSet: Props hands back the set a view registered (or
// last set), shared rather than copied since sets are immutable, and the
// empty set for an unknown view — the set the directory then scopes by.
func TestPropsIsRegisteredSet(t *testing.T) {
	r := New()
	in := property.MustSet("P={1}; Q=[0,9]")
	r.Register("a", in)
	got, ok := r.Props("a")
	if !ok || !got.Equal(in) {
		t.Fatalf("Props = %v, %v; want the registered %v", got, ok, in)
	}
	next := property.MustSet("P={2}")
	if err := r.SetProps("a", next); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Props("a"); !got.Equal(next) {
		t.Fatalf("after SetProps, Props = %v; want %v", got, next)
	}
	if got, ok := r.Props("ghost"); ok || !got.IsEmpty() {
		t.Fatalf("Props of an unknown view = %v, %v; want the empty set, !ok", got, ok)
	}
}

// TestActiveTracking: the SetActive shim is what ConflictingWith's
// activeOnly filter reads; an unknown name is ignored.
func TestActiveTracking(t *testing.T) {
	r := New()
	r.Register("me", property.MustSet("F={1}"))
	r.Register("a", property.MustSet("F={1}"))
	if got := r.ConflictingWith("me", true); got != nil {
		t.Fatalf("fresh view counted active: %v", got)
	}
	r.SetActive("a", true)
	if got := r.ConflictingWith("me", true); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("active conflicts = %v", got)
	}
	r.SetActive("ghost", true) // no-op
	if r.Has("ghost") {
		t.Fatal("SetActive registered an unknown view")
	}
}

func TestConflictingWith(t *testing.T) {
	r := New()
	r.Register("me", property.MustSet("F={1..5}"))
	r.Register("overlap1", property.MustSet("F={5..9}"))
	r.Register("overlap2", property.MustSet("F={1}"))
	r.Register("disjoint", property.MustSet("F={100}"))
	r.SetActive("overlap1", true)

	all := r.ConflictingWith("me", false)
	if !reflect.DeepEqual(all, []string{"overlap1", "overlap2"}) {
		t.Fatalf("all conflicts = %v", all)
	}
	active := r.ConflictingWith("me", true)
	if !reflect.DeepEqual(active, []string{"overlap1"}) {
		t.Fatalf("active conflicts = %v", active)
	}
}

func TestDefaultRelationWorstCase(t *testing.T) {
	r := New()
	r.SetDefaultRelation(Conflict)
	r.Register("a", property.MustSet("F={1}"))
	r.Register("b", property.MustSet("F={99}"))
	if !r.Conflicts("a", "b") {
		t.Fatal("worst-case default should make everyone conflict")
	}
}

func TestViewsSorted(t *testing.T) {
	r := New()
	for _, n := range []string{"c", "a", "b"} {
		r.Register(n, property.NewSet())
	}
	if got := r.Views(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("views = %v", got)
	}
}

func TestRelationString(t *testing.T) {
	for rel, want := range map[Relation]string{
		NoConflict: "no-conflict", Conflict: "conflict", Dynamic: "dynamic",
	} {
		if rel.String() != want {
			t.Fatalf("%d.String() = %q", rel, rel.String())
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i))
			r.Register(name, property.MustSet("F={1..3}"))
			for j := 0; j < 50; j++ {
				r.Conflicts(name, "a")
				r.ConflictingWith(name, false)
				r.SetActive(name, j%2 == 0)
			}
		}(i)
	}
	wg.Wait()
}
