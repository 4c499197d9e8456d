package property

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPropertyIntersectNameMismatch(t *testing.T) {
	p := New("Flights", DiscreteInts(1, 2))
	q := New("Seats", DiscreteInts(1, 2))
	if !p.Intersect(q).IsEmpty() {
		t.Fatal("different names must not intersect (Definition 3)")
	}
	if p.Overlaps(q) {
		t.Fatal("different names must not overlap")
	}
}

func TestPropertyIntersectSameName(t *testing.T) {
	p := New("Flights", DiscreteInts(1, 2, 3))
	q := New("Flights", DiscreteInts(3, 4))
	r := p.Intersect(q)
	if r.Name != "Flights" || !r.Domain.Equal(DiscreteInts(3)) {
		t.Fatalf("got %v, want Flights={3}", r)
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(
		New("Flights", DiscreteInts(1, 2)),
		New("Seats", Interval(0, 100)),
	)
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	if got := s.Names(); !reflect.DeepEqual(got, []string{"Flights", "Seats"}) {
		t.Fatalf("names = %v", got)
	}
	p, ok := s.Get("Seats")
	if !ok || !p.Domain.Equal(Interval(0, 100)) {
		t.Fatalf("Get(Seats) = %v, %v", p, ok)
	}
	if _, ok := s.Get("Gates"); ok {
		t.Fatal("Get of an absent name should report !ok")
	}
	var zero Set
	if !zero.IsEmpty() || zero.Len() != 0 || zero.String() != "" {
		t.Fatal("the zero Set should be the empty set")
	}
}

// TestSetPutReplacesAndRemovesEmpty checks the two rules a set enforces as
// it is built: a later property replaces an earlier one of the same name,
// and an empty property never becomes an entry.
func TestSetPutReplacesAndRemovesEmpty(t *testing.T) {
	s := NewSet(New("A", DiscreteInts(1)), New("A", DiscreteInts(2)))
	p, _ := s.Get("A")
	if !p.Domain.Equal(DiscreteInts(2)) {
		t.Fatalf("a later property should replace an earlier one; got %v", p)
	}
	s = NewSet(New("A", Empty()), New("B", Empty()))
	if s.Len() != 0 || !s.IsEmpty() {
		t.Fatalf("empty properties should not become entries; got %v", s)
	}
	s = NewSet(New("A", DiscreteInts(1)), New("B", Empty()))
	if _, ok := s.Get("B"); ok || s.Len() != 1 {
		t.Fatalf("the empty property B should be dropped; got %v", s)
	}
}

// emptySink keeps NewSet's result live, so the test below measures what a
// caller that keeps the set pays.
var emptySink Set

// TestNewSetEmptyNoAlloc: the empty set is the zero Set. Sets are
// immutable, so it needs no map of its own, and building it — every
// replication batch extracts under it — allocates nothing.
func TestNewSetEmptyNoAlloc(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { emptySink = NewSet() }); got != 0 {
		t.Fatalf("NewSet() allocs/op = %.1f, want 0", got)
	}
	if !emptySink.IsEmpty() || !emptySink.Equal(Set{}) || !emptySink.SubsetOf(MustSet("A={1}")) {
		t.Fatalf("NewSet() = %q, want the empty set", emptySink)
	}
}

func TestSetDuplicateNameLastWins(t *testing.T) {
	s := NewSet(New("A", DiscreteInts(1)), New("A", DiscreteInts(9)))
	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1", s.Len())
	}
	p, _ := s.Get("A")
	if !p.Domain.Equal(DiscreteInts(9)) {
		t.Fatalf("last writer should win, got %v", p)
	}
}

// TestPaperExample reproduces the worked example from §4.2: V1 has P={x,y},
// V2 has P={x,z}, original has P={x,y,z}. Both views conflict with the
// original and with each other through the shared member x.
func TestPaperExample(t *testing.T) {
	v1 := NewSet(New("P", Discrete("x", "y")))
	v2 := NewSet(New("P", Discrete("x", "z")))
	orig := NewSet(New("P", Discrete("x", "y", "z")))

	if DynConfl(v1, v2) != 1 {
		t.Fatal("V1 and V2 must conflict (share x)")
	}
	if DynConfl(v1, orig) != 1 || DynConfl(v2, orig) != 1 {
		t.Fatal("views must conflict with the original")
	}
	inter := v1.Intersect(v2)
	p, ok := inter.Get("P")
	if !ok || !p.Domain.Equal(Discrete("x")) {
		t.Fatalf("V1 ∩ V2 = %v, want P={x}", inter)
	}
}

func TestSetIntersectDisjoint(t *testing.T) {
	a := MustSet("Flights={100..109}")
	b := MustSet("Flights={200..209}")
	if DynConfl(a, b) != 0 {
		t.Fatal("disjoint flight ranges must not conflict")
	}
	if !a.Intersect(b).IsEmpty() {
		t.Fatal("intersection should be empty")
	}
}

func TestSetEqual(t *testing.T) {
	a := MustSet("A={1,2}; B=[0,5]")
	b := MustSet("B=[0,5]; A={2,1}")
	if !a.Equal(b) {
		t.Fatal("order-insensitive equality failed")
	}
	c := MustSet("A={1,2}; B=[0,6]")
	if a.Equal(c) {
		t.Fatal("different bounds should not be equal")
	}
}

func TestSetTextRoundTrip(t *testing.T) {
	a := MustSet("Flights={100..104}; Seats=[0,400]")
	text, err := a.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back Set
	if err := back.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(a) {
		t.Fatalf("round trip: %v != %v", back, a)
	}
}

func TestSetSubsetOf(t *testing.T) {
	view := MustSet("Flights={100..104}")
	comp := MustSet("Flights={100..199}; Seats=[0,400]")
	if !view.SubsetOf(comp) {
		t.Fatal("view data should be a subset of the component's")
	}
	if comp.SubsetOf(view) {
		t.Fatal("superset direction must fail")
	}
	// A property the component lacks breaks the subset relation.
	other := MustSet("Flights={100..104}; Gates={A1}")
	if other.SubsetOf(comp) {
		t.Fatal("unknown property should break the subset relation")
	}
	if !NewSet().SubsetOf(comp) {
		t.Fatal("empty set is a subset of everything")
	}
}

func genSet(r *rand.Rand) Set {
	n := r.Intn(4)
	props := make([]Property, 0, n)
	names := []string{"A", "B", "C", "Flights"}
	for i := 0; i < n; i++ {
		props = append(props, New(names[r.Intn(len(names))], genDomain(r)))
	}
	return NewSet(props...)
}

func TestQuickDynConflSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	f := func() bool {
		p, q := genSet(r), genSet(r)
		return DynConfl(p, q) == DynConfl(q, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSetIntersectSubset(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		p, q := genSet(r), genSet(r)
		inter := p.Intersect(q)
		// Every property in the intersection must overlap the corresponding
		// property in both operands.
		for _, ip := range inter.Properties() {
			pp, ok1 := p.Get(ip.Name)
			qp, ok2 := q.Get(ip.Name)
			if !ok1 || !ok2 || !ip.Overlaps(pp) || !ip.Overlaps(qp) {
				return false
			}
		}
		// dynConfl consistency.
		return (DynConfl(p, q) == 1) == !inter.IsEmpty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSetStringRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	f := func() bool {
		s := genSet(r)
		back, err := ParseSet(s.String())
		return err == nil && back.Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
