package property

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

func TestIntervalConstruction(t *testing.T) {
	d := Interval(1, 5)
	if d.Kind() != KindInterval {
		t.Fatalf("kind = %v, want interval", d.Kind())
	}
	lo, hi := d.Bounds()
	if lo != 1 || hi != 5 {
		t.Fatalf("bounds = [%g,%g], want [1,5]", lo, hi)
	}
	if Interval(5, 1).Kind() != KindEmpty {
		t.Fatal("inverted interval should be empty")
	}
}

func TestDiscreteDedupAndSort(t *testing.T) {
	d := Discrete("b", "a", "b", "c", "a")
	want := []string{"a", "b", "c"}
	if got := d.Members(); !reflect.DeepEqual(got, want) {
		t.Fatalf("members = %v, want %v", got, want)
	}
	if d.Size() != 3 {
		t.Fatalf("size = %d, want 3", d.Size())
	}
}

func TestDiscreteRange(t *testing.T) {
	d := DiscreteRange(10, 12)
	if !d.ContainsMember("10") || !d.ContainsMember("11") || !d.ContainsMember("12") {
		t.Fatalf("range missing members: %v", d)
	}
	if d.ContainsMember("13") {
		t.Fatal("range contains 13")
	}
	if !DiscreteRange(5, 4).IsEmpty() {
		t.Fatal("inverted range should be empty")
	}
}

func TestIntervalIntersect(t *testing.T) {
	cases := []struct {
		a, b, want Domain
	}{
		{Interval(0, 10), Interval(5, 15), Interval(5, 10)},
		{Interval(0, 10), Interval(10, 20), Interval(10, 10)},
		{Interval(0, 10), Interval(11, 20), Empty()},
		{Interval(0, 10), Empty(), Empty()},
		{Empty(), Empty(), Empty()},
	}
	for _, c := range cases {
		got := c.a.Intersect(c.b)
		if !got.Equal(c.want) {
			t.Errorf("%v ∩ %v = %v, want %v", c.a, c.b, got, c.want)
		}
		// Intersection is commutative.
		if !c.b.Intersect(c.a).Equal(got) {
			t.Errorf("%v ∩ %v not commutative", c.a, c.b)
		}
		if got.IsEmpty() == c.a.Overlaps(c.b) {
			t.Errorf("Overlaps(%v,%v) inconsistent with Intersect", c.a, c.b)
		}
	}
}

func TestDiscreteIntersect(t *testing.T) {
	a := Discrete("x", "y")
	b := Discrete("x", "z")
	got := a.Intersect(b)
	if !got.Equal(Discrete("x")) {
		t.Fatalf("got %v, want {x}", got)
	}
	if !a.Overlaps(b) {
		t.Fatal("a should overlap b")
	}
	if a.Overlaps(Discrete("q")) {
		t.Fatal("a should not overlap {q}")
	}
}

func TestMixedIntersect(t *testing.T) {
	d := Discrete("5", "10", "15", "oops")
	iv := Interval(6, 14)
	got := d.Intersect(iv)
	if !got.Equal(Discrete("10")) {
		t.Fatalf("got %v, want {10}", got)
	}
	if !iv.Intersect(d).Equal(got) {
		t.Fatal("mixed intersect not commutative")
	}
}

func TestContainsValue(t *testing.T) {
	if !Interval(1, 2).ContainsValue(1.5) {
		t.Fatal("interval should contain 1.5")
	}
	if Interval(1, 2).ContainsValue(2.5) {
		t.Fatal("interval should not contain 2.5")
	}
	if !DiscreteInts(7, 8).ContainsValue(7) {
		t.Fatal("discrete should contain 7")
	}
	if DiscreteInts(7, 8).ContainsValue(7.5) {
		t.Fatal("discrete should not contain 7.5")
	}
	if Empty().ContainsValue(0) {
		t.Fatal("empty contains nothing")
	}
}

// TestContainsValueNoAlloc: a discrete membership test renders the value
// on the stack; it is on every codec's per-record scoping path.
func TestContainsValueNoAlloc(t *testing.T) {
	d := DiscreteRange(100, 139)
	var hit bool
	if got := testing.AllocsPerRun(200, func() {
		hit = d.ContainsValue(117)
		hit = d.ContainsValue(-4) || hit
	}); got != 0 {
		t.Fatalf("ContainsValue allocs/op = %.1f, want 0", got)
	}
	if !hit {
		t.Fatal("117 should be a member")
	}
}

// TestContainsValueMatchesFormatInt checks ContainsValue against the
// rendering it replaced, ContainsMember(FormatInt(int64(v))), across small
// integers, the float64 exact-integer limit, non-integers, NaN and ±Inf,
// on domains holding negative, large and non-numeric members.
func TestContainsValueMatchesFormatInt(t *testing.T) {
	const p53 = 1 << 53
	values := []float64{p53, -p53, p53 - 1, -p53 + 1, p53 + 2, 0.5, -0.5, 99.999, 1e300, -1e300,
		math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.Copysign(0, -1)}
	for v := -1000; v <= 1000; v++ {
		values = append(values, float64(v))
	}
	domains := []Domain{
		DiscreteRange(-1000, 1000),
		DiscreteInts(-7, 0, 3, 10, 100, 999, p53, -p53, p53-1),
		Discrete("-0", "007", "1e3", "abc", "5", "50", "500", strconv.Itoa(math.MinInt64)),
		DiscreteInts(42),
	}
	ref := func(d Domain, v float64) bool {
		if v != math.Trunc(v) {
			return false
		}
		return d.ContainsMember(strconv.FormatInt(int64(v), 10))
	}
	for _, d := range domains {
		for _, v := range values {
			if got, want := d.ContainsValue(v), ref(d, v); got != want {
				t.Fatalf("%v.ContainsValue(%v) = %v, reference says %v", d, v, got, want)
			}
		}
	}
}

func TestUnion(t *testing.T) {
	got := Interval(0, 5).Union(Interval(10, 20))
	if !got.Equal(Interval(0, 20)) {
		t.Fatalf("interval union = %v, want covering [0,20]", got)
	}
	got = Discrete("a").Union(Discrete("b"))
	if !got.Equal(Discrete("a", "b")) {
		t.Fatalf("discrete union = %v", got)
	}
	got = DiscreteInts(1, 100).Union(Interval(50, 60))
	if !got.Equal(Interval(1, 100)) {
		t.Fatalf("mixed numeric union = %v, want [1,100]", got)
	}
	if !Empty().Union(Discrete("a")).Equal(Discrete("a")) {
		t.Fatal("empty union identity failed")
	}
	// Mixed with non-numeric member stays total.
	got = Discrete("x").Union(Interval(1, 2))
	if got.IsEmpty() {
		t.Fatal("mixed non-numeric union should not be empty")
	}
}

func TestDomainString(t *testing.T) {
	cases := map[string]Domain{
		"{}":      Empty(),
		"[1,5]":   Interval(1, 5),
		"{a,b}":   Discrete("a", "b"),
		"[0.5,2]": Interval(0.5, 2),
	}
	for want, d := range cases {
		if got := d.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// genDomain builds a random domain for property-based tests.
func genDomain(r *rand.Rand) Domain {
	switch r.Intn(3) {
	case 0:
		lo := float64(r.Intn(100))
		return Interval(lo, lo+float64(r.Intn(50)))
	case 1:
		n := r.Intn(6)
		ms := make([]string, n)
		for i := range ms {
			ms[i] = string(rune('a' + r.Intn(8)))
		}
		return Discrete(ms...)
	default:
		return Empty()
	}
}

func TestQuickIntersectCommutative(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b := genDomain(r), genDomain(r)
		return a.Intersect(b).Equal(b.Intersect(a)) && a.Overlaps(b) == b.Overlaps(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectIdempotentAndShrinking(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		a := genDomain(r)
		b := genDomain(r)
		inter := a.Intersect(b)
		// a∩a == a
		if !a.Intersect(a).Equal(a) {
			return false
		}
		// (a∩b)∩a == a∩b : intersection result is contained in both operands
		return inter.Intersect(a).Equal(inter) && inter.Intersect(b).Equal(inter)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOverlapsMatchesIntersect(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		a, b := genDomain(r), genDomain(r)
		return a.Overlaps(b) == !a.Intersect(b).IsEmpty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func() bool {
		d := genDomain(r)
		back, err := ParseDomain(d.String())
		return err == nil && back.Equal(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetOf(t *testing.T) {
	cases := []struct {
		a, b Domain
		want bool
	}{
		{Empty(), Interval(0, 1), true},
		{Interval(0, 1), Empty(), false},
		{Empty(), Empty(), true},
		{Interval(1, 2), Interval(0, 3), true},
		{Interval(0, 3), Interval(1, 2), false},
		{Interval(1, 2), Interval(1, 2), true},
		{Discrete("a"), Discrete("a", "b"), true},
		{Discrete("a", "c"), Discrete("a", "b"), false},
		{DiscreteInts(2, 3), Interval(1, 5), true},
		{DiscreteInts(2, 9), Interval(1, 5), false},
		{Discrete("x"), Interval(1, 5), false}, // non-numeric member
		{Point(3), DiscreteInts(3), true},
		{Point(3), DiscreteInts(4), false},
		{Interval(1, 2), DiscreteInts(1, 2), false}, // uncountable ⊄ finite
	}
	for _, c := range cases {
		if got := c.a.SubsetOf(c.b); got != c.want {
			t.Errorf("%v ⊆ %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestQuickSubsetConsistentWithIntersect(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	f := func() bool {
		a, b := genDomain(r), genDomain(r)
		if a.SubsetOf(b) {
			// a ⊆ b implies a ∩ b == a.
			return a.Intersect(b).Equal(a)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionContainsOperands(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func() bool {
		a, b := genDomain(r), genDomain(r)
		u := a.Union(b)
		// The union must overlap (contain something of) each non-empty operand.
		if !a.IsEmpty() && !u.Overlaps(a) {
			return false
		}
		if !b.IsEmpty() && !u.Overlaps(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
