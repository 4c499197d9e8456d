package vclock

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Current() != 0 {
		t.Fatal("fresh counter should be 0")
	}
	if c.Next() != 1 || c.Next() != 2 {
		t.Fatal("Next should count 1,2")
	}
	if c.Current() != 2 {
		t.Fatal("Current should be 2")
	}
}

func TestCounterAdvanceTo(t *testing.T) {
	var c Counter
	c.AdvanceTo(1_000_000)
	if c.Current() != 1_000_000 {
		t.Fatalf("AdvanceTo(1e6): Current = %d", c.Current())
	}
	// Monotonic: advancing backwards is a no-op.
	c.AdvanceTo(5)
	if c.Current() != 1_000_000 {
		t.Fatalf("backward AdvanceTo moved the counter to %d", c.Current())
	}
	// Next continues from the adopted position.
	if v := c.Next(); v != 1_000_001 {
		t.Fatalf("Next after AdvanceTo = %d", v)
	}
}

func TestCounterAdvanceToConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				c.AdvanceTo(Version(i * 100))
			} else {
				c.Next()
			}
		}(i)
	}
	wg.Wait()
	// 48*100 is the highest adopted position; the interleaved Nexts can
	// only have pushed past it, never below.
	if c.Current() < 4800 {
		t.Fatalf("Current = %d, want >= 4800", c.Current())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const n = 50
	seen := make([]Version, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seen[i] = c.Next()
		}(i)
	}
	wg.Wait()
	uniq := map[Version]bool{}
	for _, v := range seen {
		if uniq[v] {
			t.Fatalf("duplicate version %d", v)
		}
		uniq[v] = true
	}
	if c.Current() != n {
		t.Fatalf("Current = %d, want %d", c.Current(), n)
	}
}

func TestVectorBasics(t *testing.T) {
	v := NewVector()
	if v.Tick("a") != 1 || v.Tick("a") != 2 || v.Tick("b") != 1 {
		t.Fatal("tick sequence wrong")
	}
	if v["a"] != 2 || v["c"] != 0 {
		t.Fatal("get wrong")
	}
	if v.String() != "{a:2, b:1}" {
		t.Fatalf("String = %q", v.String())
	}
}

func TestVectorCompare(t *testing.T) {
	a := Vector{"x": 1, "y": 2}
	b := Vector{"x": 1, "y": 2}
	if a.Compare(b) != Equal {
		t.Fatal("equal vectors")
	}
	b = Vector{"x": 2, "y": 2}
	if a.Compare(b) != Before || b.Compare(a) != After {
		t.Fatal("dominance wrong")
	}
	c := Vector{"x": 0, "y": 3}
	if a.Compare(c) != Concurrent || c.Compare(a) != Concurrent {
		t.Fatal("concurrency wrong")
	}
	// Missing components count as zero.
	d := Vector{"x": 1}
	if d.Compare(a) != Before {
		t.Fatalf("missing component: %v", d.Compare(a))
	}
}

// dominates reports whether v ≥ o component-wise.
func dominates(v, o Vector) bool {
	ord := v.Compare(o)
	return ord == Equal || ord == After
}

func TestVectorMergeAndDominates(t *testing.T) {
	a := Vector{"x": 1, "y": 5}
	b := Vector{"x": 3, "z": 2}
	a.Merge(b)
	want := Vector{"x": 3, "y": 5, "z": 2}
	if a.Compare(want) != Equal {
		t.Fatalf("merge = %v", a)
	}
	if !dominates(a, b) {
		t.Fatal("merged vector must dominate operand")
	}
}

func TestVectorClone(t *testing.T) {
	a := Vector{"x": 1}
	b := a.Clone()
	b.Tick("x")
	if a["x"] != 1 {
		t.Fatal("clone not independent")
	}
}

func genVector(r *rand.Rand) Vector {
	v := NewVector()
	for _, id := range []string{"a", "b", "c"} {
		for i := r.Intn(4); i > 0; i-- {
			v.Tick(id)
		}
	}
	return v
}

// Merge is a join: the result dominates both operands, and merging is
// commutative and idempotent.
func TestQuickMergeIsJoin(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	f := func() bool {
		a, b := genVector(r), genVector(r)
		m1 := a.Clone()
		m1.Merge(b)
		m2 := b.Clone()
		m2.Merge(a)
		if m1.Compare(m2) != Equal {
			return false
		}
		if !dominates(m1, a) || !dominates(m1, b) {
			return false
		}
		m3 := m1.Clone()
		m3.Merge(m1)
		return m3.Compare(m1) == Equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Compare is antisymmetric: Before/After swap, Equal/Concurrent invariant.
func TestQuickCompareAntisymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	f := func() bool {
		a, b := genVector(r), genVector(r)
		ab, ba := a.Compare(b), b.Compare(a)
		switch ab {
		case Equal:
			return ba == Equal
		case Before:
			return ba == After
		case After:
			return ba == Before
		default:
			return ba == Concurrent
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOrderingString(t *testing.T) {
	for o, want := range map[Ordering]string{Equal: "equal", Before: "before", After: "after", Concurrent: "concurrent"} {
		if o.String() != want {
			t.Fatalf("%d.String() = %q", o, o.String())
		}
	}
}
