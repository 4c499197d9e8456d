package vclock

import (
	"math/rand"
	"testing"
)

// The version-vector algebra must satisfy the standard laws for causality
// tracking to be sound: Compare is a partial order (antisymmetric and
// transitive on the comparable pairs), and Merge is the component-wise
// join (commutative, associative, idempotent, and dominating both
// inputs). These tests check the laws over an exhaustive small domain and
// a seeded random sample of larger vectors.

// lawVectors enumerates every vector over the given ids with components in
// [0, max] — an exhaustive small domain.
func lawVectors(ids []string, max uint64) []Vector {
	out := []Vector{{}}
	for _, id := range ids {
		var next []Vector
		for _, v := range out {
			for n := uint64(0); n <= max; n++ {
				c := v.Clone()
				if n > 0 {
					c[id] = n
				}
				next = append(next, c)
			}
		}
		out = next
	}
	return out
}

// randomVectors draws vectors with components in [0, 8] over up to 4 ids
// from a fixed seed, mixing sparse and dense shapes.
func randomVectors(n int) []Vector {
	rng := rand.New(rand.NewSource(42))
	ids := []string{"a", "b", "c", "d"}
	out := make([]Vector, n)
	for i := range out {
		v := NewVector()
		for _, id := range ids {
			if rng.Intn(3) > 0 {
				v[id] = uint64(rng.Intn(9))
			}
		}
		out[i] = v
	}
	return out
}

func flip(o Ordering) Ordering {
	switch o {
	case Before:
		return After
	case After:
		return Before
	default:
		return o
	}
}

// TestCompareAntisymmetry: v.Compare(o) is always the mirror of
// o.Compare(v), and Equal holds exactly for value-identical vectors
// (absent components equal to explicit zeros).
func TestCompareAntisymmetry(t *testing.T) {
	vs := lawVectors([]string{"a", "b"}, 2)
	vs = append(vs, randomVectors(80)...)
	for _, v := range vs {
		for _, o := range vs {
			got, mirror := v.Compare(o), o.Compare(v)
			if got != flip(mirror) {
				t.Fatalf("Compare not antisymmetric: %s vs %s = %s, mirror %s", v, o, got, mirror)
			}
			same := true
			for _, id := range []string{"a", "b", "c", "d"} {
				if v[id] != o[id] {
					same = false
					break
				}
			}
			if (got == Equal) != same {
				t.Fatalf("Compare(%s, %s) = %s but value-equality is %t", v, o, got, same)
			}
		}
	}
}

// TestCompareTransitivity: Before is transitive (and with it After, by
// antisymmetry), including through Equal links.
func TestCompareTransitivity(t *testing.T) {
	vs := lawVectors([]string{"a", "b"}, 2)
	for _, x := range vs {
		for _, y := range vs {
			xy := x.Compare(y)
			if xy != Before && xy != Equal {
				continue
			}
			for _, z := range vs {
				yz := y.Compare(z)
				if yz != Before && yz != Equal {
					continue
				}
				xz := x.Compare(z)
				want := Before
				if xy == Equal && yz == Equal {
					want = Equal
				}
				if xz != want {
					t.Fatalf("transitivity broken: %s ≤ %s ≤ %s but Compare(x,z) = %s", x, y, z, xz)
				}
			}
		}
	}
}

// TestMergeLaws: Merge is commutative, associative, idempotent, and its
// result dominates both inputs (least upper bound behavior).
func TestMergeLaws(t *testing.T) {
	vs := lawVectors([]string{"a", "b"}, 2)
	vs = append(vs, randomVectors(40)...)
	merge := func(a, b Vector) Vector {
		m := a.Clone()
		m.Merge(b)
		return m
	}
	for _, a := range vs {
		if got := merge(a, a); got.Compare(a) != Equal {
			t.Fatalf("Merge not idempotent: %s ∨ %s = %s", a, a, got)
		}
		for _, b := range vs {
			ab, ba := merge(a, b), merge(b, a)
			if ab.Compare(ba) != Equal {
				t.Fatalf("Merge not commutative: %s ∨ %s = %s but %s ∨ %s = %s", a, b, ab, b, a, ba)
			}
			if !dominates(ab, a) || !dominates(ab, b) {
				t.Fatalf("Merge result %s does not dominate both inputs %s, %s", ab, a, b)
			}
			for _, c := range vs[:min(len(vs), 12)] {
				left := merge(merge(a, b), c)
				right := merge(a, merge(b, c))
				if left.Compare(right) != Equal {
					t.Fatalf("Merge not associative: (%s ∨ %s) ∨ %s = %s ≠ %s", a, b, c, left, right)
				}
			}
		}
	}
}

// TestTickOrders: ticking any component strictly advances the vector in
// causal order, and merging the ticked vector back is absorbing.
func TestTickOrders(t *testing.T) {
	for _, v := range randomVectors(50) {
		before := v.Clone()
		v.Tick("a")
		if before.Compare(v) != Before {
			t.Fatalf("Tick did not advance: %s then %s = %s", before, v, before.Compare(v))
		}
		m := before.Clone()
		m.Merge(v)
		if m.Compare(v) != Equal {
			t.Fatalf("merging a ticked successor should absorb: %s ∨ %s = %s", before, v, m)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
