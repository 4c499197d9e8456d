package property

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// bruteOverlapKeys is the reference answer: a pairwise scan.
func bruteOverlapKeys(sets map[string]Set, q Set) []string {
	var out []string
	for k, s := range sets {
		if s.Overlaps(q) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func TestIndexBasics(t *testing.T) {
	x := NewIndex()
	x.Insert("a", MustSet("F={1..5}"))
	x.Insert("b", MustSet("F={5..9}"))
	x.Insert("c", MustSet("F={100}"))
	x.Insert("d", MustSet("S=[0,10]"))
	if x.Len() != 4 || !x.Has("a") || x.Has("zz") {
		t.Fatal("Len/Has")
	}
	if got := x.OverlapKeys(MustSet("F={4..6}")); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("overlap = %v", got)
	}
	if got := x.OverlapKeys(MustSet("S=[9,20]")); !reflect.DeepEqual(got, []string{"d"}) {
		t.Fatalf("overlap = %v", got)
	}
	if got := x.OverlapKeys(NewSet()); got != nil {
		t.Fatalf("empty query should match nothing, got %v", got)
	}
	// Replacement re-indexes.
	x.Insert("c", MustSet("F={5}"))
	if got := x.OverlapKeys(MustSet("F={5}")); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("after update, overlap = %v", got)
	}
	x.Remove("b")
	x.Remove("b") // idempotent
	if got := x.OverlapKeys(MustSet("F={5..9}")); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Fatalf("after remove, overlap = %v", got)
	}
}

func TestIndexVerifiesCandidates(t *testing.T) {
	x := NewIndex()
	// Covering segment [1,100] overlaps [50,50] but the discrete domain
	// does not contain 50 — the index must not report it.
	x.Insert("gap", MustSet("F={1,100}"))
	if got := x.OverlapKeys(MustSet("F={50}")); got != nil {
		t.Fatalf("covering-segment false positive leaked: %v", got)
	}
	if got := x.OverlapKeys(MustSet("F={100}")); !reflect.DeepEqual(got, []string{"gap"}) {
		t.Fatalf("exact member missed: %v", got)
	}
}

func TestIndexNonNumericMembers(t *testing.T) {
	x := NewIndex()
	x.Insert("tags", NewSet(New("T", Discrete("red", "green"))))
	x.Insert("nums", NewSet(New("T", Discrete("3", "4"))))
	if got := x.OverlapKeys(NewSet(New("T", Discrete("green")))); !reflect.DeepEqual(got, []string{"tags"}) {
		t.Fatalf("non-numeric member lookup = %v", got)
	}
	// Interval queries only see numeric members.
	if got := x.OverlapKeys(NewSet(New("T", Interval(0, 10)))); !reflect.DeepEqual(got, []string{"nums"}) {
		t.Fatalf("interval vs discrete = %v", got)
	}
	// Mixed domain: numeric members in the treap, the rest inverted.
	x.Insert("mix", NewSet(New("T", Discrete("blue", "7"))))
	if got := x.OverlapKeys(NewSet(New("T", Point(7)))); !reflect.DeepEqual(got, []string{"mix"}) {
		t.Fatalf("mixed numeric member = %v", got)
	}
	if got := x.OverlapKeys(NewSet(New("T", Discrete("blue")))); !reflect.DeepEqual(got, []string{"mix"}) {
		t.Fatalf("mixed non-numeric member = %v", got)
	}
}

func TestIndexOverlappingStops(t *testing.T) {
	x := NewIndex()
	for i := 0; i < 16; i++ {
		x.Insert(fmt.Sprintf("v%02d", i), NewSet(New("F", Interval(0, 100))))
	}
	calls := 0
	x.Overlapping(NewSet(New("F", Point(50))), func(string) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("enumeration did not stop: %d calls", calls)
	}
}

// randDomain draws an interval, a numeric discrete run, a sparse discrete
// set (sometimes with non-numeric members), or an empty domain.
func randDomain(rng *rand.Rand) Domain {
	switch rng.Intn(5) {
	case 0:
		lo := rng.Float64() * 100
		return Interval(lo, lo+rng.Float64()*20)
	case 1:
		lo := rng.Intn(100)
		return DiscreteRange(lo, lo+rng.Intn(6))
	case 2:
		var ms []string
		for i := 0; i < 1+rng.Intn(4); i++ {
			ms = append(ms, fmt.Sprint(rng.Intn(120)))
		}
		if rng.Intn(3) == 0 {
			ms = append(ms, string(rune('x'+rng.Intn(3))))
		}
		return Discrete(ms...)
	case 3:
		return Discrete(string(rune('x' + rng.Intn(3))))
	default:
		return Empty()
	}
}

func randSet(rng *rand.Rand) Set {
	names := []string{"F", "S", "T"}
	var props []Property
	for _, n := range names {
		if rng.Intn(2) == 0 {
			props = append(props, New(n, randDomain(rng)))
		}
	}
	return NewSet(props...)
}

func TestIndexMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := NewIndex()
	sets := map[string]Set{}
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("v%02d", i)
	}
	for step := 0; step < 4000; step++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(3) {
		case 0:
			s := randSet(rng)
			x.Insert(k, s)
			sets[k] = s
		case 1:
			x.Remove(k)
			delete(sets, k)
		default:
			q := randSet(rng)
			got := x.OverlapKeys(q)
			want := bruteOverlapKeys(sets, q)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: query %v\n got %v\nwant %v", step, q, got, want)
			}
		}
	}
}
