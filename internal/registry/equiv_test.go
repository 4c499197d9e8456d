package registry

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"flecc/internal/property"
)

// The equivalence suite drives a registry through random operation
// sequences and, after every step, demands that the indexed query plans
// answer exactly what the pairwise reference scan answers over the same
// view table — the index must be an invisible optimization.

// bruteConflictingWith answers ConflictingWith with the pairwise scan
// (bruteConflictingWithLocked) instead of the indexed plans, uncached and
// under the same read lock the indexed query takes.
func bruteConflictingWith(r *Registry, name string, activeOnly bool) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	self, ok := r.views[name]
	if !ok {
		return nil
	}
	return r.bruteConflictingWithLocked(self, activeOnly)
}

func randDomain(rng *rand.Rand) property.Domain {
	switch rng.Intn(6) {
	case 0:
		lo := rng.Float64() * 100
		return property.Interval(lo, lo+rng.Float64()*15)
	case 1:
		v := float64(rng.Intn(50))
		return property.Interval(v, v)
	case 2:
		lo := rng.Intn(80)
		return property.DiscreteRange(lo, lo+rng.Intn(8))
	case 3:
		var ms []string
		for i := 0; i < 1+rng.Intn(4); i++ {
			ms = append(ms, fmt.Sprint(rng.Intn(100)))
		}
		return property.Discrete(ms...)
	case 4:
		// Non-numeric members mixed with numeric ones.
		ms := []string{string(rune('p' + rng.Intn(4)))}
		if rng.Intn(2) == 0 {
			ms = append(ms, fmt.Sprint(rng.Intn(100)))
		}
		return property.Discrete(ms...)
	default:
		return property.Empty()
	}
}

func randPropSet(rng *rand.Rand) property.Set {
	var props []property.Property
	for _, n := range []string{"F", "S", "T"} {
		if rng.Intn(2) == 0 {
			props = append(props, property.New(n, randDomain(rng)))
		}
	}
	return property.NewSet(props...)
}

func TestIndexEquivalenceRandomOps(t *testing.T) {
	names := make([]string, 14)
	for i := range names {
		names[i] = fmt.Sprintf("v%02d", i)
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := New()
		// Exercise every defaultRel regime.
		r.SetDefaultRelation([]Relation{Dynamic, NoConflict, Conflict}[seed%3])
		// A sprinkle of static entries, set up front and mid-sequence.
		static := func() {
			a, b := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
			r.SetStatic(a, b, []Relation{Conflict, NoConflict, Dynamic}[rng.Intn(3)])
		}
		for i := 0; i < 4; i++ {
			static()
		}
		for step := 0; step < 400; step++ {
			n := names[rng.Intn(len(names))]
			switch rng.Intn(8) {
			case 0, 1:
				r.Register(n, randPropSet(rng))
			case 2:
				r.SetProps(n, randPropSet(rng))
			case 3:
				r.Unregister(n)
			case 4:
				r.SetLost(n, rng.Intn(2) == 0)
			case 5:
				r.SetActive(n, rng.Intn(2) == 0)
			case 6:
				static()
			default:
				// no structural change this step; just query below
			}
			q := names[rng.Intn(len(names))]
			var structural []string
			for _, activeOnly := range []bool{false, true} {
				got := r.ConflictingWith(q, activeOnly)
				want := bruteConflictingWith(r, q, activeOnly)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: ConflictingWith(%s, active=%v)\n got %v\nwant %v\nprops=%v",
						seed, step, q, activeOnly, got, want, propsOf(r))
				}
				if !activeOnly {
					structural = got
				}
			}
			// The pairwise predicate must agree with the indexed set: a
			// live pair conflicts exactly when one appears in the other's
			// structural set.
			o := names[rng.Intn(len(names))]
			if o != q && r.Has(q) && r.Has(o) && !isLost(r, q) && !isLost(r, o) {
				if got := r.Conflicts(q, o); got != slices.Contains(structural, o) {
					t.Fatalf("seed %d step %d: Conflicts(%s,%s)=%v but indexed set %v", seed, step, q, o, got, structural)
				}
			}
		}
	}
}

// isLost reports whether a view is registered and out of the index.
func isLost(r *Registry, name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.views[name]
	return ok && v.Lost
}

func propsOf(r *Registry) map[string]string {
	out := map[string]string{}
	for _, n := range r.Views() {
		ps, _ := r.Props(n)
		out[n] = ps.String()
	}
	return out
}

// TestConflictingWithSetPropsRace hammers SetProps against ConflictingWith
// under the race detector and asserts every query observes one coherent
// snapshot: the writer atomically flips one view between two property
// sets — one overlapping the querier, one disjoint — so a torn scan could
// only manifest as an impossible result (the view present in the result
// while its other properties say disjoint is fine; what must never happen
// is a crash or a race report, and with a two-property flip, a half-old
// half-new set would make the result disagree with both valid answers).
func TestConflictingWithSetPropsRace(t *testing.T) {
	r := New()
	if err := r.Register("q", property.MustSet("F={1..5}; S=[0,10]")); err != nil {
		t.Fatal(err)
	}
	// Both properties overlap q, or neither does: any coherent snapshot
	// yields exactly [] or [w].
	overlap := property.MustSet("F={3}; S=[5,6]")
	disjoint := property.MustSet("F={50}; S=[90,95]")
	if err := r.Register("w", overlap); err != nil {
		t.Fatal(err)
	}
	// Background noise: register/unregister churn on other names.
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				r.SetProps("w", disjoint)
			} else {
				r.SetProps("w", overlap)
			}
			n := fmt.Sprintf("churn%d", i%4)
			if i%3 == 0 {
				r.Register(n, overlap)
			} else {
				r.Unregister(n)
			}
			r.SetLost("w", i%7 == 0)
			r.SetLost("w", false)
			r.SetActive("w", true)
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 3000; i++ {
				got := r.ConflictingWith("q", false)
				for _, n := range got {
					if n == "q" {
						t.Error("query view leaked into its own conflict set")
						return
					}
				}
				r.Conflicts("q", "w")
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
