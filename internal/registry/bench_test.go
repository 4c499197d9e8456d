package registry

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"flecc/internal/property"
)

func nowNano() int64 { return time.Now().UnixNano() }

// The conflict-engine benchmarks (E16): ConflictingWith served by the
// posting index vs the retained brute-force pairwise scan, at 1k/10k/100k
// registered views. The uniform workload places each view on a narrow
// interval drawn uniformly from the property space, tuned so a query
// matches ~1% of the table; the skewed workload gives a slice of the
// views one shared hot property.

// uniformProps returns view i's property set for the uniform workload:
// one interval of width 0.5 on a [0,100] space — pairwise overlap
// probability ≈ 1%.
func uniformProps(rng *rand.Rand) property.Set {
	lo := rng.Float64() * 100
	return property.NewSet(property.New("K", property.Interval(lo, lo+0.5)))
}

// skewProps gives every 20th view a shared hot interval (all of them
// mutually conflicting) and the rest disjoint cold points.
func skewProps(rng *rand.Rand, i int) property.Set {
	if i%20 == 0 {
		return property.NewSet(property.New("H", property.Interval(0, 1)))
	}
	return property.NewSet(property.New("K", property.Interval(float64(i), float64(i))))
}

func fillRegistry(b *testing.B, r *Registry, n int, skewed bool) []string {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("view-%06d", i)
		var ps property.Set
		if skewed {
			ps = skewProps(rng, i)
		} else {
			ps = uniformProps(rng)
		}
		if err := r.Register(names[i], ps); err != nil {
			b.Fatal(err)
		}
		r.SetActive(names[i], true)
	}
	return names
}

func BenchmarkConflictQuery(b *testing.B) {
	for _, tc := range []struct {
		label  string
		skewed bool
	}{{"uniform", false}, {"skew", true}} {
		for _, n := range []int{1000, 10000, 100000} {
			for _, mode := range []struct {
				label string
				query func(r *Registry, name string, activeOnly bool) []string
			}{{"indexed", (*Registry).ConflictingWith}, {"brute", bruteConflictingWith}} {
				b.Run(fmt.Sprintf("%s/n%d/%s", tc.label, n, mode.label), func(b *testing.B) {
					r := New()
					names := fillRegistry(b, r, n, tc.skewed)
					b.ReportAllocs()
					b.ResetTimer()
					matches := 0
					for i := 0; i < b.N; i++ {
						matches += len(mode.query(r, names[i%len(names)], true))
					}
					b.StopTimer()
					b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
				})
			}
		}
	}
}

func BenchmarkRegister(b *testing.B) {
	r := New()
	rng := rand.New(rand.NewSource(42))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.Register(fmt.Sprintf("view-%09d", i), uniformProps(rng)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSpeedupAtTenK is the acceptance pin behind the benchmark: at 10k
// uniformly distributed views (~1% match rate) the indexed query must
// beat the brute-force scan by at least 20x. The margin is generous so CI
// noise does not flake it; BenchmarkConflictQuery reports the measured
// numbers.
func TestSpeedupAtTenK(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short")
	}
	const n = 10000
	r := New()
	names := fillRegistryT(t, r, n)
	indexed, brute := (*Registry).ConflictingWith, bruteConflictingWith

	q := func(query func(*Registry, string, bool) []string, iters int) float64 {
		t0 := nowNano()
		for i := 0; i < iters; i++ {
			query(r, names[i%len(names)], true)
		}
		return float64(nowNano()-t0) / float64(iters)
	}
	// Warm both paths, then measure.
	q(indexed, 50)
	q(brute, 5)
	ni := q(indexed, 2000)
	nb := q(brute, 50)
	speedup := nb / ni
	t.Logf("10k views uniform: indexed %.0f ns/op, brute %.0f ns/op, speedup %.1fx", ni, nb, speedup)
	if speedup < 20 {
		t.Fatalf("indexed ConflictingWith only %.1fx faster than brute force at 10k views (need >= 20x)", speedup)
	}
}

func fillRegistryT(t *testing.T, r *Registry, n int) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("view-%06d", i)
		if err := r.Register(names[i], uniformProps(rng)); err != nil {
			t.Fatal(err)
		}
		r.SetActive(names[i], true)
	}
	return names
}
