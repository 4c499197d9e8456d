package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLatencyAccumulates(t *testing.T) {
	l := NewLatency("pull")
	if l.Name() != "pull" {
		t.Fatalf("name = %q", l.Name())
	}
	if l.Count() != 0 || l.TotalNs() != 0 || l.Snapshot().Mean != 0 {
		t.Fatalf("fresh latency not zero: %s", l)
	}
	l.Observe(10 * time.Millisecond)
	l.Observe(30 * time.Millisecond)
	if l.Count() != 2 {
		t.Fatalf("count = %d, want 2", l.Count())
	}
	if got := l.TotalNs(); got != int64(40*time.Millisecond) {
		t.Fatalf("total = %d ns", got)
	}
	if got := l.Snapshot().Mean; got != 20*time.Millisecond {
		t.Fatalf("mean = %s, want 20ms", got)
	}
}

func TestLatencyConcurrent(t *testing.T) {
	l := NewLatency("fanout")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				l.Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if l.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", l.Count())
	}
	if l.TotalNs() != 8000*int64(time.Microsecond) {
		t.Fatalf("total = %d", l.TotalNs())
	}
}

func TestLatencyQuantiles(t *testing.T) {
	l := NewLatency("pull")
	if s := l.Snapshot(); s.P50 != 0 || s.P99 != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	// 90 fast observations, 10 slow: p50 lands in the fast bucket, p95
	// and p99 in the slow one, and nothing exceeds Max.
	for i := 0; i < 90; i++ {
		l.Observe(80 * time.Microsecond) // bucket bound 100µs
	}
	for i := 0; i < 10; i++ {
		l.Observe(40 * time.Millisecond) // bucket bound 50ms
	}
	s := l.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != 40*time.Millisecond {
		t.Fatalf("max = %v", s.Max)
	}
	if s.P50 != 100*time.Microsecond {
		t.Fatalf("p50 = %v, want the 100µs bucket bound", s.P50)
	}
	if s.P95 != 40*time.Millisecond || s.P99 != 40*time.Millisecond {
		t.Fatalf("p95 = %v p99 = %v, want clamped to max 40ms", s.P95, s.P99)
	}
	if s.Mean > s.Max {
		t.Fatalf("mean %v exceeds max %v", s.Mean, s.Max)
	}
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if d := l.Quantile(q); d < 0 || d > s.Max {
			t.Fatalf("Quantile(%v) = %v out of range", q, d)
		}
	}
}

func TestLatencyOverflowBucket(t *testing.T) {
	l := NewLatency("slow")
	l.Observe(30 * time.Second) // above the last bound
	s := l.Snapshot()
	if s.P50 != 30*time.Second || s.Max != 30*time.Second {
		t.Fatalf("overflow snapshot = %+v", s)
	}
}

// TestLatencyNoTearing hammers Observe from several writers while
// readers take means and snapshots, asserting the mean can never
// exceed the largest duration any writer submits. Before the fix the
// count and nanosecond total were two independent atomics, so a reader
// could pair a fresh count with a stale total (or vice versa) and
// report impossible means. Run with -race in CI.
func TestLatencyNoTearing(t *testing.T) {
	l := NewLatency("pull")
	const maxD = 50 * time.Millisecond
	durations := []time.Duration{time.Microsecond, time.Millisecond, maxD}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				l.Observe(durations[(i+w)%len(durations)])
			}
		}(w)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		s := l.Snapshot()
		if s.Mean > maxD {
			t.Fatalf("torn mean: %v exceeds max observed %v", s.Mean, maxD)
		}
		if s.Mean > s.Max {
			t.Fatalf("torn snapshot: mean %v > max %v", s.Mean, s.Max)
		}
		if s.Count > 0 && s.P99 > s.Max {
			t.Fatalf("p99 %v > max %v", s.P99, s.Max)
		}
	}
	close(stop)
	wg.Wait()
}

func TestLatencyStringIncludesQuantiles(t *testing.T) {
	l := NewLatency("push")
	l.Observe(3 * time.Millisecond)
	out := l.String()
	for _, want := range []string{"push", "n=1", "p50=", "p95=", "p99=", "max=3ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() = %q missing %q", out, want)
		}
	}
}
