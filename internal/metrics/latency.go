package metrics

import (
	"fmt"
	"sync"
	"time"
)

// bucketBounds are the fixed upper bounds (inclusive) of the latency
// histogram, roughly 3 buckets per decade from 1µs to 5s. Observations
// above the last bound land in an overflow bucket. Fixed bounds keep
// Observe allocation-free and make snapshots of different Latency
// values directly comparable.
var bucketBounds = []time.Duration{
	1 * time.Microsecond,
	2 * time.Microsecond,
	5 * time.Microsecond,
	10 * time.Microsecond,
	20 * time.Microsecond,
	50 * time.Microsecond,
	100 * time.Microsecond,
	200 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	20 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	200 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2 * time.Second,
	5 * time.Second,
}

// numBuckets includes the overflow bucket for observations above the
// last bound.
const numBuckets = 22

// bucketFor returns the histogram slot for one observation.
func bucketFor(d time.Duration) int {
	for i, b := range bucketBounds {
		if d <= b {
			return i
		}
	}
	return numBuckets - 1
}

// Latency accumulates a fixed-bucket duration histogram for one named
// operation — the per-DM pull/push/fanout hot-path counters. It is safe
// for concurrent use and cheap enough to sit on every request.
//
// All fields move together under one mutex so that readers (Snapshot,
// String) see a consistent state: historically count and the
// nanosecond total were two independent atomics, and a reader could
// load a count that included an observation whose nanoseconds had not
// landed yet — under contention Mean could exceed the largest duration
// ever observed.
type Latency struct {
	name string

	mu      sync.Mutex
	count   int64
	ns      int64
	max     time.Duration
	buckets [numBuckets]int64
}

// NewLatency returns a zeroed latency accumulator with the given name.
func NewLatency(name string) *Latency { return &Latency{name: name} }

// Name returns the accumulator's name.
func (l *Latency) Name() string { return l.name }

// Observe records one operation that took d.
func (l *Latency) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := bucketFor(d)
	l.mu.Lock()
	l.count++
	l.ns += int64(d)
	if d > l.max {
		l.max = d
	}
	l.buckets[i]++
	l.mu.Unlock()
}

// Count returns the number of observations.
func (l *Latency) Count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// TotalNs returns the accumulated nanoseconds.
func (l *Latency) TotalNs() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ns
}

// Quantile returns the upper bound of the histogram bucket containing
// the q-th quantile (q in [0,1]), or the max observation for the
// overflow bucket. Empty accumulators return 0.
func (l *Latency) Quantile(q float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.quantileLocked(q)
}

func (l *Latency) quantileLocked(q float64) time.Duration {
	if l.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based: ceil(q * count), at least 1.
	rank := int64(q * float64(l.count))
	if float64(rank) < q*float64(l.count) || rank == 0 {
		rank++
	}
	var cum int64
	for i, n := range l.buckets {
		cum += n
		if cum >= rank {
			if i < len(bucketBounds) {
				// Clamp to max: the bucket's bound can exceed anything
				// actually observed.
				if b := bucketBounds[i]; b < l.max {
					return b
				}
			}
			return l.max
		}
	}
	return l.max
}

// Snapshot is a consistent point-in-time view of one Latency.
type Snapshot struct {
	Name  string
	Count int64
	Mean  time.Duration
	Max   time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
}

// Snapshot returns a consistent view of all derived statistics, taken
// under one lock acquisition.
func (l *Latency) Snapshot() Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Snapshot{Name: l.name, Count: l.count, Max: l.max}
	if l.count > 0 {
		s.Mean = time.Duration(l.ns / l.count)
	}
	s.P50 = l.quantileLocked(0.50)
	s.P95 = l.quantileLocked(0.95)
	s.P99 = l.quantileLocked(0.99)
	return s
}

// String renders "name n=<count> avg=<mean> p50=<..> p95=<..> p99=<..>
// max=<..>" for status logs.
func (l *Latency) String() string {
	s := l.Snapshot()
	return fmt.Sprintf("%s n=%d avg=%s p50=%s p95=%s p99=%s max=%s",
		s.Name, s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}
