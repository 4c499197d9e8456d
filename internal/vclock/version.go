package vclock

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Version is a monotonically increasing update counter. The directory
// manager stamps every committed update to the primary copy with the next
// Version; a view's data quality at any instant is the difference between
// the primary's Version and the Version the view last observed — i.e. the
// paper's "number of remote unseen updates".
type Version uint64

// Counter is a concurrency-safe Version generator.
type Counter struct {
	mu sync.Mutex
	v  Version
}

// Next increments and returns the new version.
func (c *Counter) Next() Version {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.v++
	return c.v
}

// Current returns the latest issued version (0 if none).
func (c *Counter) Current() Version {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// AdvanceTo fast-forwards the counter to v in a single step. It is
// monotonic: a v at or below the current value is a no-op, so concurrent
// advances and Next calls can interleave safely. Snapshot restore and
// replication absorption use it to adopt another counter's position without
// issuing (and discarding) every intermediate version.
func (c *Counter) AdvanceTo(v Version) {
	c.mu.Lock()
	if v > c.v {
		c.v = v
	}
	c.mu.Unlock()
}

// Vector is a version vector mapping replica IDs to the highest update
// counter observed from that replica. Flecc's centralized protocol only
// needs scalar versions, but the decentralized extension (internal/peer,
// paper §6 future work) uses vectors for causality tracking.
type Vector map[string]uint64

// NewVector returns an empty vector.
func NewVector() Vector { return Vector{} }

// Clone returns an independent copy.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	for k, n := range v {
		c[k] = n
	}
	return c
}

// Tick increments the component for id and returns the new value.
func (v Vector) Tick(id string) uint64 {
	v[id]++
	return v[id]
}

// Merge folds o into v component-wise (max), the standard join.
func (v Vector) Merge(o Vector) {
	for k, n := range o {
		if n > v[k] {
			v[k] = n
		}
	}
}

// Ordering relates two vectors.
type Ordering int8

const (
	// Equal: identical vectors.
	Equal Ordering = iota
	// Before: v happened-before o (v ≤ o, v ≠ o).
	Before
	// After: o happened-before v.
	After
	// Concurrent: neither dominates — a real conflict.
	Concurrent
)

func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	default:
		return "concurrent"
	}
}

// Compare returns the causal ordering between v and o.
func (v Vector) Compare(o Vector) Ordering {
	vLess, oLess := false, false
	for k, n := range v {
		if m := o[k]; n < m {
			vLess = true
		} else if n > m {
			oLess = true
		}
	}
	for k, m := range o {
		if n := v[k]; n < m {
			vLess = true
		} else if n > m {
			oLess = true
		}
	}
	switch {
	case vLess && oLess:
		return Concurrent
	case vLess:
		return Before
	case oLess:
		return After
	default:
		return Equal
	}
}

// String renders the vector deterministically, e.g. "{a:1, b:3}".
func (v Vector) String() string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, v[k])
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
