package metrics

import "sync/atomic"

// Counter is a named monotonic event counter — the shape the failure
// metrics use (e.g. the directory manager's views-evicted count). It is
// safe for concurrent use.
type Counter struct {
	name string
	n    atomic.Int64
}

// NewCounter returns a zeroed counter with the given name.
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Name returns the counter's name.
func (c *Counter) Name() string { return c.name }

// Inc adds one and returns the new value.
func (c *Counter) Inc() int64 { return c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }
