// Package vclock provides Flecc's discrete representation of time T
// (paper §4.1), plus the version bookkeeping the protocol uses to measure
// data quality ("number of remote unseen updates").
//
// Two clock implementations exist: Real (wall time in milliseconds, for the
// TCP daemon) and Sim (a manually advanced virtual clock with an embedded
// deterministic event scheduler, used by all experiments so that figures
// are exactly reproducible).
package vclock

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Time is a discrete timestamp in virtual milliseconds.
type Time int64

// String renders the time as "1500ms".
func (t Time) String() string { return fmt.Sprintf("%dms", int64(t)) }

// Duration is a span of virtual milliseconds.
type Duration = Time

// Clock supplies the current discrete time.
type Clock interface {
	// Now returns the current time.
	Now() Time
}

// Real is a Clock backed by wall time, in milliseconds since construction.
type Real struct {
	start time.Time
}

// NewReal returns a wall-clock whose epoch is "now".
func NewReal() *Real { return &Real{start: time.Now()} }

// Now implements Clock.
func (r *Real) Now() Time { return Time(time.Since(r.start) / time.Millisecond) }

// WaitUntil returns once c reads t or later. Under a Sim clock the wait
// passes in virtual time: the clock is advanced to t, firing no event, as
// Advance does. Any other clock is taken to follow wall time and slept on.
func WaitUntil(c Clock, t Time) {
	if s, ok := c.(*Sim); ok {
		s.mu.Lock()
		s.now = max(s.now, t)
		s.mu.Unlock()
		return
	}
	for now := c.Now(); now < t; now = c.Now() {
		time.Sleep(time.Duration(t-now) * time.Millisecond)
	}
}

// event is a scheduled callback.
type event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among same-time events, for determinism
	fn   func()
	heap int
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heap, h[j].heap = i, j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.heap = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Sim is a deterministic simulated clock with an event queue. Events
// scheduled for the same instant fire in scheduling order. Sim is safe for
// concurrent use, but the experiments drive it single-threaded for
// reproducibility.
type Sim struct {
	mu     sync.Mutex
	now    Time
	seq    uint64
	events eventHeap
}

// NewSim returns a simulated clock starting at time 0.
func NewSim() *Sim { return &Sim{} }

// Now implements Clock.
func (s *Sim) Now() Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// At schedules fn to run when the clock reaches t. Scheduling in the past
// (t < Now) runs the event at the current time on the next step. It returns
// a cancel function; cancelling an already-fired event is a no-op.
func (s *Sim) At(t Time, fn func()) (cancel func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t < s.now {
		t = s.now
	}
	e := &event{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.events, e)
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if e.fn == nil {
			return
		}
		e.fn = nil // mark cancelled; leave in heap, skipped on pop
	}
}

// After schedules fn to run d milliseconds from now.
func (s *Sim) After(d Duration, fn func()) (cancel func()) {
	s.mu.Lock()
	at := s.now + d
	s.mu.Unlock()
	return s.At(at, fn)
}

// Step fires the earliest pending event (advancing the clock to its time)
// and reports whether an event was fired.
func (s *Sim) Step() bool {
	for {
		s.mu.Lock()
		if len(s.events) == 0 {
			s.mu.Unlock()
			return false
		}
		e := heap.Pop(&s.events).(*event)
		if e.at > s.now {
			s.now = e.at
		}
		fn := e.fn
		s.mu.Unlock()
		if fn == nil {
			continue // cancelled
		}
		fn()
		return true
	}
}

// RunUntil fires events in order until the next event would be after t (or
// the queue empties), then advances the clock to exactly t. It returns the
// number of events fired.
func (s *Sim) RunUntil(t Time) int {
	fired := 0
	for {
		s.mu.Lock()
		if len(s.events) == 0 || s.events[0].at > t {
			if s.now < t {
				s.now = t
			}
			s.mu.Unlock()
			return fired
		}
		s.mu.Unlock()
		if s.Step() {
			fired++
		}
	}
}

// Advance moves the clock forward by d without firing events scheduled in
// the skipped window; it is meant for tests that need a bare time bump.
// Most callers want RunUntil instead.
func (s *Sim) Advance(d Duration) {
	s.mu.Lock()
	s.now += d
	s.mu.Unlock()
}
