package transport

import (
	"sync"
	"sync/atomic"

	"flecc/internal/wire"
)

// Observers is a composable observer fan-out: it is itself an Observer
// that forwards every message to each registered observer, in
// registration order. Every transport in this repository (Inproc, the
// TCP server/dial networks, Faulty, and the shard bridge) carries one,
// so message statistics, tracing, span correlation, and user hooks
// coexist.
//
// Ordering guarantees: for any one delivered message, observers fire
// sequentially in registration order, on the delivering goroutine,
// before the next protocol step runs. Observers therefore see messages
// in the same order the transport delivers them; they must not block,
// and must be safe for concurrent use when the network is.
//
// Add and Set are safe to call concurrently with traffic: the observer
// list is swapped atomically, and in-flight deliveries finish against
// the snapshot they started with. The zero value is an empty fan-out.
type Observers struct {
	mu   sync.Mutex // serializes mutation; reads go through list
	list atomic.Pointer[[]Observer]
}

// Add appends an observer to the fan-out (nil is ignored).
func (s *Observers) Add(o Observer) {
	if o == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snapshot()
	next := make([]Observer, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = o
	s.list.Store(&next)
}

// Set replaces the whole fan-out with the single observer o (nil clears
// it).
func (s *Observers) Set(o Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o == nil {
		s.list.Store(nil)
		return
	}
	next := []Observer{o}
	s.list.Store(&next)
}

// Len returns the number of registered observers.
func (s *Observers) Len() int { return len(s.snapshot()) }

// active reports whether a message sent now would reach any observer: a
// member that is itself a fan-out counts only if it is active in turn (a
// DialNetwork joins its own, often empty, fan-out into every client's).
// Transports skip building what only observers would see when it is false.
func (s *Observers) active() bool {
	for _, o := range s.snapshot() {
		if inner, ok := o.(*Observers); !ok || inner.active() {
			return true
		}
	}
	return false
}

// OnMessage implements Observer by fanning the message out in
// registration order.
func (s *Observers) OnMessage(from, to string, m *wire.Message) {
	for _, o := range s.snapshot() {
		o.OnMessage(from, to, m)
	}
}

func (s *Observers) snapshot() []Observer {
	if p := s.list.Load(); p != nil {
		return *p
	}
	return nil
}

// ObservableNetwork is a Network that carries an observer fan-out.
// Inproc, ServerNetwork, DialNetwork, Faulty, and the shard bridge all
// implement it, so deployment code can attach stats and tracers without
// knowing which transport it holds.
type ObservableNetwork interface {
	Network
	// AddObserver appends an observer to the network's fan-out.
	AddObserver(Observer)
}
