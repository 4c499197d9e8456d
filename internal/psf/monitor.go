package psf

import (
	"fmt"
	"sync"
)

// Event is an environment change noticed by the monitoring module.
type Event struct {
	// Kind is "link-latency".
	Kind string
	// Subject names the affected "a-b" link.
	Subject string
	// Old and New carry the changed value, rendered as strings.
	Old, New string
}

func (e Event) String() string {
	return fmt.Sprintf("%s %s: %s -> %s", e.Kind, e.Subject, e.Old, e.New)
}

// Monitor is the PSF monitoring module (paper §3.1 element (ii)): it holds
// the current environment state, accepts observations, and notifies
// subscribers of changes so the planning module can trigger adaptation.
type Monitor struct {
	mu   sync.Mutex
	spec *Spec
	subs []func(Event)
	// events retains history for inspection.
	events []Event
}

// NewMonitor wraps a spec whose environment the monitor tracks. The spec's
// link values are mutated in place as observations arrive, so a replan
// after a change sees the updated environment.
func NewMonitor(spec *Spec) *Monitor { return &Monitor{spec: spec} }

// Subscribe registers a change callback. Callbacks run synchronously on
// the observing goroutine, in subscription order.
func (m *Monitor) Subscribe(fn func(Event)) {
	m.mu.Lock()
	m.subs = append(m.subs, fn)
	m.mu.Unlock()
}

// Events returns a copy of the observed event history.
func (m *Monitor) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Event, len(m.events))
	copy(out, m.events)
	return out
}

func (m *Monitor) emit(e Event) {
	m.mu.Lock()
	m.events = append(m.events, e)
	subs := make([]func(Event), len(m.subs))
	copy(subs, m.subs)
	m.mu.Unlock()
	for _, fn := range subs {
		fn(e)
	}
}

// ObserveLatency records a new measured latency for a link. A change
// emits a "link-latency" event.
func (m *Monitor) ObserveLatency(a, b string, latency int) error {
	m.mu.Lock()
	var changed bool
	var old int
	found := false
	for i := range m.spec.Links {
		l := &m.spec.Links[i]
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			found = true
			old = l.Latency
			if l.Latency != latency {
				l.Latency = latency
				changed = true
			}
			break
		}
	}
	m.mu.Unlock()
	if !found {
		return fmt.Errorf("psf: monitor: no link %s-%s", a, b)
	}
	if changed {
		m.emit(Event{
			Kind: "link-latency", Subject: a + "-" + b,
			Old: fmt.Sprint(old), New: fmt.Sprint(latency),
		})
	}
	return nil
}

// Replanner glues the monitor to the planning module: any environment
// event triggers a fresh plan, delivered to the callback together with the
// triggering event. This is PSF's adaptation loop.
func Replanner(m *Monitor, spec *Spec, onPlan func(Event, *Plan, error)) {
	m.Subscribe(func(e Event) {
		p, err := PlanDeployment(spec)
		onPlan(e, p, err)
	})
}
