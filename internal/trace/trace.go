// Package trace records protocol message flows and renders them as text
// sequence diagrams — the debugging view of Figure 2's numbered arrows.
// A Recorder plugs into any transport as an Observer; every message
// becomes one arrow line:
//
//  12. v2 ──pull──────────> dm    seq=7
//  13. dm ──invalidate────> v1    seq=8
//  14. v1 ──image─────────> dm    seq=8  img(v3,2)
//
// Recorders are bounded ring buffers, so they can stay attached to
// long-running systems.
package trace

import (
	"fmt"
	"strings"
	"sync"

	"flecc/internal/wire"
)

// Event is one recorded message.
type Event struct {
	// N is the 1-based sequence number of the event in the recording.
	N int
	// From, To are the node names.
	From, To string
	// Type is the message type.
	Type wire.Type
	// Seq is the request/reply correlation id.
	Seq uint64
	// Note summarizes the payload (image sizes, errors).
	Note string
}

// Recorder is a bounded transport observer.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	next   int // ring write position when full
	total  int
	cap    int
}

// NewRecorder returns a recorder keeping the most recent capacity events
// (capacity <= 0 means 1024).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Recorder{cap: capacity}
}

// OnMessage implements transport.Observer.
func (r *Recorder) OnMessage(from, to string, m *wire.Message) {
	var note string
	if m.Img != nil {
		note = fmt.Sprintf("img(v%d,%d)", m.Img.Version, m.Img.Len())
	}
	if m.Err != "" {
		if note != "" {
			note += " "
		}
		note += "err=" + m.Err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	e := Event{N: r.total, From: from, To: to, Type: m.Type, Seq: m.Seq, Note: note}
	if len(r.events) < r.cap {
		r.events = append(r.events, e)
		return
	}
	r.events[r.next] = e
	r.next = (r.next + 1) % r.cap
}

// Total returns how many messages were observed (including any that have
// rotated out of the buffer).
func (r *Recorder) Total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Events returns the retained events in arrival order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.events))
	if len(r.events) < r.cap {
		out = append(out, r.events...)
		return out
	}
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Reset clears the recording.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = nil
	r.next = 0
	r.total = 0
	r.mu.Unlock()
}

// String renders the retained events as a sequence diagram. Column
// widths adapt to the retained events: the name column covers both
// From and To names (an event's To is the next line's From as replies
// turn around, so both must fit), and the arrow column covers the
// longest message type, so long types like invalidate keep every
// arrowhead and the seq= column aligned.
func (r *Recorder) String() string {
	events := r.Events()
	var b strings.Builder
	nameW, typeW := 0, 0
	for _, e := range events {
		nameW = max(nameW, len(e.From), len(e.To))
		typeW = max(typeW, len(e.Type.String()))
	}
	for _, e := range events {
		t := e.Type.String()
		arrow := "──" + t + strings.Repeat("─", typeW-len(t)+2) + ">"
		fmt.Fprintf(&b, "%5d.  %-*s %s %-*s  seq=%d", e.N, nameW, e.From, arrow, nameW, e.To, e.Seq)
		if e.Note != "" {
			b.WriteString("  " + e.Note)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
