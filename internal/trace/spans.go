package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"flecc/internal/wire"
)

// Child is one downstream call made while serving a root request — an
// invalidate or gather fan-out leg, a shard hop, a checkpoint write.
type Child struct {
	// To is the callee node.
	To string
	// Type is the outbound request type.
	Type wire.Type
	// Seq correlates the outbound request with its reply.
	Seq uint64
	// Start, End bracket the call; End is zero when the reply was never
	// observed (dropped by a fault, or the span closed first).
	Start, End time.Time
	// Err carries the reply's error, if any.
	Err string
}

// Span is one served request at the recorded node, with the downstream
// calls issued on its behalf — a pull that triggered an invalidate and
// two gathers renders as one span with three children, which is
// Figure 2's numbered arrows grouped by cause rather than by time.
type Span struct {
	// N is the 1-based completion number of the span.
	N int
	// From is the requesting node; Seq is the request's correlation id.
	From string
	Seq  uint64
	// Type is the root request type.
	Type wire.Type
	// Start is the request's arrival, End the reply's departure.
	Start, End time.Time
	// Err carries the reply's error, if any.
	Err string
	// Children are the downstream calls, in issue order.
	Children []Child
}

// Duration returns End - Start.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

type spanKey struct {
	from string
	seq  uint64
}

type childKey struct {
	to  string
	seq uint64
}

type openSpan struct {
	span     Span
	children map[childKey]int // child index by outbound correlation key
}

// maxOpenSpans bounds the stack of in-flight spans so a reply that is
// never observed (dropped by a fault injector, or a crashed handler)
// cannot leak memory forever; the oldest open span is discarded when
// the bound is hit.
const maxOpenSpans = 256

// SpanRecorder is a transport observer that reconstructs request spans
// for one node from the message stream: a request arriving at the node
// opens a span, outbound requests issued before its reply leaves attach
// as children (correlated to their replies by destination and Seq), and
// the reply leaving closes the span into a bounded ring of completed
// spans.
//
// On a synchronous transport (Inproc, the in-process shard bridge) the
// delivery order makes child attribution exact. On TCP, concurrent
// requests interleave in the frame stream, so a child issued while two
// spans are open attaches to the most recently opened one — best
// effort, which is the honest limit of observing without propagating a
// context through handlers.
type SpanRecorder struct {
	node string
	cap  int
	now  func() time.Time

	mu    sync.Mutex
	stack []*openSpan           // open spans, oldest first
	byKey map[spanKey]*openSpan // root correlation
	done  []Span                // completed ring
	next  int
	total int
}

// NewSpanRecorder records spans for the named node, keeping the most
// recent capacity completed spans (capacity <= 0 means 256).
func NewSpanRecorder(node string, capacity int) *SpanRecorder {
	if capacity <= 0 {
		capacity = 256
	}
	return &SpanRecorder{
		node:  node,
		cap:   capacity,
		now:   time.Now,
		byKey: map[spanKey]*openSpan{},
	}
}

// SetNow replaces the clock (tests).
func (r *SpanRecorder) SetNow(fn func() time.Time) {
	if fn != nil {
		r.now = fn
	}
}

// OnMessage implements transport.Observer.
func (r *SpanRecorder) OnMessage(from, to string, m *wire.Message) {
	// Handshake frames are transport-level, not protocol requests; their
	// ack type is not a wire reply, so admitting them would leak open
	// roots that never close.
	if m.Type == wire.THello || m.Type == wire.THelloAck {
		return
	}
	isReply := m.IsReply()
	switch {
	case to == r.node && !isReply:
		r.openRoot(from, m)
	case from == r.node && isReply:
		r.closeRoot(to, m)
	case from == r.node && !isReply:
		r.openChild(to, m)
	case to == r.node && isReply:
		r.closeChild(from, m)
	}
}

func (r *SpanRecorder) openRoot(from string, m *wire.Message) {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byKey[spanKey{from, m.Seq}]; dup {
		// The same frame can be observed at two layers (TCP wire and the
		// in-process shard bridge); the first observation wins.
		return
	}
	if len(r.stack) >= maxOpenSpans {
		dropped := r.stack[0]
		r.stack = r.stack[1:]
		delete(r.byKey, spanKey{dropped.span.From, dropped.span.Seq})
	}
	os := &openSpan{
		span:     Span{From: from, Seq: m.Seq, Type: m.Type, Start: t},
		children: map[childKey]int{},
	}
	r.stack = append(r.stack, os)
	r.byKey[spanKey{from, m.Seq}] = os
}

func (r *SpanRecorder) closeRoot(to string, m *wire.Message) {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	key := spanKey{to, m.Seq}
	os := r.byKey[key]
	if os == nil {
		return
	}
	delete(r.byKey, key)
	for i, s := range r.stack {
		if s == os {
			r.stack = append(r.stack[:i], r.stack[i+1:]...)
			break
		}
	}
	os.span.End = t
	os.span.Err = m.Err
	r.total++
	os.span.N = r.total
	if len(r.done) < r.cap {
		r.done = append(r.done, os.span)
		return
	}
	r.done[r.next] = os.span
	r.next = (r.next + 1) % r.cap
}

func (r *SpanRecorder) openChild(to string, m *wire.Message) {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.stack) == 0 {
		return // spontaneous outbound call, not serving anything
	}
	os := r.stack[len(r.stack)-1]
	os.children[childKey{to, m.Seq}] = len(os.span.Children)
	os.span.Children = append(os.span.Children, Child{To: to, Type: m.Type, Seq: m.Seq, Start: t})
}

func (r *SpanRecorder) closeChild(from string, m *wire.Message) {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	key := childKey{from, m.Seq}
	// Search open spans newest-first: the reply belongs to the most
	// recent span that issued a matching call.
	for i := len(r.stack) - 1; i >= 0; i-- {
		os := r.stack[i]
		if idx, ok := os.children[key]; ok {
			c := &os.span.Children[idx]
			if c.End.IsZero() {
				c.End = t
				c.Err = m.Err
				delete(os.children, key)
			}
			return
		}
	}
}

// Total returns how many spans have completed (including any rotated
// out of the ring).
func (r *SpanRecorder) Total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Open returns how many spans are currently in flight.
func (r *SpanRecorder) Open() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.stack)
}

// Spans returns the retained completed spans in completion order.
func (r *SpanRecorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.done))
	if len(r.done) < r.cap {
		out = append(out, r.done...)
		return out
	}
	out = append(out, r.done[r.next:]...)
	out = append(out, r.done[:r.next]...)
	return out
}

// Reset clears completed spans; in-flight spans keep accumulating.
func (r *SpanRecorder) Reset() {
	r.mu.Lock()
	r.done = nil
	r.next = 0
	r.total = 0
	r.mu.Unlock()
}

// String renders the retained spans as an indented call tree:
//
//  42. pull v2→dm seq=7 812µs
//     ├─ invalidate →v1 seq=8 120µs
//     └─ gather →v3 seq=9 240µs
func (r *SpanRecorder) String() string {
	spans := r.Spans()
	var b strings.Builder
	for _, s := range spans {
		fmt.Fprintf(&b, "%5d. %s %s→%s seq=%d %s", s.N, s.Type, s.From, r.node, s.Seq, s.Duration())
		if s.Err != "" {
			fmt.Fprintf(&b, " err=%s", s.Err)
		}
		b.WriteByte('\n')
		for i, c := range s.Children {
			branch := "├─"
			if i == len(s.Children)-1 {
				branch = "└─"
			}
			fmt.Fprintf(&b, "         %s %s →%s seq=%d", branch, c.Type, c.To, c.Seq)
			if c.End.IsZero() {
				b.WriteString(" (no reply)")
			} else {
				fmt.Fprintf(&b, " %s", c.End.Sub(c.Start))
			}
			if c.Err != "" {
				fmt.Fprintf(&b, " err=%s", c.Err)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
