package trace

import (
	"strings"
	"testing"

	"flecc/internal/image"
	"flecc/internal/wire"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(10)
	r.OnMessage("v2", "dm", &wire.Message{Type: wire.TPull, Seq: 7})
	r.OnMessage("dm", "v1", &wire.Message{Type: wire.TInvalidate, Seq: 8})
	img := image.New()
	img.Put(image.Entry{Key: "k", Value: []byte("v")})
	img.Version = 3
	r.OnMessage("v1", "dm", &wire.Message{Type: wire.TImage, Seq: 8, Img: img})
	r.OnMessage("dm", "v2", &wire.Message{Type: wire.TErr, Seq: 7, Err: "boom"})

	if r.Total() != 4 {
		t.Fatalf("total = %d", r.Total())
	}
	events := r.Events()
	if len(events) != 4 || events[0].N != 1 || events[3].N != 4 {
		t.Fatalf("events = %+v", events)
	}
	out := r.String()
	for _, want := range []string{"pull", "invalidate", "img(v3,1)", "err=boom", "seq=7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("diagram missing %q:\n%s", want, out)
		}
	}
}

func TestRecorderRingBuffer(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 7; i++ {
		r.OnMessage("a", "b", &wire.Message{Type: wire.TPull, Seq: uint64(i)})
	}
	if r.Total() != 7 {
		t.Fatalf("total = %d", r.Total())
	}
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("retained = %d", len(events))
	}
	// The most recent three, in order.
	if events[0].Seq != 4 || events[1].Seq != 5 || events[2].Seq != 6 {
		t.Fatalf("events = %+v", events)
	}
	if events[0].N != 5 {
		t.Fatalf("numbering = %+v", events[0])
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewRecorder(0) // default capacity
	r.OnMessage("a", "b", &wire.Message{Type: wire.TPull})
	r.Reset()
	if r.Total() != 0 || len(r.Events()) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestRecorderWithProtocolRun(t *testing.T) {
	// The recorder is a drop-in observer: Figure 2's strong-mode
	// invalidation sequence shows up as pull → invalidate → image → image.
	// (Wired through the real protocol in the flecc package test
	// TestTraceOption; here we just confirm the rendering order.)
	r := NewRecorder(100)
	seq := []wire.Type{wire.TPull, wire.TInvalidate, wire.TImage, wire.TImage}
	for i, typ := range seq {
		r.OnMessage("x", "y", &wire.Message{Type: typ, Seq: uint64(i)})
	}
	out := r.String()
	iPull := strings.Index(out, "pull")
	iInv := strings.Index(out, "invalidate")
	if iPull < 0 || iInv < 0 || iPull > iInv {
		t.Fatalf("ordering wrong:\n%s", out)
	}
}

// TestRecorderStringAlignment: the rendered diagram keeps the To column
// and seq= column aligned even when message types of very different
// lengths (ack vs invalidate) and node names of different lengths
// mix — the layout bug where long types collapsed the arrow padding.
func TestRecorderStringAlignment(t *testing.T) {
	r := NewRecorder(10)
	r.OnMessage("v2", "dm", &wire.Message{Type: wire.TPull, Seq: 1})
	r.OnMessage("dm", "a-long-view-name", &wire.Message{Type: wire.TInvalidate, Seq: 2})
	r.OnMessage("a-long-view-name", "dm", &wire.Message{Type: wire.TAck, Seq: 2})
	out := r.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %q", lines)
	}
	// Column positions in runes: the arrow shaft is drawn with multi-byte
	// box-drawing characters, so byte offsets don't measure alignment.
	runeIndex := func(s, sub string) int {
		b := strings.Index(s, sub)
		if b < 0 {
			return -1
		}
		return len([]rune(s[:b]))
	}
	var arrowCol, seqCol int
	for i, l := range lines {
		a := runeIndex(l, ">")
		s := runeIndex(l, "seq=")
		if a < 0 || s < 0 {
			t.Fatalf("line %d malformed: %q", i, l)
		}
		if i == 0 {
			arrowCol, seqCol = a, s
			continue
		}
		if a != arrowCol {
			t.Fatalf("arrowheads misaligned (%d vs %d):\n%s", a, arrowCol, out)
		}
		if s != seqCol {
			t.Fatalf("seq columns misaligned (%d vs %d):\n%s", s, seqCol, out)
		}
	}
	// Every arrow must retain at least the two leading and two trailing
	// dashes around its label.
	for i, l := range lines {
		if !strings.Contains(l, "──") {
			t.Fatalf("line %d lost its arrow shaft: %q", i, l)
		}
	}
}

// TestRecorderRotatedRendering: String over a rotated ring (total >
// capacity) renders exactly the retained window with original event
// numbers.
func TestRecorderRotatedRendering(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 11; i++ {
		r.OnMessage("cm", "dm", &wire.Message{Type: wire.TPull, Seq: uint64(i)})
	}
	out := r.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4:\n%s", len(lines), out)
	}
	for i, wantN := range []string{"8.", "9.", "10.", "11."} {
		if !strings.Contains(lines[i], wantN) {
			t.Fatalf("line %d = %q, want event %s", i, lines[i], wantN)
		}
	}
	if strings.Contains(out, "seq=7") {
		t.Fatalf("rotated-out event still rendered:\n%s", out)
	}
}

// TestRecorderFilterRotationResetCompose: the recorder admits every
// message, whatever its type, and admission composes with ring rotation
// and Reset — the ring keeps the newest events across rotation, and
// Reset restarts the numbering.
func TestRecorderFilterRotationResetCompose(t *testing.T) {
	r := NewRecorder(3)
	types := []wire.Type{wire.TPull, wire.TPush, wire.TInvalidate}
	for i := 1; i <= 8; i++ {
		r.OnMessage("a", "b", &wire.Message{Type: types[i%len(types)], Seq: uint64(i)})
	}
	if r.Total() != 8 {
		t.Fatalf("total = %d, want 8", r.Total())
	}
	events := r.Events()
	if len(events) != 3 || events[0].Seq != 6 || events[1].Seq != 7 || events[2].Seq != 8 {
		t.Fatalf("events = %+v", events)
	}
	if events[0].N != 6 || events[0].Type != wire.TPull {
		t.Fatalf("oldest kept event = %+v", events[0])
	}

	r.Reset()
	if r.Total() != 0 || len(r.Events()) != 0 {
		t.Fatal("reset incomplete")
	}
	r.OnMessage("a", "b", &wire.Message{Type: wire.TPush, Seq: 9})
	r.OnMessage("a", "b", &wire.Message{Type: wire.TPull, Seq: 10})
	if events := r.Events(); r.Total() != 2 || events[0].N != 1 || events[1].Seq != 10 {
		t.Fatalf("post-reset events = %+v", events)
	}
}

// TestRecorderSetFilterConcurrent: resetting and reading the recorder
// while traffic flows is safe (run under -race in CI); Reset is the one
// writer besides delivery.
func TestRecorderSetFilterConcurrent(t *testing.T) {
	r := NewRecorder(64)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				r.Reset()
			} else {
				_ = r.Events()
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		r.OnMessage("a", "b", &wire.Message{Type: wire.TPull, Seq: uint64(i)})
	}
	close(stop)
	<-done
	r.OnMessage("a", "b", &wire.Message{Type: wire.TPull, Seq: 2000})
	if r.Total() == 0 || len(r.Events()) > 64 {
		t.Fatalf("total %d, %d events kept", r.Total(), len(r.Events()))
	}
}
