package wire

import (
	"reflect"
	"testing"

	"flecc/internal/image"
)

// sharedAck stands in for a package-level reply that a handler returns to
// every caller, as a cache manager's clean collect does.
var sharedAck = &Message{Type: TAck, Version: 9}

// TestRecycleTakesOnlyPooled: Recycle hands back only what the pool made.
// A struct literal and a package-level shared reply come out of it
// unchanged, so a caller that recycles every reply it reads cannot zero a
// reply another caller still holds. A pooled message is zeroed once; a
// second Recycle of a kept pointer is a no-op.
func TestRecycleTakesOnlyPooled(t *testing.T) {
	literal := &Message{Type: TPull, From: "v", View: "v", Since: 7, Version: 3}
	want := *literal
	Recycle(literal)
	if !reflect.DeepEqual(*literal, want) {
		t.Errorf("a struct literal reads %+v after Recycle, want %+v", *literal, want)
	}
	wantShared := *sharedAck
	Recycle(sharedAck)
	if !reflect.DeepEqual(*sharedAck, wantShared) {
		t.Errorf("a shared reply reads %+v after Recycle, want %+v", *sharedAck, wantShared)
	}

	for _, src := range []*Message{
		{Type: TAck, Seq: 4, From: "dm", Version: 9},
		{Type: TImage, From: "dm", Version: 9, Img: &image.Image{Version: 9}},
	} {
		f, err := EncodeFrame(src, src.Seq, src.From)
		if err != nil {
			t.Fatal(err)
		}
		m, err := f.Decode(NewTables())
		f.Release()
		if err != nil {
			t.Fatal(err)
		}
		decoded := *m
		Recycle(m)
		switch {
		case src.Img != nil && !reflect.DeepEqual(*m, decoded):
			t.Errorf("a decoded %s with an image reads %+v after Recycle: the pool did not make it", src.Type, *m)
		case src.Img == nil && !reflect.DeepEqual(*m, Message{}):
			t.Errorf("a decoded %s reads %+v after Recycle, want a zero message", src.Type, *m)
		}
	}

	m := NewMessage()
	m.Type, m.Version = TAck, 9
	Recycle(m)
	if !reflect.DeepEqual(*m, Message{}) {
		t.Fatalf("a NewMessage reads %+v after Recycle, want a zero message", *m)
	}
	if m.pooled {
		t.Error("a recycled message keeps its mark: a second Recycle would put it back twice")
	}
}

// TestCopyOfPooledMessage: a value copy of a pooled message carries the
// mark but not the pool's memory, which is why a copy never goes to
// Recycle. Recycling the original leaves the copy whole: an observer that
// got a stamped copy reads it to the end.
func TestCopyOfPooledMessage(t *testing.T) {
	m := NewMessage()
	m.Type, m.From, m.Version = TAck, "dm", 9
	r := *m
	if !r.pooled {
		t.Error("a copy of a pooled message lost the mark")
	}
	Recycle(m)
	if r.Type != TAck || r.From != "dm" || r.Version != 9 {
		t.Errorf("the copy reads %+v after its original was recycled", r)
	}
}
