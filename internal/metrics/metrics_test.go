package metrics

import (
	"strings"
	"sync"
	"testing"

	"flecc/internal/wire"
)

func TestMessageStatsCounts(t *testing.T) {
	s := NewMessageStats(false)
	s.OnMessage("cm1", "dm", &wire.Message{Type: wire.TPull})
	s.OnMessage("dm", "cm1", &wire.Message{Type: wire.TAck})
	s.OnMessage("cm2", "dm", &wire.Message{Type: wire.TPull})
	if s.Total() != 3 {
		t.Fatalf("total = %d", s.Total())
	}
	if s.ByType()[wire.TPull] != 2 || s.ByType()[wire.TAck] != 1 {
		t.Fatalf("byType = %v", s.ByType())
	}
	if s.Edge("cm1", "dm") != 1 || s.Edge("dm", "cm2") != 0 {
		t.Fatal("edge counts wrong")
	}
	if s.Bytes() != 0 {
		t.Fatal("bytes should be 0 when not measuring")
	}
}

func TestMessageStatsBytes(t *testing.T) {
	s := NewMessageStats(true)
	s.OnMessage("a", "b", &wire.Message{Type: wire.TPush, Err: "padding"})
	if s.Bytes() <= 0 {
		t.Fatal("bytes should be measured")
	}
}

func TestMessageStatsReset(t *testing.T) {
	s := NewMessageStats(false)
	s.OnMessage("a", "b", &wire.Message{Type: wire.TPull})
	s.Reset()
	if s.Total() != 0 || len(s.ByType()) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestMessageStatsSnapshot(t *testing.T) {
	s := NewMessageStats(false)
	s.OnMessage("a", "b", &wire.Message{Type: wire.TPull})
	s.OnMessage("a", "b", &wire.Message{Type: wire.TAck})
	snap := s.Snapshot()
	if !strings.Contains(snap, "messages: 2") || !strings.Contains(snap, "pull") {
		t.Fatalf("snapshot = %q", snap)
	}
}

func TestMessageStatsConcurrent(t *testing.T) {
	s := NewMessageStats(false)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.OnMessage("a", "b", &wire.Message{Type: wire.TPull})
			}
		}()
	}
	wg.Wait()
	if s.Total() != 800 {
		t.Fatalf("total = %d", s.Total())
	}
}

func TestSeriesStats(t *testing.T) {
	s := NewSeries("quality")
	if s.Name() != "quality" || s.Len() != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty series invariants")
	}
	s.Add(10, 1)
	s.Add(20, 3)
	s.Add(30, 2)
	if s.Len() != 3 || s.Sum() != 6 || s.Mean() != 2 || s.Max() != 3 {
		t.Fatalf("len=%d sum=%g mean=%g max=%g", s.Len(), s.Sum(), s.Mean(), s.Max())
	}
	samples := s.Samples()
	if samples[1].T != 20 || samples[1].V != 3 {
		t.Fatalf("samples = %v", samples)
	}
	// Samples returns a copy.
	samples[0].V = 99
	if s.Samples()[0].V == 99 {
		t.Fatal("Samples should copy")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Figure 4", "group", "flecc", "multicast")
	tb.AddRow("10", "120", "400")
	tb.AddRow(20, 240, 400)
	out := tb.String()
	for _, want := range []string{"## Figure 4", "group", "flecc", "120", "240", "---"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	if tb.Rows() != 2 {
		t.Fatalf("rows = %d", tb.Rows())
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("1")           // short row
	tb.AddRow("1", "2", "3") // long row truncated
	out := tb.String()
	if strings.Contains(out, "3") {
		t.Fatalf("extra cell should be dropped:\n%s", out)
	}
}
