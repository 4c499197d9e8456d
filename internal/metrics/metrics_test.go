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
	if per := s.PerShard(); len(per) != 0 {
		t.Fatalf("no shard node involved, yet PerShard = %v", per)
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
	// Title, header, separator and the two rows.
	if lines := strings.Count(out, "\n"); lines != 5 {
		t.Fatalf("%d lines, want 5:\n%s", lines, out)
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
