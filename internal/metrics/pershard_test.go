package metrics

import (
	"strconv"
	"testing"

	"flecc/internal/wire"
)

func TestShardOf(t *testing.T) {
	cases := []struct {
		node string
		ok   bool
	}{
		{"dm!s0", true},
		{"dm!s12", true},
		{"dm", false},
		{"dm!s", false},
		{"dm!sx", false},
		{"dm!s1x", false},
		{"v1", false},
	}
	for _, c := range cases {
		got, ok := ShardOf(c.node)
		if ok != c.ok {
			t.Fatalf("ShardOf(%q) ok = %v, want %v", c.node, ok, c.ok)
		}
		if ok && got != c.node {
			t.Fatalf("ShardOf(%q) = %q", c.node, got)
		}
	}
}

func TestPerShard(t *testing.T) {
	s := NewMessageStats(false)
	msg := &wire.Message{Type: wire.TPull}
	// Client traffic to two shards, in both directions, plus traffic that
	// touches no shard node at all.
	s.OnMessage("v1", "dm!s0", msg) // request to shard 0
	s.OnMessage("dm!s0", "v1", msg) // its reply
	s.OnMessage("v2", "dm!s1", msg)
	s.OnMessage("v2", "dm!s1", msg)
	s.OnMessage("dm!s1", "v2", msg)
	s.OnMessage("v1", "dm", msg) // router edge: no shard involved
	s.OnMessage("dm", "v1", msg)

	per := s.PerShard()
	if len(per) != 2 {
		t.Fatalf("PerShard = %v", per)
	}
	if per["dm!s0"] != 2 {
		t.Fatalf("dm!s0 = %d, want 2", per["dm!s0"])
	}
	if per["dm!s1"] != 3 {
		t.Fatalf("dm!s1 = %d, want 3", per["dm!s1"])
	}
	// Shard-to-shard traffic counts once, toward the destination.
	s.OnMessage("dm!s0", "dm!s1", msg)
	if per := s.PerShard(); per["dm!s1"] != 4 || per["dm!s0"] != 2 {
		t.Fatalf("after shard-to-shard edge: %v", per)
	}
}

// TestOnMessageAllocFree: observing a message costs no allocation once
// its type and shard have been seen — the collector sits on every
// delivery of a sharded daemon.
func TestOnMessageAllocFree(t *testing.T) {
	s := NewMessageStats(false)
	msg := &wire.Message{Type: wire.TPull}
	s.OnMessage("client-1", "dm!s0", msg)
	allocs := testing.AllocsPerRun(1000, func() {
		s.OnMessage("client-1", "dm!s0", msg)
		s.OnMessage("dm!s0", "client-1", msg)
		s.OnMessage("client-1", "dm", msg)
	})
	if allocs != 0 {
		t.Fatalf("OnMessage allocates %.1f times per call set, want 0", allocs)
	}
}

// TestPerShardBoundedByShards: however many distinct clients talk, the
// collector keeps one counter per shard, not one per client edge.
func TestPerShardBoundedByShards(t *testing.T) {
	const shards, clients = 4, 10000
	s := NewMessageStats(false)
	msg := &wire.Message{Type: wire.TPush}
	for i := 0; i < clients; i++ {
		client := "agent-" + strconv.Itoa(i)
		shard := "dm!s" + strconv.Itoa(i%shards)
		s.OnMessage(client, shard, msg)
		s.OnMessage(shard, client, msg)
		s.OnMessage(client, "dm", msg)
	}
	s.mu.Lock()
	held := len(s.byShard)
	s.mu.Unlock()
	if held != shards {
		t.Fatalf("collector holds %d entries after %d clients, want %d", held, clients, shards)
	}
	per := s.PerShard()
	for i := 0; i < shards; i++ {
		if n := per["dm!s"+strconv.Itoa(i)]; n != 2*clients/shards {
			t.Fatalf("dm!s%d = %d, want %d", i, n, 2*clients/shards)
		}
	}
}
