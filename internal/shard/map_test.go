package shard_test

import (
	"fmt"
	"testing"

	"flecc/internal/property"
	"flecc/internal/shard"
)

func TestNodeNaming(t *testing.T) {
	name := shard.Node("dm", 3)
	if name != "dm!s3" {
		t.Fatalf("Node = %q", name)
	}
	base, idx, ok := shard.IsNode(name)
	if !ok || base != "dm" || idx != 3 {
		t.Fatalf("IsNode(%q) = %q, %d, %v", name, base, idx, ok)
	}
	if _, _, ok := shard.IsNode("dm"); ok {
		t.Fatal("plain name should not parse as a shard node")
	}
	if _, _, ok := shard.IsNode("dm!sx"); ok {
		t.Fatal("non-numeric suffix should not parse")
	}
}

func TestOwnerDeterministic(t *testing.T) {
	build := func() *shard.Map {
		return shard.NewMap(0, shard.Node("dm", 0), shard.Node("dm", 1), shard.Node("dm", 2))
	}
	a, b := build(), build()
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("owner of %q differs between identical maps", key)
		}
	}
}

func TestAddMovesKeysOnlyToNewShard(t *testing.T) {
	m := shard.NewMap(0, shard.Node("dm", 0), shard.Node("dm", 1), shard.Node("dm", 2))
	const n = 2000
	before := make(map[string]string, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		before[key] = m.Owner(key)
	}
	newShard := shard.Node("dm", 3)
	m.Add(newShard)
	moved := 0
	for key, old := range before {
		now := m.Owner(key)
		if now == old {
			continue
		}
		moved++
		if now != newShard {
			t.Fatalf("key %q moved %s -> %s, but only moves onto the new shard are allowed", key, old, now)
		}
	}
	if moved == 0 {
		t.Fatal("adding a shard should claim some keys")
	}
	// Expectation is n/4; anything beyond half signals the ring is broken.
	if moved > n/2 {
		t.Fatalf("adding one of four shards moved %d/%d keys", moved, n)
	}
}

func TestBalance(t *testing.T) {
	shards := []string{shard.Node("dm", 0), shard.Node("dm", 1), shard.Node("dm", 2), shard.Node("dm", 3)}
	m := shard.NewMap(0, shards...)
	counts := map[string]int{}
	const n = 8000
	for i := 0; i < n; i++ {
		counts[m.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for _, s := range shards {
		// Perfect balance is n/4; insist every shard gets at least a third
		// of its fair share, which catches gross ring defects without
		// flaking on hash variance.
		if counts[s] < n/12 {
			t.Fatalf("shard %s owns only %d of %d keys: %v", s, counts[s], n, counts)
		}
	}
}

func TestPins(t *testing.T) {
	s0, s1 := shard.Node("dm", 0), shard.Node("dm", 1)
	m := shard.NewMap(0, s0, s1)
	flights := property.MustSet("Flights={1,2,3}").Properties()[0]
	if err := m.Pin(flights, s1); err != nil {
		t.Fatal(err)
	}
	if got, ok := m.RouteProps(property.MustSet("Flights={2}; Seats={9}")); !ok || got != s1 {
		t.Fatalf("RouteProps = %q, %v", got, ok)
	}
	if _, ok := m.RouteProps(property.MustSet("Flights={7}")); ok {
		t.Fatal("non-overlapping set should not match the pin")
	}
	if _, ok := m.RouteProps(property.MustSet("Hotels={2}")); ok {
		t.Fatal("different property name should not match the pin")
	}
	if err := m.Pin(flights, "dm!s9"); err == nil {
		t.Fatal("pinning to a non-member shard should fail")
	}
	if err := m.Pin(property.Property{}, s0); err == nil {
		t.Fatal("pinning an empty property should fail")
	}
}

func TestMembership(t *testing.T) {
	m := shard.NewMap(4)
	if m.Has("dm!s0") || m.Owner("k") != "" {
		t.Fatal("empty map should own nothing")
	}
	m.Add("dm!s0")
	m.Add("dm!s0") // idempotent
	if !m.Has("dm!s0") {
		t.Fatal("membership after add: dm!s0 missing")
	}
	if m.Owner("anything") != "dm!s0" {
		t.Fatal("single shard owns every key")
	}
	// Adding dm!s0 twice must not have left a second copy on the ring:
	// the map assigns every key as one that had each shard added once.
	m.Add("dm!s1")
	once := shard.NewMap(4, "dm!s0", "dm!s1")
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if got, want := m.Owner(key), once.Owner(key); got != want {
			t.Fatalf("owner of %q = %s after a repeated Add, want %s", key, got, want)
		}
	}
}
