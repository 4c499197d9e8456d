// Package shard partitions the Flecc directory manager across several
// independent directory-manager instances behind a single logical
// endpoint. The paper's centralized protocol attaches one directory
// manager to the original component (§4.1), which makes that manager the
// throughput ceiling for every pull, push, and validate in the system.
// This package removes the ceiling without touching the protocol:
//
//   - Map is a deterministic shard map: a consistent-hash ring over
//     routing keys plus an ordered override (pin) table that lets an
//     application pin an entire property domain to one shard — necessary
//     because conflict detection between views is property-based and must
//     stay shard-local.
//   - Router implements the directory side of the transport contract, so
//     cache managers and tools keep talking to "the directory" unchanged
//     while the router fans their requests out to the owning shard
//     (wrapped in TRouted envelopes) and merges the version metadata it
//     observes into a vclock.Vector.
//   - Service (service.go) bundles the pieces: N directory managers, the
//     map, and the router.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"

	"flecc/internal/property"
)

// DefaultReplicas is the number of virtual nodes per shard on the ring.
// 64 keeps the expected imbalance between shards under a few percent
// while the ring stays small enough to rebuild on every membership
// change.
const DefaultReplicas = 64

// Node renders the conventional node name for shard i of the logical
// directory base: "db!s0", "db!s1", … The '!' separator never appears in
// view names, so shard nodes are recognizable in metrics edges (see
// metrics.ShardOf).
func Node(base string, i int) string { return base + "!s" + strconv.Itoa(i) }

// IsNode reports whether name follows the Node convention, returning the
// base and index when it does.
func IsNode(name string) (base string, idx int, ok bool) {
	cut := strings.LastIndex(name, "!s")
	if cut < 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(name[cut+2:])
	if err != nil || n < 0 {
		return "", 0, false
	}
	return name[:cut], n, true
}

// Pin is one override-table entry: every view whose property set overlaps
// Prop is routed to Shard, regardless of the ring. Pins exist because
// cross-view conflict checks are property-based and shard-local; when an
// application knows a whole domain is contested, it pins the domain to
// one shard instead of relying on hash placement.
type Pin struct {
	// Prop selects the pinned slice of the property space.
	Prop property.Property
	// Shard is the owning shard node.
	Shard string
}

type ringPoint struct {
	hash  uint64
	shard string
}

// Map is the deterministic shard map: membership, the consistent-hash
// ring, and the pin table. It is safe for concurrent use; routing results
// depend only on the membership, the replica count, and the pins.
type Map struct {
	mu       sync.RWMutex
	replicas int
	shards   map[string]struct{}
	ring     []ringPoint
	pins     []Pin
	// pinIdx is a posting index over the pin properties, keyed by the
	// pin's ordinal in the consultation order, so RouteProps resolves the
	// first matching pin in O(log pins + matches) instead of scanning the
	// whole override table per registration.
	pinIdx *property.Index
}

// NewMap builds a map over the given shard nodes with the given number of
// virtual nodes per shard (DefaultReplicas when replicas <= 0).
func NewMap(replicas int, shards ...string) *Map {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	m := &Map{replicas: replicas, shards: map[string]struct{}{}, pinIdx: property.NewIndex()}
	for _, s := range shards {
		m.shards[s] = struct{}{}
	}
	m.rebuild()
	return m
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// rebuild recomputes the ring from the membership. Caller holds mu (or
// has exclusive access during construction).
func (m *Map) rebuild() {
	m.ring = m.ring[:0]
	for s := range m.shards {
		for i := 0; i < m.replicas; i++ {
			m.ring = append(m.ring, ringPoint{hash: hash64(s + "#" + strconv.Itoa(i)), shard: s})
		}
	}
	sort.Slice(m.ring, func(i, j int) bool {
		if m.ring[i].hash != m.ring[j].hash {
			return m.ring[i].hash < m.ring[j].hash
		}
		return m.ring[i].shard < m.ring[j].shard
	})
}

// Add inserts a shard into the membership (idempotent). Only keys that
// consistent-hash onto the new shard's ring points move; everything else
// keeps its owner.
func (m *Map) Add(shard string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.shards[shard]; ok {
		return
	}
	m.shards[shard] = struct{}{}
	m.rebuild()
}

// Has reports membership.
func (m *Map) Has(shard string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.shards[shard]
	return ok
}

// Owner returns the shard owning a routing key on the consistent-hash
// ring ("" when the map is empty).
func (m *Map) Owner(key string) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.ring) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].hash >= h })
	if i == len(m.ring) {
		i = 0 // wrap around
	}
	return m.ring[i].shard
}

// Pin appends an override-table entry: property sets overlapping p route
// to shard. Pins are consulted in installation order, before the ring.
// The shard must be a member.
func (m *Map) Pin(p property.Property, shard string) error {
	if p.IsEmpty() {
		return fmt.Errorf("shard: cannot pin an empty property")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.shards[shard]; !ok {
		return fmt.Errorf("shard: pin target %q is not a member shard", shard)
	}
	m.pins = append(m.pins, Pin{Prop: p, Shard: shard})
	m.pinIdx.Insert(strconv.Itoa(len(m.pins)-1), property.NewSet(p))
	return nil
}

// RouteProps consults the pin table for a property set: the first pin
// whose property overlaps any property of the set wins (resolved through
// the pin posting index — the earliest ordinal among the overlapping
// pins, identical to the old in-order scan). The second result reports
// whether a pin matched.
func (m *Map) RouteProps(props property.Set) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	first := -1
	m.pinIdx.Overlapping(props, func(key string) bool {
		if i, err := strconv.Atoi(key); err == nil && (first < 0 || i < first) {
			first = i
		}
		return true
	})
	if first < 0 {
		return "", false
	}
	return m.pins[first].Shard, true
}
