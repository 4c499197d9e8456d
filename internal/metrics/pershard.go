package metrics

import (
	"maps"
	"sort"
	"strconv"
	"strings"
)

// Per-shard traffic breakdown for the sharded directory service
// (internal/shard). Shard directory managers attach under names of the
// form "<base>!s<index>" (shard.Node); every message that touches such a
// node is counted toward it as it is observed, which gives a per-shard
// load profile — the measurement behind the 1-vs-N shard comparisons in
// EXPERIMENTS.md.

// ShardOf extracts the shard node from a node name following the
// "<base>!s<index>" convention; ok is false for ordinary nodes.
func ShardOf(node string) (string, bool) {
	cut := strings.LastIndex(node, "!s")
	if cut < 0 || cut+2 == len(node) {
		return "", false
	}
	for _, c := range node[cut+2:] {
		if c < '0' || c > '9' {
			return "", false
		}
	}
	return node, true
}

// PerShard returns the per-shard message counts: each message whose
// destination is a shard node counts toward that shard, otherwise a
// message whose source is a shard node counts toward that one. Messages
// touching no shard node (e.g. router→client replies) are not counted, so
// the map holds at most one entry per shard however many clients talk.
// The result maps shard node names to message counts.
func (s *MessageStats) PerShard() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.byShard)
}

// PerShardString renders the PerShard breakdown deterministically, e.g.
// "dm!s0:42 dm!s1:17".
func (s *MessageStats) PerShardString() string {
	per := s.PerShard()
	keys := make([]string, 0, len(per))
	for k := range per {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + ":" + strconv.FormatInt(per[k], 10)
	}
	return strings.Join(parts, " ")
}
