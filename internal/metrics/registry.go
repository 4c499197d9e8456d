package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Registry names and aggregates a deployment's metrics — the per-DM
// latency accumulators, gauges sampled from live components (the
// eviction/reconnect/failover/fault counters among them), and the
// per-message-type wire counters fed by a transport observer. fleccd serves a
// Registry over its /metrics endpoint; tests read it directly.
//
// Registration is idempotent by name: registering an existing name
// replaces the previous entry, so reconnect cycles can re-register
// without leaking. Safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	lats   map[string]*Latency
	gauges map[string]func() int64
	stats  *MessageStats
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		lats:   map[string]*Latency{},
		gauges: map[string]func() int64{},
	}
}

// RegisterLatencyAs adds (or replaces) a latency histogram under an
// explicit name — the per-shard pull/push/fanout accumulators all call
// themselves "pull"/"push"/"fanout", so a sharded deployment prefixes
// them here.
func (r *Registry) RegisterLatencyAs(name string, l *Latency) {
	if l == nil || name == "" {
		return
	}
	r.mu.Lock()
	r.lats[name] = l
	r.mu.Unlock()
}

// RegisterGauge adds (or replaces) a named gauge sampled by fn at
// snapshot time. Gauges adopt values held by live components — the
// fault injector's Injected count, a service's current version — without
// moving their ownership into the registry.
func (r *Registry) RegisterGauge(name string, fn func() int64) {
	if name == "" || fn == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// SetMessageStats attaches the wire counters (nil detaches).
func (r *Registry) SetMessageStats(s *MessageStats) {
	r.mu.Lock()
	r.stats = s
	r.mu.Unlock()
}

// RegistrySnapshot is a consistent-enough point-in-time view of a
// Registry: each metric is snapshotted atomically, though distinct
// metrics are sampled at slightly different instants.
type RegistrySnapshot struct {
	Gauges    map[string]int64    `json:"gauges,omitempty"`
	Latencies map[string]Snapshot `json:"latencies,omitempty"`
	Messages  *MessageSnapshot    `json:"messages,omitempty"`
}

// MessageSnapshot summarizes the wire counters by message type.
type MessageSnapshot struct {
	Total  int64            `json:"total"`
	Bytes  int64            `json:"bytes,omitempty"`
	ByType map[string]int64 `json:"by_type,omitempty"`
}

// Snapshot samples every registered metric.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	lats := make(map[string]*Latency, len(r.lats))
	for k, v := range r.lats {
		lats[k] = v
	}
	gauges := make(map[string]func() int64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	stats := r.stats
	r.mu.Unlock()

	snap := RegistrySnapshot{
		Gauges:    make(map[string]int64, len(gauges)),
		Latencies: make(map[string]Snapshot, len(lats)),
	}
	for name, fn := range gauges {
		snap.Gauges[name] = fn()
	}
	for name, l := range lats {
		snap.Latencies[name] = l.Snapshot()
	}
	if stats != nil {
		ms := &MessageSnapshot{Total: stats.Total(), Bytes: stats.Bytes(), ByType: map[string]int64{}}
		for t, n := range stats.ByType() {
			ms.ByType[t.String()] = n
		}
		snap.Messages = ms
	}
	return snap
}

// WriteText renders the snapshot as deterministic (sorted) plain text,
// the format served by fleccd's /metrics endpoint.
func (r *Registry) WriteText(w io.Writer) (int64, error) {
	snap := r.Snapshot()
	var b strings.Builder

	names := sortedKeys(snap.Gauges)
	for _, name := range names {
		fmt.Fprintf(&b, "gauge %s %d\n", name, snap.Gauges[name])
	}
	latNames := make([]string, 0, len(snap.Latencies))
	for name := range snap.Latencies {
		latNames = append(latNames, name)
	}
	sort.Strings(latNames)
	for _, name := range latNames {
		s := snap.Latencies[name]
		fmt.Fprintf(&b, "latency %s count=%d mean=%s p50=%s p95=%s p99=%s max=%s\n",
			name, s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
	}
	if m := snap.Messages; m != nil {
		fmt.Fprintf(&b, "messages total %d\n", m.Total)
		if m.Bytes > 0 {
			fmt.Fprintf(&b, "messages bytes %d\n", m.Bytes)
		}
		for _, t := range sortedKeys(m.ByType) {
			fmt.Fprintf(&b, "messages type %s %d\n", t, m.ByType[t])
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// WriteJSON renders the snapshot as indented JSON (the
// /metrics?format=json view).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// String renders the text form.
func (r *Registry) String() string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Snapshot.MarshalJSON renders durations as strings for readability.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Count int64  `json:"count"`
		Mean  string `json:"mean"`
		Max   string `json:"max"`
		P50   string `json:"p50"`
		P95   string `json:"p95"`
		P99   string `json:"p99"`
	}{s.Count, s.Mean.String(), s.Max.String(), s.P50.String(), s.P95.String(), s.P99.String()})
}
