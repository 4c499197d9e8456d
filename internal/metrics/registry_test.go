package metrics

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"flecc/internal/wire"
)

func sampleRegistry() *Registry {
	r := NewRegistry()
	c := NewCounter("db.views_evicted")
	c.Inc()
	c.Inc()
	c.Inc()
	r.RegisterGauge(c.Name(), c.Value)
	r.RegisterGauge("faults_injected", func() int64 { return 12 })
	l := NewLatency("pull")
	l.Observe(2 * time.Millisecond)
	l.Observe(4 * time.Millisecond)
	r.RegisterLatencyAs(l.Name(), l)
	s := NewMessageStats(false)
	s.OnMessage("cm", "dm", &wire.Message{Type: wire.TPull})
	s.OnMessage("dm", "cm", &wire.Message{Type: wire.TAck})
	s.OnMessage("cm", "dm", &wire.Message{Type: wire.TPush})
	r.SetMessageStats(s)
	return r
}

func TestRegistryText(t *testing.T) {
	r := sampleRegistry()
	out := r.String()
	for _, want := range []string{
		"gauge db.views_evicted 3",
		"gauge faults_injected 12",
		"latency pull count=2",
		"p50=", "p95=", "p99=", "max=4ms",
		"messages total 3",
		"messages type ack 1",
		"messages type pull 1",
		"messages type push 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
	// Deterministic across renders.
	if again := r.String(); again != out {
		t.Fatalf("non-deterministic text:\n%s\nvs\n%s", out, again)
	}
}

func TestRegistryJSON(t *testing.T) {
	r := sampleRegistry()
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Gauges    map[string]int64 `json:"gauges"`
		Latencies map[string]struct {
			Count int64  `json:"count"`
			P95   string `json:"p95"`
		} `json:"latencies"`
		Messages struct {
			Total  int64            `json:"total"`
			ByType map[string]int64 `json:"by_type"`
		} `json:"messages"`
	}
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if got.Gauges["db.views_evicted"] != 3 || got.Gauges["faults_injected"] != 12 {
		t.Fatalf("decoded = %+v", got)
	}
	if got.Latencies["pull"].Count != 2 || got.Latencies["pull"].P95 == "" {
		t.Fatalf("latencies = %+v", got.Latencies)
	}
	if got.Messages.Total != 3 || got.Messages.ByType["pull"] != 1 {
		t.Fatalf("messages = %+v", got.Messages)
	}
}

func TestRegistryReplaceAndPrefix(t *testing.T) {
	r := NewRegistry()
	a := NewLatency("pull")
	b := NewLatency("pull")
	b.Observe(time.Millisecond)
	r.RegisterLatencyAs("s0.pull", a)
	r.RegisterLatencyAs("s1.pull", b)
	lats := r.Snapshot().Latencies
	if lats["s1.pull"].Count != 1 || lats["s0.pull"].Count != 0 {
		t.Fatal("prefixed registrations collided")
	}
	// Re-registering a name replaces the previous entry.
	r.RegisterLatencyAs("s0.pull", b)
	if lats := r.Snapshot().Latencies; lats["s0.pull"].Count != 1 || len(lats) != 2 {
		t.Fatal("replacement did not take")
	}
}
