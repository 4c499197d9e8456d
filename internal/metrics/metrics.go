// Package metrics collects the measurements the paper's evaluation reports:
// message counts between cache managers and the directory manager
// (Figures 4 and 6), per-operation execution times (Figure 5), and data
// quality — the number of remote updates a view has not yet seen
// (Figures 5 and 6).
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// MessageStats is a transport.Observer that tallies messages. It counts
// every message once (requests and replies separately), by type and by
// directed edge.
type MessageStats struct {
	mu      sync.Mutex
	total   int64
	bytes   int64
	byType  map[wire.Type]int64
	byEdge  map[string]int64 // "from->to"
	measure bool             // whether to compute encoded sizes
}

// NewMessageStats returns an empty collector. If measureBytes is true the
// collector also encodes every message to accumulate byte counts (slower;
// the experiments that only need message counts leave it off).
func NewMessageStats(measureBytes bool) *MessageStats {
	return &MessageStats{
		byType:  map[wire.Type]int64{},
		byEdge:  map[string]int64{},
		measure: measureBytes,
	}
}

// OnMessage implements transport.Observer.
func (s *MessageStats) OnMessage(from, to string, m *wire.Message) {
	var size int64
	if s.measure {
		size = int64(len(wire.Encode(m)))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total++
	s.bytes += size
	s.byType[m.Type]++
	s.byEdge[from+"->"+to]++
}

// Total returns the number of messages observed.
func (s *MessageStats) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Bytes returns the total encoded bytes (0 unless measureBytes was set).
func (s *MessageStats) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// ByType returns a copy of the per-type counts.
func (s *MessageStats) ByType() map[wire.Type]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[wire.Type]int64, len(s.byType))
	for k, v := range s.byType {
		out[k] = v
	}
	return out
}

// Edge returns the count for the directed edge from->to.
func (s *MessageStats) Edge(from, to string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byEdge[from+"->"+to]
}

// Reset zeroes all counters.
func (s *MessageStats) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total, s.bytes = 0, 0
	s.byType = map[wire.Type]int64{}
	s.byEdge = map[string]int64{}
}

// Snapshot renders a deterministic multi-line summary.
func (s *MessageStats) Snapshot() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "messages: %d", s.total)
	if s.measure {
		fmt.Fprintf(&b, " (%d bytes)", s.bytes)
	}
	b.WriteByte('\n')
	types := make([]wire.Type, 0, len(s.byType))
	for t := range s.byType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, t := range types {
		fmt.Fprintf(&b, "  %-12s %d\n", t, s.byType[t])
	}
	return b.String()
}

// Sample is one time-stamped measurement.
type Sample struct {
	T vclock.Time
	V float64
}

// Series is an append-only time series with summary statistics. It is what
// the figure harnesses collect and print. Safe for concurrent appends.
type Series struct {
	mu      sync.Mutex
	name    string
	samples []Sample
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{name: name} }

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Add appends a sample.
func (s *Series) Add(t vclock.Time, v float64) {
	s.mu.Lock()
	s.samples = append(s.samples, Sample{T: t, V: v})
	s.mu.Unlock()
}

// Len returns the number of samples.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Samples returns a copy of the samples in insertion order.
func (s *Series) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, len(s.samples))
	copy(out, s.samples)
	return out
}

// Sum returns the sum of sample values.
func (s *Series) Sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	for _, sm := range s.samples {
		sum += sm.V
	}
	return sum
}

// Mean returns the average sample value (0 for an empty series).
func (s *Series) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	var sum float64
	for _, sm := range s.samples {
		sum += sm.V
	}
	return sum / float64(len(s.samples))
}

// Max returns the maximum sample value (0 for an empty series).
func (s *Series) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var m float64
	for i, sm := range s.samples {
		if i == 0 || sm.V > m {
			m = sm.V
		}
	}
	return m
}

// Table is a simple column-aligned text table used by the benchmark
// harness to print figure data in the same rows/series layout as the
// paper.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row, each cell rendered with fmt.Sprint; cells beyond
// the header count are dropped, and missing cells render empty.
func (t *Table) AddRow(cells ...any) {
	cells = cells[:min(len(cells), len(t.headers))]
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.rows = append(t.rows, row)
}

// Rows returns the row count.
func (t *Table) Rows() int { return len(t.rows) }

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "## %s\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, wdt := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", wdt, c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.WriteTo(&b)
	return b.String()
}
