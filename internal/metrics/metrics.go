// Package metrics collects the measurements the paper's evaluation reports:
// message counts between cache managers and the directory manager
// (Figures 4 and 6), per-operation execution times (Figure 5), and data
// quality — the number of remote updates a view has not yet seen
// (Figures 5 and 6).
package metrics

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"flecc/internal/wire"
)

// MessageStats is a transport.Observer that tallies messages. It counts
// every message once (requests and replies separately), by type and by
// shard (see PerShard).
type MessageStats struct {
	mu      sync.Mutex
	total   int64
	bytes   int64
	byType  map[wire.Type]int64
	byShard map[string]int64 // shard node name -> messages touching it
	measure bool             // whether to compute encoded sizes
}

// NewMessageStats returns an empty collector. If measureBytes is true the
// collector also encodes every message to accumulate byte counts (slower;
// the experiments that only need message counts leave it off).
func NewMessageStats(measureBytes bool) *MessageStats {
	return &MessageStats{
		byType:  map[wire.Type]int64{},
		byShard: map[string]int64{},
		measure: measureBytes,
	}
}

// OnMessage implements transport.Observer.
func (s *MessageStats) OnMessage(from, to string, m *wire.Message) {
	var size int64
	if s.measure {
		size = int64(len(wire.Encode(m)))
	}
	shard, ok := ShardOf(to)
	if !ok {
		shard, ok = ShardOf(from)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total++
	s.bytes += size
	s.byType[m.Type]++
	if ok {
		s.byShard[shard]++
	}
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

// Reset zeroes all counters.
func (s *MessageStats) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total, s.bytes = 0, 0
	s.byType = map[wire.Type]int64{}
	s.byShard = map[string]int64{}
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
