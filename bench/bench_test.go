package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile mirrors the keys of ../BENCHMARK.json the test reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return bf
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkMetrics asserts the run emitted exactly the named metrics, once
// each, with the declared unit and a finite value.
func checkMetrics(t *testing.T, got []metric, want map[string]string) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range got {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %s emitted twice", m.name)
		}
		seen[m.name] = true
		unit, ok := want[m.name]
		if !ok {
			t.Errorf("metric %s is not named in BENCHMARK.json", m.name)
		} else if unit != m.unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.name, m.unit, unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("metric %s is not finite: %v", m.name, m.value)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("metric %s named in BENCHMARK.json was not emitted", name)
		}
	}
}

// checkTrace asserts the trace file parses and every non-root span's
// parent is in it.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open trace: %v", err)
	}
	defer f.Close()
	type line struct {
		ID, Parent uint64
		Name       string
		Start, End int64
		Spans      int
	}
	ids := map[uint64]bool{}
	var spans []line
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	declared := -1
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if declared < 0 {
			declared = l.Spans
			continue
		}
		if l.ID == 0 || l.Name == "" || l.End < l.Start {
			t.Fatalf("malformed span %+v", l)
		}
		ids[l.ID] = true
		spans = append(spans, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read trace: %v", err)
	}
	if len(spans) == 0 || len(spans) != declared {
		t.Fatalf("trace holds %d spans, header declares %d", len(spans), declared)
	}
	orphans := 0
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			orphans++
			if orphans <= 3 {
				t.Errorf("span %d (%s): parent %d is not in the trace", s.ID, s.Name, s.Parent)
			}
		}
	}
	if orphans > 3 {
		t.Errorf("%d spans in all have a missing parent", orphans)
	}
}

// TestSmoke runs all four workloads, untraced and traced, at well under a
// second per phase.
func TestSmoke(t *testing.T) {
	warmupOps, setupRuns = 200, 3
	bf := loadBenchmarkFile(t)

	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, specs[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the benchmark has %d", len(bf.EndToEnd), len(endToEndDefs))
	}
	endToEndUnits, perLayerUnits := map[string]string{}, map[string]string{}
	for i, m := range bf.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		endToEndUnits[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		perLayerUnits[m.Name] = m.Unit
	}

	for i, s := range specs {
		seed := int64(1 + i%2) // the default seed and a second one
		t.Run(s.name, func(t *testing.T) {
			res, err := runUntraced(s, seed, 0.8, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d", res.correct, res.attempted, res.failed)
			}
			checkMetrics(t, res.metrics, endToEndUnits)

			path := filepath.Join(t.TempDir(), "trace.jsonl")
			res, err = runTraced(s, seed, 0.8, path, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("traced: correct=%v attempted=%d failed=%d", res.correct, res.attempted, res.failed)
			}
			checkMetrics(t, res.metrics, perLayerUnits)
			checkTrace(t, path)
		})
	}
}

// TestStreams pins the generator's contract: a stream is a pure function
// of the seed, a different seed gives different inputs, and the replicated
// workload replays its baseline's stream exactly.
func TestStreams(t *testing.T) {
	for _, s := range specs {
		if s.streamHash(1, 512) != s.streamHash(1, 512) {
			t.Errorf("%s: same seed, different stream", s.name)
		}
		if s.streamHash(1, 512) == s.streamHash(2, 512) {
			t.Errorf("%s: seeds 1 and 2 give the same stream", s.name)
		}
	}
	base, _ := specByName("disjoint_reserve")
	twin, _ := specByName("replicated_reserve")
	if base.streamHash(7, 512) != twin.streamHash(7, 512) {
		t.Error("replicated_reserve does not replay disjoint_reserve's op stream")
	}
}
