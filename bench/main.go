// Command bench is the repository's end-to-end benchmark: it boots the
// deployment shapes cmd/fleccd boots, in this process but behind real
// loopback TCP listeners, drives them with airline.TravelAgent /
// cache.Manager sessions the way cmd/fleccview does, checks the outputs,
// and prints every metric by name with its unit. README.md in this
// directory defines the workloads and metrics.
//
// One run measures one workload:
//
//	bench --workload disjoint_reserve --seed 1 --seconds 20 --trace 0   end-to-end metrics, nothing decorated
//	bench --workload disjoint_reserve --seed 1 --seconds 20 --trace 1   per-layer metrics from a traced run
//
// and --repeat N runs N full sets back to back and compares them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef declares an end-to-end metric: its unit, which direction is
// better, and the share of the baseline's median by which it may worsen
// before a change counts as a regression. BENCHMARK.json carries the same
// table (the smoke test keeps them equal).
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEndDefs = []metricDef{
	{"allocs_per_op", "count", "lower", 0.06},
	{"msgs_per_op", "count", "lower", 0.02},
	{"wire_bytes_per_op", "bytes", "lower", 0.02},
	{"heap_live_mb", "MiB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// setupRuns is how many times an untraced run sets up; setup_s is the
// fastest of them. Set-up is 64 sequential round trips on an otherwise idle
// system, so its noise is one-sided — host interference only ever adds —
// and over eight minutes of probing the minimum of 25 stayed within ~7 %
// while their median moved by 15–30 %. Work moved into set-up raises the
// floor just as it raises the median. A variable only so the smoke test can
// shorten it.
var setupRuns = 25

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   []metric
}

// runUntraced measures the end-to-end metrics: set-up (several times),
// warm-up, paced phase, heap snapshot, closed phase, output checks.
func runUntraced(s spec, seed int64, seconds float64, log io.Writer) (result, error) {
	var res result
	half := time.Duration(seconds / 2 * float64(time.Second))
	var r *rig
	var setups []time.Duration
	for i := 0; i < setupRuns; i++ {
		if r != nil {
			r.teardown()
		}
		runtime.GC() // every set-up starts from the same heap state
		var d time.Duration
		var err error
		if r, d, err = setup(s, seed, nil); err != nil {
			return res, err
		}
		setups = append(setups, d)
	}
	defer r.teardown()
	r.warm(warmupOps)
	p := r.paced(s.pacedRate, half)
	// The heap is read here because the op count so far is fixed by the
	// schedule, not by how fast this run happened to be.
	heap := heapLiveMiB()
	c := r.closed(half, 5)
	verr := r.verify()

	res.metrics = endToEnd(setups, heap, c)
	res.attempted, res.failed = r.total.attempted, r.total.failed
	res.correct = verr == nil && res.failed == 0
	fmt.Fprintf(log, "# %s seed=%d drivers=%d: %d ops attempted, %d failed, %d retried\n",
		s.name, seed, r.drivers, res.attempted, res.failed, r.total.retries)
	// Times are ungated (README, "Measured noise"): shown here for people,
	// reported as metrics by the traced run.
	fmt.Fprintf(log, "# closed: %.0f ops/s (windows %.0f), %.1f cpu-us/op; paced %d ops at %.0f/s: p50 %.1f us, p95 %.1f us, sched lag p99 %.1f us\n",
		c.opsPerSec, c.windows, ratio(float64(c.after.cpu-c.before.cpu)/1e3, float64(c.ops.attempted)),
		len(p.latency), s.pacedRate, quantile(p.latency, 0.50), quantile(p.latency, 0.95), quantile(p.lag, 0.99))
	if r.total.firstErr != nil {
		fmt.Fprintf(log, "# first failed op: %v\n", r.total.firstErr)
	}
	if verr != nil {
		fmt.Fprintf(log, "# output checks FAILED:\n%v\n", verr)
	}
	return res, nil
}

// runTraced measures the per-layer metrics. An undecorated deployment
// first gives the references the traced one is compared with (schedule
// lag, untraced closed-loop rate, and for a replicated workload the rate
// of its unreplicated twin); then a fresh deployment runs closed-loop with
// every decorator and span recording on.
func runTraced(s spec, seed int64, seconds float64, tracePath string, log io.Writer) (result, error) {
	var res result
	frac := func(f float64) time.Duration { return time.Duration(seconds * f * float64(time.Second)) }

	ref, _, err := setup(s, seed, nil)
	if err != nil {
		return res, err
	}
	ref.warm(warmupOps)
	paced := ref.paced(s.pacedRate, frac(0.2))
	refClosed := ref.closed(frac(0.2), 2)
	refErr := ref.verify()
	ref.teardown()
	total := ref.total

	var baseRate float64
	if s.standby {
		twin, _ := specByName("disjoint_reserve")
		b, _, err := setup(twin, seed, nil)
		if err != nil {
			return res, err
		}
		b.warm(warmupOps)
		baseRate = b.closed(frac(0.2), 2).opsPerSec
		b.teardown()
		total.add(b.total)
	}

	tr := newTracer()
	r, _, err := setup(s, seed, tr)
	if err != nil {
		return res, err
	}
	defer r.teardown()
	r.warm(warmupOps)
	in := layerInputs{
		rig: r, ref: refClosed, paced: paced, baseOpsPerSec: baseRate,
	}
	in.before, in.from = r.liveCounters(), tr.now()
	in.phase = r.closed(frac(0.3), 3)
	in.after, in.to = r.liveCounters(), tr.now()
	verr := r.verify()
	in.spans = tr.allSpans(r.bufs)
	res.metrics = layerMetrics(in)
	total.add(r.total)

	res.attempted, res.failed = total.attempted, total.failed
	res.correct = verr == nil && refErr == nil && res.failed == 0
	fmt.Fprintf(log, "# %s seed=%d traced: %d spans, %d ops traced at %.0f ops/s (untraced %.0f ops/s)\n",
		s.name, seed, len(in.spans), in.phase.ops.attempted, in.phase.opsPerSec, refClosed.opsPerSec)
	for _, e := range []error{total.firstErr, refErr, verr} {
		if e != nil {
			fmt.Fprintf(log, "# FAILED: %v\n", e)
		}
	}
	if tracePath != "" {
		if err := writeTrace(tracePath, s.name, seed, in.spans); err != nil {
			return res, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(log, "# trace written to %s\n", tracePath)
	}
	return res, nil
}

// report prints every metric by name with its unit, then — as the last
// line of standard output — the one JSON object the driver reads.
func (res result) report(w io.Writer) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]mv{}}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		fmt.Fprintf(w, "%-34s %16.4f %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = mv{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: disjoint_reserve, shared_gather, session_mix or replicated_reserve")
		seed     = flag.Int64("seed", 1, "workload generator seed")
		seconds  = flag.Float64("seconds", 20, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, nothing decorated; 1: per-layer metrics from a traced run")
		traceOut = flag.String("trace-out", "", "where a traced run writes its spans (default .bench_build/trace/<workload>.jsonl)")
		repeat   = flag.Int("repeat", 0, "run this many full sets (every workload, untraced and traced) and compare them")
		out      = flag.String("out", "", "with -repeat: write the sets as JSON to this file")
	)
	flag.Parse()
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(runRepeat(*repeat, *seed, *seconds, *out))
	}
	s, ok := specByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown -workload %q\n", *workload)
		os.Exit(2)
	}
	var res result
	var err error
	if *trace == 0 {
		res, err = runUntraced(s, *seed, *seconds, os.Stdout)
	} else {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace", s.name+".jsonl")
		}
		res, err = runTraced(s, *seed, *seconds, path, os.Stdout)
	}
	if err == nil {
		err = res.report(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}
