package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
)

// set is one full pass: every workload, untraced and traced.
type set map[string]map[string]float64 // workload → metric → value

// runRepeat runs n full sets back to back, prints for every end-to-end
// metric × workload the relative difference between the first and the last
// set against the metric's bound, and returns non-zero when any pair
// disagrees beyond its bound — two runs of the same code must agree within
// the bounds the benchmark holds later changes to.
func runRepeat(n int, seed int64, seconds float64, outPath string) int {
	sets := make([]set, 0, n)
	ok := true
	for i := 0; i < n; i++ {
		cur := set{}
		for _, s := range specs {
			cur[s.name] = map[string]float64{}
			for _, traced := range []bool{false, true} {
				var res result
				var err error
				if traced {
					res, err = runTraced(s, seed, seconds, "", os.Stdout)
				} else {
					res, err = runUntraced(s, seed, seconds, os.Stdout)
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				if !res.correct {
					ok = false
				}
				for _, m := range res.metrics {
					cur[s.name][m.name] = m.value
				}
			}
		}
		sets = append(sets, cur)
	}

	a, b := sets[0], sets[len(sets)-1]
	if len(sets) > 1 {
		fmt.Printf("\n%-20s %-18s %14s %14s %8s %8s\n", "workload", "metric", "first", "last", "diff", "bound")
		for _, s := range specs {
			for _, def := range endToEndDefs {
				x, y := a[s.name][def.name], b[s.name][def.name]
				diff := relDiff(x, y)
				verdict := ""
				if def.name == "setup_s" && x < setupFloor && y < setupFloor {
					// A few milliseconds of idle-system round trips: two
					// single runs differ by more than any bound (the
					// harness compares medians of ten instead).
					diff, verdict = 0, "  (both under the floor)"
				}
				if diff > def.bound {
					verdict = "  DISAGREE"
					ok = false
				}
				fmt.Printf("%-20s %-18s %14.4f %14.4f %7.2f%% %7.0f%%%s\n", s.name, def.name, x, y, 100*diff, 100*def.bound, verdict)
			}
			// The times are not held to a bound; shown so their
			// run-to-run difference is on record.
			for _, name := range []string{"ops_per_s", "cpu_us_per_op", "paced_p50_us", "paced_p95_us"} {
				x, y := a[s.name][name], b[s.name][name]
				fmt.Printf("%-20s %-18s %14.4f %14.4f %7.2f%% %8s\n", s.name, name, x, y, 100*relDiff(x, y), "ungated")
			}
		}
	}

	if outPath != "" {
		rates := map[string]float64{}
		for _, s := range specs {
			rates[s.name] = s.pacedRate
		}
		doc := map[string]any{
			"go":          runtime.Version(),
			"nproc":       runtime.NumCPU(),
			"drivers":     driverCount(),
			"seed":        seed,
			"seconds":     seconds,
			"paced_ops_s": rates,
			"sets":        sets,
			"sets_agree":  ok,
			"bounds":      bounds(),
		}
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// setupFloor is the set-up time below which two single runs compare equal
// (ISSUE 12: "values under a 0.05 s floor compare equal").
const setupFloor = 0.05

// relDiff is |x−y| as a share of the smaller magnitude.
func relDiff(x, y float64) float64 {
	return math.Abs(x-y) / math.Min(math.Abs(x), math.Abs(y))
}

func bounds() map[string]float64 {
	b := map[string]float64{}
	for _, d := range endToEndDefs {
		b[d.name] = d.bound
	}
	return b
}
