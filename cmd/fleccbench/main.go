// Command fleccbench regenerates the paper's evaluation figures and the
// repository's ablations on the deterministic simulated LAN, printing each
// as a text table.
//
// Usage:
//
//	fleccbench -exp fig4                # Figure 4 (efficiency)
//	fleccbench -exp fig5                # Figure 5 (adaptability)
//	fleccbench -exp fig6                # Figure 6 (flexibility)
//	fleccbench -exp ablation-conflict   # E5: conflict-decision policy
//	fleccbench -exp ablation-rw         # E6: read/write semantics
//	fleccbench -exp ablation-peer       # E7: centralized vs decentralized
//	fleccbench -exp wire                # E13: wire-path micro-benchmarks
//	fleccbench -exp conflict            # E16: conflict-index micro-benchmarks
//	fleccbench -exp ha                  # E17: hot-standby replication micro-benchmarks
//	fleccbench -exp scale               # E18: commit throughput at 1 lane vs 8, by disjoint-group count
//	fleccbench -exp all                 # everything
//
// Figure parameters can be scaled with -agents/-ops; the defaults are the
// paper's settings. The wire and conflict experiments support -json, which
// writes a machine-readable report (default BENCH_wire.json resp.
// BENCH_conflict.json, override with -out) instead of the text table — the
// format CI's benchmark trajectory diffs. For the conflict experiment,
// -agents caps the largest view-table size (CI smoke uses -agents 1000).
package main

import (
	"flag"
	"fmt"
	"os"

	"flecc/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: fig4, fig5, fig6, ablation-conflict, ablation-rw, ablation-peer, ablation-propagation, buyermix, wire, conflict, ha, scale, all")
		agents  = flag.Int("agents", 0, "override agent count (0 = paper default); for -exp conflict, caps the largest view-table size")
		ops     = flag.Int("ops", 0, "override per-agent/per-phase op count (0 = paper default)")
		check   = flag.Bool("check", true, "verify the qualitative shape of each result")
		jsonOut = flag.Bool("json", false, "wire/conflict experiments: write a JSON report instead of a text table")
		out     = flag.String("out", "", "wire/conflict experiments: JSON report path (with -json; default BENCH_wire.json / BENCH_conflict.json)")
	)
	flag.Parse()
	if err := run(*exp, *agents, *ops, *check, *jsonOut, *out); err != nil {
		fmt.Fprintln(os.Stderr, "fleccbench:", err)
		os.Exit(1)
	}
}

// benchDest resolves the JSON report path for a benchmark experiment:
// empty when -json is off, the per-experiment default when -out is unset.
func benchDest(jsonOut bool, out, def string) string {
	if !jsonOut {
		return ""
	}
	if out == "" {
		return def
	}
	return out
}

func run(exp string, agents, ops int, check, jsonOut bool, out string) error {
	switch exp {
	case "fig4":
		return runFig4(agents, ops, check)
	case "fig5":
		return runFig5(agents, ops, check)
	case "fig6":
		return runFig6(agents, ops, check)
	case "ablation-conflict":
		return runAblationConflict(check)
	case "ablation-rw":
		return runAblationRW(check)
	case "ablation-peer":
		return runAblationPeer(check)
	case "buyermix":
		return runBuyerMix(check)
	case "ablation-propagation":
		return runPropagation(check)
	case "wire":
		return runWire(benchDest(jsonOut, out, "BENCH_wire.json"))
	case "conflict":
		return runConflict(benchDest(jsonOut, out, "BENCH_conflict.json"), agents)
	case "ha":
		return runHA(benchDest(jsonOut, out, "BENCH_ha.json"))
	case "scale":
		return runScale(benchDest(jsonOut, out, "BENCH_scale.json"), agents, ops)
	case "all":
		for _, e := range []string{"fig4", "fig5", "fig6", "ablation-conflict", "ablation-rw", "ablation-peer", "ablation-propagation", "buyermix", "wire", "conflict", "ha", "scale"} {
			if err := run(e, agents, ops, check, jsonOut, out); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

func runFig4(agents, ops int, check bool) error {
	cfg := experiments.DefaultFig4()
	if agents > 0 {
		cfg.Agents = agents
		cfg.Groups = nil
		for g := agents / 10; g <= agents; g += agents / 10 {
			if g > 0 {
				cfg.Groups = append(cfg.Groups, g)
			}
		}
	}
	if ops > 0 {
		cfg.OpsPerAgent = ops
	}
	res, err := experiments.RunFig4(cfg)
	if err != nil {
		return err
	}
	if _, err := res.WriteTo(os.Stdout); err != nil {
		return err
	}
	if check {
		if err := res.CheckShape(); err != nil {
			return err
		}
		fmt.Println("shape: OK (time-sharing ≤ flecc ≤ multicast; flecc grows with conflict-group size)")
	}
	return nil
}

func runFig5(agents, ops int, check bool) error {
	cfg := experiments.DefaultFig5()
	if agents > 0 {
		cfg.Agents = agents
	}
	if ops > 0 {
		cfg.OpsPerPhase = ops
	}
	res, err := experiments.RunFig5(cfg)
	if err != nil {
		return err
	}
	if _, err := res.WriteTo(os.Stdout); err != nil {
		return err
	}
	if check {
		if err := res.CheckShape(); err != nil {
			return err
		}
		fmt.Println("shape: OK (strong slower, strong always fresh, weak degrades)")
	}
	return nil
}

func runFig6(agents, ops int, check bool) error {
	cfg := experiments.DefaultFig6()
	if agents > 0 {
		cfg.Agents = agents
	}
	if ops > 0 {
		cfg.Ops = ops
	}
	res, err := experiments.RunFig6(cfg)
	if err != nil {
		return err
	}
	if _, err := res.WriteTo(os.Stdout); err != nil {
		return err
	}
	if check {
		if err := res.CheckShape(); err != nil {
			return err
		}
		fmt.Println("shape: OK (triggers: better quality, more messages)")
	}
	return nil
}

func runAblationConflict(check bool) error {
	res, err := experiments.RunAblationConflict(40, 10, 1)
	if err != nil {
		return err
	}
	if _, err := res.Table().WriteTo(os.Stdout); err != nil {
		return err
	}
	if check {
		if err := res.CheckShape(); err != nil {
			return err
		}
		fmt.Println("shape: OK (static == dynamic < worst-case)")
	}
	return nil
}

func runAblationRW(check bool) error {
	res, err := experiments.RunAblationRW(10, 5)
	if err != nil {
		return err
	}
	if _, err := res.Table().WriteTo(os.Stdout); err != nil {
		return err
	}
	if check {
		if err := res.CheckShape(); err != nil {
			return err
		}
		fmt.Println("shape: OK (read-aware strong browsing never invalidates)")
	}
	return nil
}

func runPropagation(check bool) error {
	res, err := experiments.RunPropagation(experiments.DefaultPropagation())
	if err != nil {
		return err
	}
	if _, err := res.Table().WriteTo(os.Stdout); err != nil {
		return err
	}
	if check {
		if err := res.CheckShape(); err != nil {
			return err
		}
		fmt.Println("shape: OK (push cheap for rare writes, pull cheap for frequent writes)")
	}
	return nil
}

func runBuyerMix(check bool) error {
	res, err := experiments.RunBuyerMix(experiments.DefaultBuyerMix())
	if err != nil {
		return err
	}
	if _, err := res.Table().WriteTo(os.Stdout); err != nil {
		return err
	}
	if check {
		if err := res.CheckShape(); err != nil {
			return err
		}
		fmt.Println("shape: OK (adaptive browses cheap, strong never oversells, weak does)")
	}
	return nil
}

func runAblationPeer(check bool) error {
	res, err := experiments.RunAblationPeer([]int{2, 4, 8, 16, 32})
	if err != nil {
		return err
	}
	if _, err := res.Table().WriteTo(os.Stdout); err != nil {
		return err
	}
	if check {
		if err := res.CheckShape(); err != nil {
			return err
		}
		fmt.Println("shape: OK (decentralized pairings grow O(n²))")
	}
	return nil
}
