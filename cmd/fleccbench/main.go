// Command fleccbench regenerates the paper's evaluation figures and the
// repository's ablations on the deterministic simulated LAN, printing each
// as a text table.
//
// Usage:
//
//	fleccbench -exp fig4                   # Figure 4 (efficiency)
//	fleccbench -exp fig5                   # Figure 5 (adaptability)
//	fleccbench -exp fig6                   # Figure 6 (flexibility)
//	fleccbench -exp ablation-conflict      # E5: conflict-decision policy
//	fleccbench -exp ablation-rw            # E6: read/write semantics
//	fleccbench -exp ablation-peer          # E7: centralized vs decentralized
//	fleccbench -exp buyermix               # E9: buyer-mix sweep
//	fleccbench -exp ablation-propagation   # E10: pull- vs push-based updates
//	fleccbench -exp all                    # everything
//
// Figure parameters can be scaled with -agents/-ops; the defaults are the
// paper's settings. Micro-benchmarks of single layers are `go test -bench`
// targets beside their code; the end-to-end benchmark lives in bench/.
package main

import (
	"flag"
	"fmt"
	"os"

	"flecc/internal/experiments"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment: fig4, fig5, fig6, ablation-conflict, ablation-rw, ablation-peer, ablation-propagation, buyermix, all")
		agents = flag.Int("agents", 0, "override the figures' agent count (0 = paper default)")
		ops    = flag.Int("ops", 0, "override the figures' per-agent/per-phase op count (0 = paper default)")
		check  = flag.Bool("check", true, "verify the qualitative shape of each result")
	)
	flag.Parse()
	if err := run(*exp, *agents, *ops, *check); err != nil {
		fmt.Fprintln(os.Stderr, "fleccbench:", err)
		os.Exit(1)
	}
}

func run(exp string, agents, ops int, check bool) error {
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
	case "all":
		for _, e := range []string{"fig4", "fig5", "fig6", "ablation-conflict", "ablation-rw", "ablation-peer", "ablation-propagation", "buyermix"} {
			if err := run(e, agents, ops, check); err != nil {
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
		step := max(1, agents/10)
		for g := step; g <= agents; g += step {
			cfg.Groups = append(cfg.Groups, g)
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
