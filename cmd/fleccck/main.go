// Command fleccck model-checks the Flecc protocol under reconfiguration:
// it exhaustively explores every interleaving of protocol steps (write,
// push, pull) with reconfigurations (mode switch, property change, view
// crash/revive, directory failover) at small bounds, checking safety
// invariants after every transition and rendering the first violation as
// an action schedule plus a Figure-2 message-flow diagram.
//
// Usage:
//
//	fleccck                                  # default bounds: 2 views, 1 key, 1 reconfig
//	fleccck -views 3 -keys 2 -reconfigs 1    # the standard pre-merge sweep
//	fleccck -depth 5 -writes 1               # shallower / cheaper
//	fleccck -drop 7                          # drop the 7th request of every replay
//	fleccck -failover=false                  # disable crash-primary/promote-standby
//	fleccck -skip-invalidate v2              # seed the known mutation (must FAIL)
//
// Exit status 0 means every invariant held over the explored space; 1
// means a counterexample was found (printed to stdout); 2 means the
// checker itself failed.
package main

import (
	"flag"
	"fmt"
	"os"

	"flecc/internal/modelcheck"
)

func main() {
	def := modelcheck.DefaultConfig()
	var (
		views     = flag.Int("views", def.Views, "number of views (v1 strong, rest weak)")
		keys      = flag.Int("keys", def.Keys, "number of shared keys")
		reconfigs = flag.Int("reconfigs", def.Reconfigs, "reconfiguration budget per schedule")
		depth     = flag.Int("depth", def.Depth, "maximum schedule length")
		writes    = flag.Int("writes", def.WritesPerView, "writes per view per schedule")
		validity  = flag.String("validity", def.Validity, "validity trigger registered by every view")
		propagate = flag.Bool("propagate", false, "use push-based update propagation")
		failover  = flag.Bool("failover", def.Failover, "enable hot-standby replication with crash-primary/promote-standby")
		crash     = flag.Bool("crash", def.Crash, "enable crash/revive reconfigurations")
		modes     = flag.Bool("modes", def.SetModes, "enable mode-switch reconfigurations")
		props     = flag.Bool("props", def.SetProps, "enable property-change reconfigurations")
		quiesce   = flag.Bool("quiesce", def.Quiesce, "probe weak convergence at every state")
		scoped    = flag.Bool("scoped", def.Scoped, "scope the primary's commits by property (exclusive grants)")
		maxStates = flag.Int("max-states", 0, "abort after this many states (0 = unlimited)")
		skipInval = flag.String("skip-invalidate", "", "seed the skip-invalidation mutation for the named view")
		drop      = flag.Int("drop", 0, "drop the Nth delivered request of every replay (0 = none)")
	)
	flag.Parse()

	cfg := modelcheck.Config{
		Views:           *views,
		Keys:            *keys,
		Reconfigs:       *reconfigs,
		Depth:           *depth,
		WritesPerView:   *writes,
		Validity:        *validity,
		PropagateOnPush: *propagate,
		Failover:        *failover,
		Crash:           *crash,
		SetModes:        *modes,
		SetProps:        *props,
		Quiesce:         *quiesce,
		Scoped:          *scoped,
		MaxStates:       *maxStates,
		SkipInvalidate:  *skipInval,
		DropMessage:     *drop,
	}
	res, err := modelcheck.Explore(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleccck:", err)
		os.Exit(2)
	}
	fmt.Println(res)
	if res.Violation != nil {
		os.Exit(1)
	}
}
