package modelcheck

import "testing"

// The conflict-index regression gate: the registry's indexed conflict
// engine must be an invisible optimization at the protocol level. The
// explorer drives the real directory manager (and therefore the real
// indexed registry) through every bounded interleaving; if the index ever
// disagreed with the pairwise semantics — a missed conflict, a phantom
// one — the state space or an invariant would shift. Pinning the exact
// default-bound state count (and the mutant verdict) turns any such drift
// into a hard test failure instead of a silent behavior change.

// defaultBoundStates is the exact size of the default-bound state space
// (2 views, 1 key, 1 reconfiguration, depth 6, push sessions on,
// failover on — dm!a replicating to dm!b through the shipped sender with
// crash-primary / promote-standby enabled; 2968 before the failover
// actions existed; 3492 before a pull that moved only seen stopped
// barriering, which leaves dm!b's seen lagging in new states; 3614 before
// live migration and its migrate action were deleted; 3104 before the
// fingerprint held the view's acked and the directory's pushed, which a
// pull's leave-out rule reads, so states that differ only there no
// longer merge). The
// managers run two lanes; lanes hold no protocol state, so the count is
// the one-lane count.
// Recompute deliberately (and update EXPERIMENTS.md E14) only when the
// action set itself changes.
const defaultBoundStates = 4100

func TestIndexedRegistryStateCountPinned(t *testing.T) {
	res, err := Explore(DefaultConfig())
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected counterexample with indexed registry:\n%s", res.Violation)
	}
	if res.States != defaultBoundStates {
		t.Fatalf("default-bound state count drifted: got %d states, pinned %d — "+
			"the conflict index (or the action set) changed protocol-visible behavior",
			res.States, defaultBoundStates)
	}
}

// TestIndexedRegistryMutantStillDies: the seeded skip-invalidation bug
// must still produce a counterexample with the indexed registry serving
// every conflict set — the index must not mask the mutant (e.g. by
// over-reporting conflicts and invalidating the skipped view through
// another path).
func TestIndexedRegistryMutantStillDies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipInvalidate = "v2"
	res, err := Explore(cfg)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if res.Violation == nil {
		t.Fatalf("seeded skip-invalidation bug went undetected with the indexed registry (%d states)", res.States)
	}
}

// TestExploreSetPropsHeavy: a set-props-heavy schedule — the whole
// reconfiguration budget spent on property changes, no other
// reconfiguration kinds competing for it — so every reachable
// (re-)indexing interleaving of the conflict index is explored: SetProps
// between a write and its push, between an invalidation round and the
// pull it serves, after a crash-marked tombstone, and so on.
func TestExploreSetPropsHeavy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Crash = false
	cfg.SetModes = false
	cfg.SetProps = true
	cfg.Reconfigs = 2
	res, err := Explore(cfg)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("set-props-heavy schedule found a counterexample:\n%s", res.Violation)
	}
	if res.States < 100 {
		t.Fatalf("suspiciously small set-props-heavy state space: %d states", res.States)
	}
	t.Logf("set-props-heavy: %d states, %d transitions, depth %d", res.States, res.Transitions, res.Depth)
}
