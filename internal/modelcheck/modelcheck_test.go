package modelcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"flecc/internal/wire"
)

// TestExploreCleanDefault: the default bounds explore clean — every
// invariant holds over every interleaving of protocol steps and one
// reconfiguration between two views on one key.
func TestExploreCleanDefault(t *testing.T) {
	res, err := Explore(DefaultConfig())
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected counterexample:\n%s", res.Violation)
	}
	if res.States < 100 {
		t.Fatalf("suspiciously small state space: %d states", res.States)
	}
	if res.DedupHits == 0 {
		t.Fatalf("no deduplicated transitions — fingerprinting is not collapsing revisits")
	}
	if res.Aborted {
		t.Fatalf("aborted without a MaxStates bound")
	}
	t.Logf("%d states, %d transitions, %d dedup hits, depth %d, %v",
		res.States, res.Transitions, res.DedupHits, res.Depth, res.Elapsed)
}

// TestExploreCleanNoMigration: the single-directory deployment (no routing
// forwarder, no standby) explores clean too.
func TestExploreCleanNoMigration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Failover = false
	cfg.Depth = 5
	res, err := Explore(cfg)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected counterexample:\n%s", res.Violation)
	}
}

// TestExploreCleanPropagateOnPush: the push-based update-distribution
// variant holds the same invariants.
func TestExploreCleanPropagateOnPush(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PropagateOnPush = true
	cfg.Depth = 5
	res, err := Explore(cfg)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected counterexample:\n%s", res.Violation)
	}
}

// TestExploreCleanUnderDrops: dropping any single early request of every
// replay exercises the failure semantics (failed pulls, evictions) without
// breaking an invariant.
func TestExploreCleanUnderDrops(t *testing.T) {
	for n := 1; n <= 10; n++ {
		cfg := DefaultConfig()
		cfg.Depth = 4
		cfg.DropMessage = n
		res, err := Explore(cfg)
		if err != nil {
			t.Fatalf("explore drop=%d: %v", n, err)
		}
		if res.Violation != nil {
			t.Fatalf("drop=%d: unexpected counterexample:\n%s", n, res.Violation)
		}
	}
}

// TestDeterministicExploration: two explorations of the same bounds visit
// the identical state space (the whole approach rests on replay
// determinism).
func TestDeterministicExploration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Depth = 4
	a, err := Explore(cfg)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	b, err := Explore(cfg)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if a.States != b.States || a.Transitions != b.Transitions || a.DedupHits != b.DedupHits || a.Depth != b.Depth {
		t.Fatalf("exploration is not deterministic:\nfirst:  %+v\nsecond: %+v", a, b)
	}
}

// TestMaxStatesAborts: the state bound cuts exploration short and says so.
func TestMaxStatesAborts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxStates = 50
	res, err := Explore(cfg)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if !res.Aborted {
		t.Fatalf("expected Aborted with MaxStates=50, got %d states", res.States)
	}
	if res.States > 50 {
		t.Fatalf("state bound not respected: %d > 50", res.States)
	}
}

// TestReplayDeterminism: the same schedule replayed twice produces
// byte-identical fingerprints — the property BFS-with-dedup is sound on.
func TestReplayDeterminism(t *testing.T) {
	cfg := DefaultConfig().withDefaults()
	schedule := []Action{
		{Kind: AWrite, View: 1, Key: 0},
		{Kind: APull, View: 0},
		{Kind: ACrashPrimary},
		{Kind: APromoteStandby},
		{Kind: AWrite, View: 0, Key: 0},
		{Kind: APush, View: 0},
		{Kind: APull, View: 1},
	}
	sysA, bad, err := replay(cfg, schedule, nil)
	if err != nil {
		t.Fatalf("replay A failed at action %d: %v", bad, err)
	}
	defer sysA.close()
	sysB, bad, err := replay(cfg, schedule, nil)
	if err != nil {
		t.Fatalf("replay B failed at action %d: %v", bad, err)
	}
	defer sysB.close()
	fa, fb := sysA.fingerprint(), sysB.fingerprint()
	if fa != fb {
		t.Fatalf("replay is not deterministic:\n--- first ---\n%s\n--- second ---\n%s", fa, fb)
	}
}

// TestExploreLeavesNoGoroutines: every replay closes the replication
// session it started, so a failover exploration ends with the goroutine
// count it began with. A forgotten Close leaves one sender per replay.
func TestExploreLeavesNoGoroutines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Depth = 3
	before := runtime.NumGoroutine()
	res, err := Explore(cfg)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected counterexample:\n%s", res.Violation)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after exploring %d states, %d before", after, res.States, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestActionString: the schedule rendering the counterexamples rely on.
func TestActionString(t *testing.T) {
	cases := map[string]Action{
		"write(v1,k0)":          {Kind: AWrite, View: 0, Key: 0},
		"push(v2)":              {Kind: APush, View: 1},
		"pull(v3)":              {Kind: APull, View: 2},
		"set-mode(v1,weak)":     {Kind: ASetMode, View: 0, Mode: wire.Weak},
		"set-props(v2)":         {Kind: ASetProps, View: 1},
		"crash(v1)":             {Kind: ACrash, View: 0},
		"revive(v1)":            {Kind: ARevive, View: 0},
		"push-async(v1)":        {Kind: APushAsync, View: 0},
		"flush(v2)":             {Kind: AFlush, View: 1},
		"crash-primary(dm!a)":   {Kind: ACrashPrimary},
		"promote-standby(dm!b)": {Kind: APromoteStandby},
	}
	for want, a := range cases {
		if got := a.String(); got != want {
			t.Errorf("Action%+v.String() = %q, want %q", a, got, want)
		}
	}
}

// TestPipelinedReplay: a buffered round is visible in the fingerprint
// (so BFS does not collapse it into the un-buffered state), survives a
// reconfiguration that does not drain it, and flush clears it — all on a
// deterministic replay.
func TestPipelinedReplay(t *testing.T) {
	cfg := DefaultConfig().withDefaults()
	buffered := []Action{
		{Kind: AWrite, View: 1, Key: 0},
		{Kind: APushAsync, View: 1},
		{Kind: ACrash, View: 0}, // reconfigure around the buffered round
	}
	sys, bad, err := replay(cfg, buffered, nil)
	if err != nil {
		t.Fatalf("replay failed at action %d: %v", bad, err)
	}
	defer sys.close()
	fp := sys.fingerprint()
	if !strings.Contains(fp, "buffered=true") {
		t.Fatalf("buffered round invisible to the fingerprint:\n%s", fp)
	}
	flushed := append(buffered, Action{Kind: AFlush, View: 1})
	sys2, bad, err := replay(cfg, flushed, nil)
	if err != nil {
		t.Fatalf("flush replay failed at action %d: %v", bad, err)
	}
	defer sys2.close()
	if fp2 := sys2.fingerprint(); strings.Contains(fp2, "buffered=true") {
		t.Fatalf("flush left a buffered round behind:\n%s", fp2)
	}
	// Determinism across replays of the pipelined schedule.
	sys3, _, err := replay(cfg, flushed, nil)
	if err != nil {
		t.Fatalf("second flush replay: %v", err)
	}
	defer sys3.close()
	if sys2.fingerprint() != sys3.fingerprint() {
		t.Fatal("pipelined replay is not deterministic")
	}
}

// TestMutationCaughtWithPipeline pins the acceptance pairing explicitly:
// the seeded skip-invalidation mutant must still die while the
// push-session actions are part of the explored space.
func TestMutationCaughtWithPipeline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipInvalidate = "v2"
	res, err := Explore(cfg)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if res.Violation == nil {
		t.Fatalf("seeded skip-invalidation bug went undetected with pipeline enabled (%d states)", res.States)
	}
}

// TestEnumerateRespectsbudgets: no reconfiguration actions are offered
// once the budget is spent, and no writes beyond the per-view cap.
func TestEnumerateRespectsBudgets(t *testing.T) {
	cfg := DefaultConfig().withDefaults()
	m := meta{
		views: []viewMeta{
			{alive: true, valid: true, pending: 1, writes: cfg.WritesPerView, mode: wire.Strong},
			{alive: true, valid: true, writes: 0, mode: wire.Weak},
		},
		reconfigs: cfg.Reconfigs, // budget exhausted
	}
	for _, a := range enumerate(cfg, m) {
		switch a.Kind {
		case ASetMode, ASetProps, ACrash, ACrashPrimary:
			t.Errorf("reconfiguration %s offered with exhausted budget", a)
		case AWrite:
			if a.View == 0 {
				t.Errorf("write offered beyond the per-view cap: %s", a)
			}
		}
	}
}

// TestStrings ensures Result and Counterexample render the pieces the CLI
// and CI logs grep for.
func TestStrings(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Depth = 2
	res, err := Explore(cfg)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	s := res.String()
	for _, want := range []string{"explored", "transitions", "deduplicated", "all invariants hold"} {
		if !strings.Contains(s, want) {
			t.Errorf("Result.String() missing %q:\n%s", want, s)
		}
	}
}
