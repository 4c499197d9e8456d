// Package modelcheck is a deterministic state-space explorer for the Flecc
// protocol under reconfiguration: an in-process model checker that
// exhaustively interleaves protocol steps (write, push, pull) with
// reconfigurations (mode switch, set-props, view crash/revive, directory
// failover) at small bounds, and checks safety invariants after every
// transition.
//
// # How it works
//
// The system under test is the real implementation — directory.Manager and
// cache.Manager over a netsim simulated LAN — not an abstraction of it.
// Because the in-process transport is synchronous (a call runs the callee's
// handler on the caller's goroutine) and the explorer drives everything
// from one goroutine with FanOut=1, an *action* (one whole protocol
// operation or reconfiguration) is atomic and a run is a pure function of
// its action schedule. The explorer therefore searches the space of
// schedules with BFS:
//
//   - a state is reconstructed by replaying its schedule from the initial
//     system (states are not snapshotted — the stateless model-checking
//     discipline);
//   - after each transition the full observable state (directory
//     bookkeeping, store metadata, primary content with version/writer
//     stamps, every cache manager's data, base snapshot, and counters) is
//     folded into a canonical fingerprint; schedules that reach an
//     already-visited fingerprint are pruned, which is sound because the
//     fingerprint covers everything future behavior can depend on (no
//     trigger in the model references wall/virtual time);
//   - invariants are checked on every explored transition, so a violation
//     anywhere in the graph is found on the first schedule that exhibits
//     it, and the shortest such schedule is found first (BFS).
//
// # Invariants
//
//   - bookkeeping: directory.Manager.CheckInvariants (registry/view-state
//     agreement, seen ≤ committed, store shadow/log/index consistency);
//   - per-key safety: primary versions never regress along a schedule, a
//     key's value changes only with a version bump, every committed value
//     is one the stamped writer actually wrote, and successive commits by
//     the same writer never resurrect an older value (write values are
//     unique, so a stale re-push is detected exactly);
//   - push durability: an acknowledged push is immediately readable;
//   - pull freshness: right after a pull, the view agrees with the
//     primary's committed state on every key it did not modify locally;
//   - strong-mode exclusivity: after a pull in strong mode the puller is
//     the only active view among its conflict set and no conflicting peer
//     retains pending updates (one-copy serializability of strong reads);
//     as a state invariant, a strong-activated view never shares active
//     status with a conflicting view;
//   - weak-mode convergence: from every reached state, a quiescence probe
//     (every live view pushes, then every live view pulls) must leave all
//     live views byte-identical to the primary.
//
// A violated invariant is reported as a Counterexample: the action
// schedule, the violation, and the full message flow rendered as a
// trace.Recorder sequence diagram (the same Figure-2 format /trace serves).
//
// # Modeling notes
//
// InitImage activates a view without an invalidation round, so the checker
// treats initialization as weak-grade activation regardless of mode: the
// one-copy claim of a strong view begins at its first pull, which is the
// contract the paper's usage loop (pull before every use) relies on.
// Crashed views lose their un-pushed writes by design; only acknowledged
// commits are covered by the durability invariants.
//
// The client's push session is part of the model: push-async buffers a
// coalesced round without touching the wire (views run under
// cache.Config.ManualFlush, so the explorer — not a background goroutine —
// decides when a round reaches the directory) and flush dispatches it.
// A buffered round interleaves with every reconfiguration — mode
// switches, crashes, failover — and the rules that a synchronous push
// joins the buffered round and a reconfiguration flushes it first are
// checked on the code path every deployment runs.
package modelcheck

import (
	"fmt"

	"flecc/internal/wire"
)

// Config bounds the exploration. The zero value is not useful; start from
// DefaultConfig.
type Config struct {
	// Views is the number of cache-manager views (paper: deployed view
	// components), named v1..vN. View v1 starts in strong mode, the rest
	// weak, so both regimes are explored from depth zero.
	Views int
	// Keys is the number of shared keys k0..k{K-1}. Each key is a member
	// of the discrete property "K"; a view's property set decides which
	// keys it may write and which views it conflicts with.
	Keys int
	// Reconfigs is the total reconfiguration budget per schedule: mode
	// switches, set-props, view crashes and primary crashes draw from it
	// (a revive or promotion is recovery, not reconfiguration, and is
	// free).
	Reconfigs int
	// Depth bounds the schedule length (actions per run).
	Depth int
	// WritesPerView bounds how many writes each view performs per
	// schedule.
	WritesPerView int
	// Validity is the validity-trigger source registered by every view;
	// it must not reference time t (that would make dedup unsound). The
	// default "staleness < 1" makes weak pulls gather whenever the view
	// has unseen committed updates.
	Validity string
	// PropagateOnPush switches the directory to push-based update
	// distribution (the E10 ablation's update protocol).
	PropagateOnPush bool
	// Failover enables the hot-standby reconfigurations on a two-manager
	// rig, with the views routed through a TRouted forwarding node exactly
	// as the shard router does: dm!a replicates to dm!b through the
	// replication sender deployments run (every mutating request barriers
	// on the standby, exactly the HA directory's semi-synchronous commit,
	// and a barrier released with dm!b degraded is a violation),
	// dm!b boots gated (Options.Standby) as fleccd -standby does,
	// crash-primary kills dm!a at the network, and promote-standby has
	// dm!b promote itself (PromoteSelf, the call fleccd's standby makes
	// once the stream falls silent past the lease) and re-points the
	// forwarder — after which every invariant (including strong-mode
	// exclusivity and per-key durability of acknowledged commits) must
	// still hold against the state dm!b absorbed from replication alone.
	// The managers run two lanes, as deployments do; lanes hold no
	// protocol state, so they add no states.
	Failover bool
	// Crash enables the crash/revive reconfigurations.
	Crash bool
	// SetModes enables the mode-switch reconfiguration.
	SetModes bool
	// SetProps enables the property-change reconfiguration (view i
	// narrows to the single key k{i mod Keys}, or widens back to all).
	SetProps bool
	// Quiesce enables the weak-convergence probe at every newly
	// discovered state.
	Quiesce bool
	// Scoped makes the primary scope commits by property (image.Scoper):
	// the directory commits a writer's entries, and sends a puller's
	// delta, only for keys of the view's registered set. Only a scoping
	// primary grants a view alone in its conflict group exclusive use of
	// its data. The push, pull and convergence checks then hold a view to
	// the keys of its set; unscoped, to every key.
	Scoped bool
	// MaxStates aborts exploration after this many distinct states
	// (0 = unlimited). The explorer reports the abort in Result.Aborted.
	MaxStates int

	// SkipInvalidate seeds a deliberate protocol bug for mutation
	// testing: the directory silently skips the named view when
	// invalidating. A correct checker MUST find a counterexample.
	SkipInvalidate string
	// DropMessage, when > 0, drops the Nth request delivered after system
	// initialization of every replay at the netsim layer (the
	// schedule-controlled delivery hook): the send fails at the caller as
	// a dead link would. Legal protocol behavior — retries, evictions —
	// must keep every invariant intact.
	DropMessage int
}

// DefaultConfig returns the standard small-bound exploration: 2 views,
// 1 key, 1 reconfiguration, every reconfiguration kind enabled.
func DefaultConfig() Config {
	return Config{
		Views:         2,
		Keys:          1,
		Reconfigs:     1,
		Depth:         6,
		WritesPerView: 2,
		Validity:      "staleness < 1",
		Failover:      true,
		Crash:         true,
		SetModes:      true,
		SetProps:      true,
		Quiesce:       true,
	}
}

func (c Config) withDefaults() Config {
	if c.Views <= 0 {
		c.Views = 2
	}
	if c.Keys <= 0 {
		c.Keys = 1
	}
	if c.Depth <= 0 {
		c.Depth = 6
	}
	if c.WritesPerView <= 0 {
		c.WritesPerView = 2
	}
	return c
}

// Kind discriminates actions.
type Kind uint8

const (
	// AWrite mutates one key inside a StartUse/EndUse window.
	AWrite Kind = iota
	// APush pushes the view's pending delta to the directory.
	APush
	// APull pulls the freshest image (invalidating / gathering per mode).
	APull
	// ASetMode flips the view's consistency mode (reconfiguration).
	ASetMode
	// ASetProps narrows the view's property set to its one key, or
	// widens a narrowed one back to every key (reconfiguration): with two
	// keys, two narrowings split a group and a widening rejoins it.
	ASetProps
	// ACrash kills the view's cache manager; its un-pushed writes are
	// lost and messages to it fail at the network (reconfiguration).
	ACrash
	// ARevive restarts a crashed view: fresh cache manager, re-register,
	// init (recovery; does not consume reconfiguration budget).
	ARevive
	// AQuiesceProbe marks probe-injected pushes/pulls in counterexample
	// schedules; the explorer never enumerates it directly.
	AQuiesceProbe
	// APushAsync buffers an asynchronous push round (PushImageAsync under
	// ManualFlush): nothing reaches the wire until AFlush, a synchronous
	// push (which joins the round), or a flushing reconfiguration
	// dispatches it.
	APushAsync
	// AFlush dispatches the buffered asynchronous round and waits for it
	// (Flush), exercising the push-session ordering and flush rules
	// against every invariant.
	AFlush
	// ACrashPrimary kills the primary directory manager dm!a at the
	// network (reconfiguration). Client calls fail until promote-standby;
	// acknowledged commits must survive on the standby.
	ACrashPrimary
	// APromoteStandby has dm!b promote itself under the next epoch
	// (PromoteSelf, as fleccd's standby does once the replication stream
	// has been silent past the lease) and re-points the forwarder at it.
	// Recovery: does not consume the reconfiguration budget.
	APromoteStandby
)

// Action is one atomic transition of the model: a protocol step or a
// reconfiguration by one view (or the deployment, for ACrashPrimary and
// APromoteStandby).
type Action struct {
	Kind Kind
	// View is the acting view index (ignored for deployment actions).
	View int
	// Key is the written key index (AWrite only).
	Key int
	// Mode is the target mode (ASetMode only).
	Mode wire.Mode
}

// String renders the action compactly, e.g. "write(v2,k0)" or
// "set-mode(v1,weak)".
func (a Action) String() string {
	v := fmt.Sprintf("v%d", a.View+1)
	switch a.Kind {
	case AWrite:
		return fmt.Sprintf("write(%s,k%d)", v, a.Key)
	case APush:
		return fmt.Sprintf("push(%s)", v)
	case APull:
		return fmt.Sprintf("pull(%s)", v)
	case ASetMode:
		return fmt.Sprintf("set-mode(%s,%s)", v, a.Mode)
	case ASetProps:
		return fmt.Sprintf("set-props(%s)", v)
	case ACrash:
		return fmt.Sprintf("crash(%s)", v)
	case ARevive:
		return fmt.Sprintf("revive(%s)", v)
	case AQuiesceProbe:
		return fmt.Sprintf("quiesce-probe(%s)", v)
	case APushAsync:
		return fmt.Sprintf("push-async(%s)", v)
	case AFlush:
		return fmt.Sprintf("flush(%s)", v)
	case ACrashPrimary:
		return "crash-primary(dm!a)"
	case APromoteStandby:
		return "promote-standby(dm!b)"
	default:
		return fmt.Sprintf("action(%d)", a.Kind)
	}
}
