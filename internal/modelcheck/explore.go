package modelcheck

import (
	"fmt"
	"strings"
	"time"

	"flecc/internal/trace"
	"flecc/internal/wire"
)

// Result summarizes one exploration.
type Result struct {
	// States is the number of distinct states discovered (including the
	// initial state); Transitions the number of transitions taken;
	// DedupHits the transitions that landed on an already-known state.
	States, Transitions, DedupHits int
	// Depth is the longest schedule that discovered a new state.
	Depth int
	// Violation is the first (shortest-schedule) invariant breach found,
	// nil when the explored space is clean.
	Violation *Counterexample
	// Aborted reports that MaxStates cut the exploration short.
	Aborted bool
	// Elapsed is the wall-clock exploration time.
	Elapsed time.Duration
}

// String renders a one-paragraph summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "explored %d states, %d transitions (%d deduplicated), max depth %d in %v",
		r.States, r.Transitions, r.DedupHits, r.Depth, r.Elapsed.Round(time.Millisecond))
	if r.Aborted {
		b.WriteString(" [aborted at state bound]")
	}
	if r.Violation != nil {
		b.WriteString("\n\n")
		b.WriteString(r.Violation.String())
	} else {
		b.WriteString("\nall invariants hold")
	}
	return b.String()
}

// Counterexample is a violating schedule, the violation, and the full
// message flow of its replay rendered as a sequence diagram.
type Counterexample struct {
	// Schedule is the action sequence that exhibits the violation,
	// including any quiescence-probe actions appended by the checker.
	Schedule []Action
	// ProbeFrom indexes the first quiescence-probe action in Schedule
	// (-1 when the violation needed no probe).
	ProbeFrom int
	// Violation describes the invariant breach.
	Violation error
	// Diagram is the replay's message flow in the Figure 2 sequence
	// format, one range of messages per action.
	Diagram string
	// MsgRanges gives, per schedule index, the [first, last) recorded
	// message indices of that action's replay.
	MsgRanges [][2]int
}

// String renders the counterexample: numbered schedule, violation, and
// the message-flow diagram.
func (c *Counterexample) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "counterexample (%d actions):\n", len(c.Schedule))
	for i, a := range c.Schedule {
		marker := ""
		if c.ProbeFrom >= 0 && i >= c.ProbeFrom {
			marker = "  (quiesce probe)"
		}
		rng := ""
		if i < len(c.MsgRanges) && c.MsgRanges[i][1] > c.MsgRanges[i][0] {
			rng = fmt.Sprintf("  [msgs %d..%d]", c.MsgRanges[i][0]+1, c.MsgRanges[i][1])
		}
		fmt.Fprintf(&b, "  %2d. %s%s%s\n", i+1, a, rng, marker)
	}
	fmt.Fprintf(&b, "violated: %v\n", c.Violation)
	if c.Diagram != "" {
		b.WriteString("\nmessage flow (Figure 2 format):\n")
		b.WriteString(c.Diagram)
	}
	return b.String()
}

// enumerate lists the actions enabled in a state, in a fixed canonical
// order: writes, pushes, pulls, then reconfigurations, failover last.
func enumerate(cfg Config, m meta) []Action {
	var out []Action
	budget := m.reconfigs < cfg.Reconfigs
	for i, v := range m.views {
		if !v.alive || !v.valid || v.writes >= cfg.WritesPerView {
			continue
		}
		for k := 0; k < cfg.Keys; k++ {
			if v.propsAlt && k != i%cfg.Keys {
				continue
			}
			out = append(out, Action{Kind: AWrite, View: i, Key: k})
		}
	}
	for i, v := range m.views {
		if v.alive && v.pending > 0 {
			out = append(out, Action{Kind: APush, View: i})
		}
	}
	// push-async buffers a round only when there is something to carry and
	// no round is already waiting (a second call would coalesce into the
	// same round — no new state). flush is enabled exactly while a round is
	// buffered.
	for i, v := range m.views {
		if v.alive && v.pending > 0 && !v.buffered {
			out = append(out, Action{Kind: APushAsync, View: i})
		}
	}
	for i, v := range m.views {
		if v.alive && v.buffered {
			out = append(out, Action{Kind: AFlush, View: i})
		}
	}
	for i, v := range m.views {
		if v.alive {
			out = append(out, Action{Kind: APull, View: i})
		}
	}
	if cfg.SetModes && budget {
		for i, v := range m.views {
			if !v.alive {
				continue
			}
			target := wire.Strong
			if v.mode == wire.Strong {
				target = wire.Weak
			}
			out = append(out, Action{Kind: ASetMode, View: i, Mode: target})
		}
	}
	if cfg.SetProps && budget {
		for i, v := range m.views {
			if v.alive && !v.propsAlt {
				out = append(out, Action{Kind: ASetProps, View: i})
			}
		}
	}
	if cfg.Crash {
		for i, v := range m.views {
			if v.alive && budget {
				out = append(out, Action{Kind: ACrash, View: i})
			} else if !v.alive {
				out = append(out, Action{Kind: ARevive, View: i})
			}
		}
	}
	if cfg.Failover {
		if budget && m.active == 0 && !m.primaryDown {
			out = append(out, Action{Kind: ACrashPrimary})
		}
		if m.primaryDown && m.active == 0 {
			// Recovery, like revive: free of the reconfiguration budget.
			out = append(out, Action{Kind: APromoteStandby})
		}
	}
	return out
}

// replay builds a fresh system and applies the schedule. It returns the
// live system, which the caller closes (nil on error), the index of the
// violating action (-1 if none), and the violation itself; a
// non-Violation error is an infrastructure failure.
func replay(cfg Config, schedule []Action, rec *trace.Recorder) (*system, int, error) {
	sys, err := newSystem(cfg, rec)
	if err != nil {
		return nil, -1, err
	}
	for i, a := range schedule {
		if err := sys.apply(a); err != nil {
			sys.close()
			return nil, i, err
		}
	}
	return sys, -1, nil
}

// render re-replays a violating schedule with a trace recorder attached
// and packages the counterexample.
func render(cfg Config, schedule []Action, probeFrom int, verr error) *Counterexample {
	c := &Counterexample{Schedule: schedule, ProbeFrom: probeFrom, Violation: verr}
	rec := trace.NewRecorder(4096)
	sys, err := newSystem(cfg, rec)
	if err != nil {
		return c
	}
	defer sys.close()
	for _, a := range schedule {
		start := rec.Total()
		aerr := sys.apply(a)
		c.MsgRanges = append(c.MsgRanges, [2]int{start, rec.Total()})
		if aerr != nil {
			break
		}
	}
	c.Diagram = rec.String()
	return c
}

// Explore runs the bounded breadth-first search and reports what it
// found. It returns an error only for infrastructure failures (a
// mis-built system); invariant violations come back inside the Result.
func Explore(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	res := &Result{}
	done := func() *Result {
		res.Elapsed = time.Since(start)
		return res
	}

	type node struct {
		path []Action
		m    meta
	}

	// The initial state: verified, fingerprinted, quiesce-probed.
	sys, err := newSystem(cfg, nil)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	if verr := sys.verify(Action{Kind: AQuiesceProbe}, nil); verr != nil {
		res.Violation = render(cfg, nil, -1, verr)
		return done(), nil
	}
	visited := map[string]bool{sys.fingerprint(): true}
	res.States = 1
	initMeta := sys.observe()
	if cfg.Quiesce && cfg.DropMessage == 0 {
		if probe, verr := sys.quiesce(); verr != nil {
			res.Violation = render(cfg, probe, 0, verr)
			return done(), nil
		}
	}

	queue := []node{{path: nil, m: initMeta}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if len(n.path) >= cfg.Depth {
			continue
		}
		for _, a := range enumerate(cfg, n.m) {
			res.Transitions++
			schedule := make([]Action, len(n.path)+1)
			copy(schedule, n.path)
			schedule[len(n.path)] = a
			child, badIdx, err := replay(cfg, schedule, nil)
			if err != nil {
				if v, ok := err.(*Violation); ok {
					res.Violation = render(cfg, schedule[:badIdx+1], -1, v)
					return done(), nil
				}
				return nil, err
			}
			fp := child.fingerprint()
			if visited[fp] {
				child.close()
				res.DedupHits++
				continue
			}
			visited[fp] = true
			res.States++
			if d := len(schedule); d > res.Depth {
				res.Depth = d
			}
			childMeta := child.observe()
			var probe []Action
			var verr error
			if cfg.Quiesce && cfg.DropMessage == 0 {
				probe, verr = child.quiesce()
			}
			child.close()
			if verr != nil {
				res.Violation = render(cfg, append(schedule, probe...), len(schedule), verr)
				return done(), nil
			}
			if cfg.MaxStates > 0 && res.States >= cfg.MaxStates {
				res.Aborted = true
				return done(), nil
			}
			queue = append(queue, node{path: schedule, m: childMeta})
		}
	}
	return done(), nil
}
