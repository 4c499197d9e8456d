package main

import (
	"errors"
	"fmt"
)

// verify runs the output checks on a quiesced rig (no driver running) and
// returns every violation. A benchmark number from a run that lost a seat
// is not a number.
func (r *rig) verify() error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	s := r.spec

	// Per-flight tallies of what the clients were told succeeded.
	sumAcked := map[int]int{}
	maxAcked := map[int]int{}
	totalAcked := 0
	for _, c := range r.clients {
		for f, n := range c.acked {
			sumAcked[f] += n
			totalAcked += n
			if n > maxAcked[f] {
				maxAcked[f] = n
			}
		}
	}

	primary := r.dep.db
	if s.viewsPerGroup > 1 && !s.sessions {
		// Weak-mode sharers race on the same flights and SeatResolver
		// keeps the larger count, so the primary may trail the sum of
		// acknowledgements but never a single agent's own count, and
		// never exceeds what was sold.
		for _, f := range primary.Flights() {
			if f.Reserved < maxAcked[f.Number] || f.Reserved > sumAcked[f.Number] {
				fail("flight %d: primary reserved %d outside [max agent %d, sum acknowledged %d]",
					f.Number, f.Reserved, maxAcked[f.Number], sumAcked[f.Number])
			}
			if f.Reserved > f.Capacity {
				fail("flight %d oversold: %d > %d", f.Number, f.Reserved, f.Capacity)
			}
		}
	} else {
		// Disjoint writers, and strong-mode buyers, must conserve seats
		// exactly.
		if got := primary.TotalReserved(); got != totalAcked {
			fail("seat conservation: primary holds %d reserved seats, clients were acknowledged %d", got, totalAcked)
		}
		for _, f := range primary.Flights() {
			if f.Reserved != sumAcked[f.Number] {
				fail("flight %d: primary reserved %d, acknowledged %d", f.Number, f.Reserved, sumAcked[f.Number])
			}
		}
	}

	// Every open view converges to the primary after a final pull.
	for _, c := range r.clients {
		if c.v == nil {
			continue
		}
		if err := c.v.agent.CM.PullImage(); err != nil {
			fail("final pull %s: %v", c.v.name, err)
			continue
		}
		for n := c.from; n <= c.to; n++ {
			want, _ := primary.Flight(n)
			got, ok := c.v.agent.ARS.Flight(n)
			if !ok || got != want {
				fail("view %s flight %d: replica %+v, primary %+v", c.v.name, n, got, want)
			}
		}
	}

	if err := r.dep.checkInvariants(); err != nil {
		fail("invariants: %v", err)
	}

	if s.standby {
		d := r.dep
		if pv, sv := d.dm.CurrentVersion(), d.standbyDM.CurrentVersion(); pv != sv {
			fail("standby version %d != primary version %d", sv, pv)
		}
		for _, f := range primary.Flights() {
			if got, ok := d.standbyDB.Flight(f.Number); !ok || got != f {
				fail("standby flight %d: %+v, primary %+v", f.Number, got, f)
			}
		}
		if lag := d.repl.Lag(); lag != 0 {
			fail("replication lag at end: %d", lag)
		}
		if n := d.repl.DegradedBarriers(); n != 0 {
			fail("degraded replication barriers: %d", n)
		}
		// The twin must replay the baseline's op stream byte for byte.
		base, _ := specByName("disjoint_reserve")
		if s.streamHash(r.seed, 256) != base.streamHash(r.seed, 256) {
			fail("op stream differs from disjoint_reserve's")
		}
	}
	return errors.Join(errs...)
}
