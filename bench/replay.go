package main

import (
	"runtime"
	"strconv"
	"time"

	"flecc/internal/airline"
	"flecc/internal/directory"
	"flecc/internal/property"
	"flecc/internal/registry"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// Post-run replays: inputs captured by the traced run's observers are fed
// single-threaded through the layers' public functions, so a layer's own
// cost is known apart from the waiting around it. Beside deploy.go this is
// the only file that touches server-side packages, and only through
// exported functions.

// replayFloor is the least time a replay loop measures, so its per-call
// figure is not a handful of clock ticks.
const replayFloor = 30 * time.Millisecond

type wireReplay struct {
	encodeNs, decodeNs, allocs float64
	bytesP50, bytesP99         float64
}

func replayWire(encoded [][]byte) wireReplay {
	var out wireReplay
	if len(encoded) == 0 {
		return out
	}
	sizes := make([]float64, len(encoded))
	for i, b := range encoded {
		sizes[i] = float64(len(b))
	}
	out.bytesP50, out.bytesP99 = quantile(sizes, 0.50), quantile(sizes, 0.99)

	msgs := make([]*wire.Message, len(encoded))
	var calls int
	start := time.Now()
	for time.Since(start) < replayFloor {
		for i, b := range encoded {
			m, err := wire.Decode(b)
			if err != nil {
				panic("bench: captured message does not decode: " + err.Error()) // it was encoded by wire.Encode
			}
			msgs[i] = m
		}
		calls += len(encoded)
	}
	out.decodeNs = float64(time.Since(start)) / float64(calls)

	calls = 0
	var sink int
	start = time.Now()
	for time.Since(start) < replayFloor {
		for _, m := range msgs {
			sink += len(wire.Encode(m))
		}
		calls += len(msgs)
	}
	out.encodeNs = float64(time.Since(start)) / float64(calls)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, b := range encoded {
		m, _ := wire.Decode(b)
		sink += len(wire.Encode(m))
		msgs[i] = m
	}
	runtime.ReadMemStats(&after)
	out.allocs = float64(after.Mallocs-before.Mallocs) / float64(len(encoded))
	_ = sink
	return out
}

// viewProps rebuilds the property set a view registered with, from the
// client index its name carries ("cNN.sNNNNNN").
func (s spec) viewProps(name string) property.Set {
	idx, err := strconv.Atoi(name[1:3])
	if err != nil {
		idx = 0
	}
	from, to := s.viewRange(idx)
	return property.NewSet(property.New(airline.PropFlights, property.DiscreteRange(from, to)))
}

type storeReplay struct {
	commitUs, extractUs float64
}

// replayStore commits the captured deltas, in capture order, into a fresh
// striped store over a freshly seeded database, then serves the captured
// pulls at the staleness they had live.
func replayStore(s spec, commits []capturedCommit, extracts []capturedExtract) storeReplay {
	var out storeReplay
	db := airline.NewReservationSystem()
	airline.SeedFlights(db, firstFlight, s.flights(), flightCapacity)
	st := directory.NewStore(db, vclock.NewReal())
	st.SetResolver(airline.SeatResolver)
	st.EnableStriping()
	if len(commits) > 0 {
		var total time.Duration
		for _, c := range commits {
			img := c.img.Clone()
			start := time.Now()
			st.Commit(c.writer, img, c.ops)
			total += time.Since(start)
		}
		out.commitUs = float64(total) / 1e3 / float64(len(commits))
	}
	if len(extracts) > 0 {
		cur := uint64(st.Current())
		type pull struct {
			props property.Set
			since vclock.Version
		}
		pulls := make([]pull, len(extracts))
		for i, e := range extracts {
			since := uint64(0)
			if !e.init && e.gap < cur {
				since = cur - e.gap
			}
			pulls[i] = pull{props: s.viewProps(e.view), since: vclock.Version(since)}
		}
		var calls int
		start := time.Now()
		for time.Since(start) < replayFloor {
			for _, p := range pulls {
				st.Extract(p.props, p.since)
			}
			calls += len(pulls)
		}
		out.extractUs = float64(time.Since(start)) / 1e3 / float64(calls)
	}
	return out
}

type registryReplay struct {
	registerNs, queryNs, matches float64
}

// replayRegistry registers the workload's property sets into a fresh
// registry and queries every view's conflict set.
func replayRegistry(s spec) registryReplay {
	names := make([]string, s.views)
	props := make([]property.Set, s.views)
	for i := range names {
		names[i] = viewName(i, 0)
		props[i] = s.viewProps(names[i])
	}
	var out registryReplay
	var reg *registry.Registry
	var calls int
	start := time.Now()
	for time.Since(start) < replayFloor {
		reg = registry.New()
		for i, n := range names {
			reg.Register(n, props[i])
		}
		calls += len(names)
	}
	out.registerNs = float64(time.Since(start)) / float64(calls)
	for _, n := range names {
		reg.SetActive(n, true)
	}
	// Static populations hit the registry's per-epoch conflict cache, as
	// they do live. Session churn bumps the epoch on every open and close,
	// so there one view re-registers (untimed) before each round and the
	// round's queries run against a cold cache, as they do live.
	calls = 0
	var matched int
	var timed time.Duration
	for round := 0; timed < replayFloor; round++ {
		if s.sessions {
			k := round % len(names)
			reg.Unregister(names[k])
			reg.Register(names[k], props[k])
			reg.SetActive(names[k], true)
		}
		start = time.Now()
		for _, n := range names {
			matched += len(reg.ConflictingWith(n, true))
		}
		timed += time.Since(start)
		calls += len(names)
	}
	out.queryNs = float64(timed) / float64(calls)
	out.matches = float64(matched) / float64(calls)
	return out
}

// captureCost times Manager.CaptureSince at the head version, i.e. what
// every replication batch pays before it carries a single update, at the
// workload's view count.
func captureCost(dm *directory.Manager) float64 {
	cur := dm.CurrentVersion()
	var calls int
	start := time.Now()
	for time.Since(start) < replayFloor {
		dm.CaptureSince(cur)
		calls++
	}
	return float64(time.Since(start)) / 1e3 / float64(calls)
}
