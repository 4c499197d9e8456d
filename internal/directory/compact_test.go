package directory

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// The commit path compacts the update log itself (Manager.maybeCompact).
// These tests hold it to the quality metric: every live view that has
// pulled since it last joined reads exactly the count recomputed from the
// test's own list of every commit, the log stays bounded while views keep
// pulling, and a standby that missed compactions serves the same counts
// after promotion.

// logBound is the most records the log holds once every live view pulls
// at least once per minCompactAt commits: a compaction then keeps at most
// minCompactAt records and re-arms the trigger at twice that (or at the
// view count).
func logBound(views int) int { return max(2*minCompactAt, views) }

// commitRec is the test's own record of one commit.
type commitRec struct {
	ver    vclock.Version
	writer string
	props  []int
	ops    int
}

// modelView is the test's own record of one registered view.
type modelView struct {
	props  []int
	seen   vclock.Version
	active bool
	lost   bool
	// exact: the view has pulled since it last joined (registration or
	// revival), so no record it has not seen can have been dropped.
	exact bool
}

// compactRig is one DM on a Faulty in-process network, driven by raw view
// endpoints whose every pull gathers (validity "false") — the gather is
// how a partitioned view gets evicted.
type compactRig struct {
	t       *testing.T
	f       *transport.Faulty
	dm      *Manager
	eps     map[string]transport.Endpoint
	views   map[string]*modelView
	commits []commitRec
	// compactions counts observed drops of the log's oldest record.
	compactions int
	first       vclock.Version
}

func newCompactRig(t *testing.T) *compactRig {
	t.Helper()
	f := transport.NewFaulty(transport.NewInproc(), 1)
	dm, err := New("dm", newLaneKV(), vclock.NewSim(), f, Options{
		FanOut: 1,
		Retry:  transport.RetryPolicy{Attempts: 2, Base: time.Microsecond, Sleep: func(time.Duration) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dm.Close() })
	return &compactRig{t: t, f: f, dm: dm, eps: map[string]transport.Endpoint{}, views: map[string]*modelView{}}
}

func propsOf(members []int) property.Set {
	parts := make([]string, len(members))
	for i, m := range members {
		parts[i] = fmt.Sprint(m)
	}
	return property.MustSet("F={" + strings.Join(parts, ",") + "}")
}

func (r *compactRig) call(view string, req *wire.Message) *wire.Message {
	r.t.Helper()
	ep, ok := r.eps[view]
	if !ok {
		var err error
		ep, err = r.f.Attach(view, func(req *wire.Message) *wire.Message {
			if req.Type == wire.TPull || req.Type == wire.TInvalidate {
				return &wire.Message{Type: wire.TImage} // nothing pending
			}
			return &wire.Message{Type: wire.TAck}
		})
		if err != nil {
			r.t.Fatal(err)
		}
		r.eps[view] = ep
	}
	req.From = view
	reply, err := ep.Call("dm", req)
	if err != nil {
		r.t.Fatalf("%s from %s: %v", req.Type, view, err)
	}
	if reply.Type == wire.TErr {
		r.t.Fatalf("%s from %s: %s", req.Type, view, reply.Err)
	}
	return reply
}

func (r *compactRig) register(name string, members []int) {
	r.t.Helper()
	r.call(name, &wire.Message{Type: wire.TRegister, Mode: wire.Weak, Props: propsOf(members), Trig: wire.Triggers{Validity: "false"}})
	r.views[name] = &modelView{props: members}
}

func (r *compactRig) pull(name string) {
	r.t.Helper()
	reply := r.call(name, &wire.Message{Type: wire.TPull})
	mv := r.views[name]
	mv.seen, mv.active, mv.lost, mv.exact = reply.Version, true, false, true
}

func (r *compactRig) push(name string, rng *rand.Rand, ops int) {
	r.t.Helper()
	mv := r.views[name]
	delta := image.New()
	k := mv.props[rng.Intn(len(mv.props))]
	delta.Put(image.Entry{Key: fmt.Sprintf("k%d", k), Value: []byte(fmt.Sprint(rng.Int()))})
	reply := r.call(name, &wire.Message{Type: wire.TPush, Img: delta, Ops: uint32(ops)})
	mv.lost = false // any message revives; seen stays stale
	r.commits = append(r.commits, commitRec{ver: reply.Version, writer: name, props: mv.props, ops: ops})
}

// evict cuts victim off and has puller gather from it, which evicts it.
func (r *compactRig) evict(victim, puller string) {
	r.t.Helper()
	r.f.Partition("dm", victim)
	r.pull(puller)
	r.f.Heal("dm", victim)
	if !slices.Contains(r.dm.LostViews(), victim) {
		r.t.Fatalf("%s not evicted by %s's gather", victim, puller)
	}
	mv := r.views[victim]
	mv.lost, mv.active, mv.exact = true, false, false
}

func (r *compactRig) unregister(name string) {
	r.t.Helper()
	r.call(name, &wire.Message{Type: wire.TUnregister})
	delete(r.views, name)
}

func overlap(a, b []int) bool {
	for _, x := range a {
		if slices.Contains(b, x) {
			return true
		}
	}
	return false
}

// expected recomputes UnseenCommitted from the test's commit list.
func (r *compactRig) expected(name string) int {
	mv := r.views[name]
	i := sort.Search(len(r.commits), func(i int) bool { return r.commits[i].ver > mv.seen })
	n := 0
	for _, c := range r.commits[i:] {
		if c.writer != name && overlap(c.props, mv.props) {
			n += c.ops
		}
	}
	return n
}

// check asserts the quality metric for every registered view and counts
// compactions: exact views read exactly the recomputed count, the rest
// never more (a log that lost records can only undercount).
func (r *compactRig) check(round int) {
	r.t.Helper()
	for name, mv := range r.views {
		got, want := r.dm.UnseenCommitted(name), r.expected(name)
		if mv.exact && got != want {
			r.t.Fatalf("round %d: UnseenCommitted(%s) = %d, want %d (seen v%d)", round, name, got, want, mv.seen)
		}
		if got > want {
			r.t.Fatalf("round %d: UnseenCommitted(%s) = %d overcounts %d", round, name, got, want)
		}
	}
	if log := r.dm.Store().Log(); len(log) > 0 {
		if log[0].Version > r.first && r.first > 0 {
			r.compactions++
		}
		r.first = log[0].Version
	}
}

func (r *compactRig) pick(rng *rand.Rand, ok func(*modelView) bool) string {
	var names []string
	for n, mv := range r.views {
		if ok(mv) {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	return names[rng.Intn(len(names))]
}

func randMembers(rng *rand.Rand) []int {
	var m []int
	for len(m) == 0 {
		for x := 0; x < 6; x++ {
			if rng.Intn(3) == 0 {
				m = append(m, x)
			}
		}
	}
	return m
}

// TestCompactionExactness runs seeded random register / pull / push /
// evict / revive / unregister sequences past dozens of compaction
// thresholds. Churn stretches do anything, idle views included; calm
// stretches keep every live view pulling at least every 48 commits, and
// once a compaction has run inside one the log must stay within
// logBound.
func TestCompactionExactness(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { compactionExactness(t, seed) })
	}
}

func compactionExactness(t *testing.T, seed int64) {
	r := newCompactRig(t)
	rng := rand.New(rand.NewSource(seed))
	live := func(mv *modelView) bool { return !mv.lost }
	nextName, maxViews, boundChecks := 0, 0, 0
	for round := 0; len(r.commits) < 6000; round++ {
		// Churn: 150 random steps.
		for i := 0; i < 150; i++ {
			switch op := rng.Intn(100); {
			case op < 8 && len(r.views) < 10:
				name := fmt.Sprintf("v%d", nextName)
				nextName++
				r.register(name, randMembers(rng))
				if rng.Intn(2) == 0 {
					r.pull(name) // the CM's init; otherwise seen stays 0
				}
			case op < 12:
				if v := r.pick(rng, live); v != "" && len(r.views) > 2 {
					r.unregister(v)
				}
			case op < 16:
				victim := r.pick(rng, func(mv *modelView) bool { return mv.active })
				if victim == "" {
					break
				}
				vp := r.views[victim].props
				if puller := r.pick(rng, func(mv *modelView) bool { return live(mv) && mv != r.views[victim] && overlap(mv.props, vp) }); puller != "" {
					r.evict(victim, puller)
				}
			case op < 35:
				// A lost view's pull revives it and makes it exact again.
				if v := r.pick(rng, func(*modelView) bool { return true }); v != "" {
					r.pull(v)
				}
			default:
				// A lost view's push revives it with a stale seen.
				if v := r.pick(rng, func(*modelView) bool { return true }); v != "" {
					r.push(v, rng, 1+rng.Intn(3))
				}
			}
			maxViews = max(maxViews, len(r.views))
			r.check(round)
		}
		// Calm: only live views, each pulling at least every 48 commits.
		calmStart := r.dm.CurrentVersion()
		for name, mv := range r.views {
			if !mv.lost {
				r.pull(name)
			}
		}
		for i := 0; i < 600; i++ {
			writer := r.pick(rng, live)
			if writer == "" {
				break
			}
			for name, mv := range r.views {
				if !mv.lost && r.dm.CurrentVersion()-mv.seen >= 48 {
					r.pull(name)
				}
			}
			if rng.Intn(4) == 0 {
				r.pull(writer)
			} else {
				r.push(writer, rng, 1+rng.Intn(3))
			}
			r.check(round)
			if log := r.dm.Store().Log(); len(log) == 0 || log[0].Version > calmStart {
				boundChecks++
				if len(log) > logBound(maxViews) {
					t.Fatalf("round %d: log holds %d records with every live view pulling, bound %d", round, len(log), logBound(maxViews))
				}
			}
		}
		if err := r.dm.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if r.compactions < 20 || boundChecks < 1000 {
		t.Fatalf("weak run: %d compactions, %d bound checks", r.compactions, boundChecks)
	}
}

// TestCompactionEdgeCases pins who holds the floor.
func TestCompactionEdgeCases(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(1))
	busy := func(r *compactRig, writer string) {
		for i := 0; i < n; i++ {
			r.push(writer, rng, 1)
			if i%16 == 0 {
				r.pull(writer)
			}
		}
	}
	t.Run("IdleLiveViewPins", func(t *testing.T) {
		r := newCompactRig(t)
		r.register("a", []int{1})
		r.register("idle", []int{1})
		r.pull("a")
		r.pull("idle")
		busy(r, "a")
		if log := r.dm.Store().Log(); len(log) != n || log[0].Version != 1 {
			t.Fatalf("idle view at v%d: log holds %d records from v%d, want all %d", r.views["idle"].seen, len(log), log[0].Version, n)
		}
		r.check(0)
		if got := r.dm.UnseenCommitted("idle"); got != n {
			t.Fatalf("UnseenCommitted(idle) = %d, want %d", got, n)
		}
	})
	t.Run("LostViewDoesNotPin", func(t *testing.T) {
		r := newCompactRig(t)
		r.register("a", []int{1})
		r.register("gone", []int{1})
		r.pull("gone")
		r.evict("gone", "a")
		busy(r, "a")
		if got := r.dm.Store().LogLen(); got > logBound(2) {
			t.Fatalf("lost view pinned the log: %d records", got)
		}
		r.check(0)
	})
	t.Run("FreshViewPinsUntilFirstPull", func(t *testing.T) {
		r := newCompactRig(t)
		r.register("a", []int{1})
		busy(r, "a")
		joined := r.dm.CurrentVersion()
		r.register("fresh", []int{1}) // seen 0 until it pulls
		busy(r, "a")
		log := r.dm.Store().Log()
		if len(log) < n || log[0].Version > joined+1 {
			t.Fatalf("fresh view did not pin: %d records from v%d, registered at v%d", len(log), log[0].Version, joined)
		}
		// Once it has pulled, the next compaction — due within twice the
		// records the pin kept — brings the log back within the bound.
		r.pull("fresh")
		held := r.dm.Store().LogLen()
		for i := 0; i < 2*held+1; i++ {
			r.push("a", rng, 1)
			if i%16 == 0 {
				r.pull("a")
				r.pull("fresh")
			}
		}
		if got := r.dm.Store().LogLen(); got > logBound(2) {
			t.Fatalf("log still holds %d records %d commits after the fresh view pulled", got, 2*held+1)
		}
		r.check(0)
	})
}

// TestCompactionStandbyGap stops the standby, commits past several
// compactions on the primary, and resumes it: the primary's log stays
// bounded while the standby is away, the standby receives a log with a
// gap that lies entirely below every live view's seen, its own log is
// bounded after catch-up, and after promotion every live view reads the
// same UnseenCommitted the primary answered before the failover.
func TestCompactionStandbyGap(t *testing.T) {
	r := newStreamRig(t, 1, ReplConfig{})
	rng := rand.New(rand.NewSource(7))
	members := [][]int{{0, 1}, {1, 2}, {2, 3}, {3}}
	var names []string
	for i, m := range members {
		name := fmt.Sprintf("v%d", i)
		names = append(names, name)
		r.mustSend(name, &wire.Message{Type: wire.TRegister, Props: propsOf(m), Mode: wire.Weak})
		r.mustSend(name, &wire.Message{Type: wire.TInit})
	}
	seen := map[string]vclock.Version{}
	round := func(commits, stalePullers int) {
		for i := 0; i < commits; i++ {
			w := rng.Intn(len(names))
			delta := image.New()
			k := members[w][rng.Intn(len(members[w]))]
			delta.Put(image.Entry{Key: fmt.Sprintf("k%d", k), Value: []byte(fmt.Sprint(i))})
			r.mustSend(names[w], &wire.Message{Type: wire.TPush, Img: delta, Ops: 1})
			for j, name := range names[stalePullers:] {
				if (i+j)%16 == 0 {
					seen[name] = r.mustSend(name, &wire.Message{Type: wire.TPull}).Version
				}
			}
			if got := r.prim.Store().LogLen(); got > logBound(len(names)) {
				t.Fatalf("primary log grew to %d records", got)
			}
		}
	}
	round(100, 0)
	r.settle(names[0])

	// Stop the standby: every batch is lost until it resumes.
	r.link.mu.Lock()
	r.link.dropBatch = 1 << 30
	r.link.mu.Unlock()
	acked := r.sb.CurrentVersion()
	primCompactions := 0
	first := func(m *Manager) vclock.Version {
		if log := m.Store().Log(); len(log) > 0 {
			return log[0].Version
		}
		return m.CurrentVersion() + 1
	}
	for i := 0; i < 8; i++ {
		before := first(r.prim)
		round(50, 0)
		if first(r.prim) > before {
			primCompactions++
		}
	}
	if !r.repl.Degraded() {
		t.Fatal("standby was never marked down")
	}
	if primCompactions < 2 || first(r.prim) <= acked+1 {
		t.Fatalf("primary compacted %d times, log from v%d, standby at v%d: no gap to ship", primCompactions, first(r.prim), acked)
	}
	// Two views go quiet, so the counts compared below are not all zero.
	round(40, 2)

	r.link.mu.Lock()
	r.link.dropBatch = 0
	r.link.mu.Unlock()
	r.settle(names[0])

	if got := r.sb.Store().LogLen(); got > logBound(len(names)) {
		t.Fatalf("standby log holds %d records after catch-up", got)
	}
	// The records the standby never received all lie at or below every
	// live view's seen, where UnseenOps never reads.
	floor := r.sb.CurrentVersion()
	for _, name := range names {
		floor = min(floor, r.sb.Seen(name))
	}
	have := map[vclock.Version]bool{}
	for _, rec := range r.sb.Store().Log() {
		have[rec.Version] = true
	}
	gap := 0
	for v := vclock.Version(1); v <= r.sb.CurrentVersion(); v++ {
		if !have[v] {
			gap++
			if v > floor {
				t.Fatalf("standby lacks record v%d above the live floor v%d", v, floor)
			}
		}
	}
	if gap == 0 {
		t.Fatal("standby log has no gap")
	}

	want := map[string]int{}
	nonzero := 0
	for _, name := range names {
		want[name] = r.prim.UnseenCommitted(name)
		if want[name] > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("every view is fully caught up; the comparison below would be vacuous")
	}
	r.sb.PromoteSelf()
	if r.sb.Standby() {
		t.Fatal("standby not promoted")
	}
	for _, name := range names {
		if got := r.sb.UnseenCommitted(name); got != want[name] {
			t.Fatalf("promoted standby: UnseenCommitted(%s) = %d, primary answered %d (seen v%d)", name, got, want[name], seen[name])
		}
	}
	if err := r.prim.CheckInvariants(); err != nil {
		t.Fatalf("primary: %v", err)
	}
	if err := r.sb.CheckInvariants(); err != nil {
		t.Fatalf("standby: %v", err)
	}
}

// TestStandbyCompactsPastLostView: an evicted view's frozen seen pins
// neither log. The standby learns the eviction from the replication
// stream (a view's phase rides its touch), so its compaction floor skips
// the lost view the way the primary's does, and a promoted standby would
// not invalidate it again.
func TestStandbyCompactsPastLostView(t *testing.T) {
	r := newStreamRig(t, 1, ReplConfig{})
	props := property.MustSet("F={0}")
	r.mustSend("a", &wire.Message{Type: wire.TRegister, Props: props, Mode: wire.Strong})
	r.mustSend("b", &wire.Message{Type: wire.TRegister, Props: props, Mode: wire.Weak})
	r.mustSend("a", &wire.Message{Type: wire.TInit})
	r.mustSend("b", &wire.Message{Type: wire.TInit})
	r.eps["b"].Close()
	r.mustSend("a", &wire.Message{Type: wire.TPull}) // invalidating b evicts it
	for i := 0; i < 400; i++ {
		delta := image.New()
		delta.Put(image.Entry{Key: "k0", Value: []byte(fmt.Sprint(i))})
		r.mustSend("a", &wire.Message{Type: wire.TPush, Img: delta, Ops: 1})
		r.mustSend("a", &wire.Message{Type: wire.TPull})
	}
	r.settle("a")
	if got := r.prim.LostViews(); !slices.Equal(got, []string{"b"}) {
		t.Fatalf("primary lost views %v, want [b]", got)
	}
	if got, want := r.sb.LostViews(), r.prim.LostViews(); !slices.Equal(got, want) {
		t.Fatalf("standby lost views %v, primary's %v", got, want)
	}
	if got := r.sb.Store().LogLen(); got > logBound(2) {
		t.Fatalf("standby log holds %d records (primary %d), bound %d", got, r.prim.Store().LogLen(), logBound(2))
	}
}
