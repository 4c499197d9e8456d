package cache_test

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"flecc"
	"flecc/internal/airline"
	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// The safety net under view-side change tracking: a manager whose codec
// says what changed (image.ChangeExtractor, image.KeyedExtractor) and a
// manager whose codec hides both must be indistinguishable from outside —
// same frames on the wire, same base snapshots, same primary.

// eqStore is a replica the schedules can mutate by key number.
type eqStore interface {
	image.Codec
	image.KeyedExtractor
	image.ChangeExtractor
	put(n, val int)
	del(n int)
}

// eqWorld is one application the schedules run over.
type eqWorld struct {
	name  string
	store func() eqStore
	props func(lo, hi int) property.Set
}

// eqAirline: the case-study codec. It filters by the Flights property, so
// SetProps changes what the view extracts.
type eqAirline struct{ *airline.ReservationSystem }

func (a eqAirline) put(n, val int) {
	a.AddFlight(airline.Flight{Number: n, Origin: "NYC", Dest: "SFO", Capacity: 1 << 20, Reserved: val})
}

// del removes a flight the way a view-local deletion would: the system
// has no delete operation of its own, only tombstones through Merge.
func (a eqAirline) del(n int) {
	img := image.New()
	img.Delete(airline.FlightKey(n), 0, "")
	if err := a.Merge(img, property.Set{}); err != nil {
		panic(err)
	}
}

// eqMap: the public map codec. It ignores properties.
type eqMap struct{ *flecc.MapCodec }

func (m eqMap) put(n, val int) { m.SetString(fmt.Sprintf("k/%02d", n), strconv.Itoa(val)) }
func (m eqMap) del(n int)      { m.Delete(fmt.Sprintf("k/%02d", n)) }

var eqWorlds = []eqWorld{
	{
		name:  "airline",
		store: func() eqStore { return eqAirline{airline.NewReservationSystem()} },
		props: func(lo, hi int) property.Set {
			return property.NewSet(property.New(airline.PropFlights, property.DiscreteRange(lo, hi)))
		},
	},
	{
		name:  "mapcodec",
		store: func() eqStore { return eqMap{flecc.NewMapCodec()} },
		props: func(lo, hi int) property.Set {
			return property.NewSet(property.New("P", property.DiscreteRange(lo, hi)))
		},
	},
}

// plainCodec hides every optional capability of the codec behind it.
type plainCodec struct{ image.Codec }

const (
	eqKeys  = 8 // key numbers 0..eqKeys-1
	eqViews = 3
	eqSteps = 48
)

// eqRanges are the key ranges SetProps moves a view between: everything,
// and two overlapping halves.
var eqRanges = [][2]int{{0, eqKeys - 1}, {0, 4}, {3, eqKeys - 1}}

// eqResolver rejects roughly half of the conflicting pushes (the primary's
// value wins and rides back on the ack). A deletion always goes through,
// and so does a push of a key the primary does not hold (Ours carries no
// value) — see PROTOCOL.md "View-side change tracking".
func eqResolver(c image.Conflict) (image.Entry, error) {
	if c.Ours.Value == nil || c.Theirs.Deleted || len(c.Theirs.Value) == 0 {
		return c.Theirs, nil
	}
	if c.Theirs.Value[len(c.Theirs.Value)-1]%2 == 0 {
		return c.Ours, nil
	}
	return c.Theirs, nil
}

// eqResult is everything one run of a schedule leaves behind.
type eqResult struct {
	frames  []string
	bases   []string
	primary string
}

func dumpImage(img *image.Image) string {
	if img == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "v%d\n", img.Version)
	for _, e := range img.Entries {
		k := e.Key
		fmt.Fprintf(&b, " %s=%q v%d w=%q del=%t\n", k, e.Value, e.Version, e.Writer, e.Deleted)
	}
	return b.String()
}

// runEqSchedule plays the schedule derived from seed against a fresh
// deployment whose view codecs are tracked or capability-hidden.
func runEqSchedule(t *testing.T, w eqWorld, seed int64, tracked bool) eqResult {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	clock := vclock.NewSim()
	inner := transport.NewInproc()
	faulty := transport.NewFaulty(inner, seed)
	var res eqResult
	note := func(format string, args ...any) {
		res.frames = append(res.frames, fmt.Sprintf(format, args...))
	}
	inner.AddObserver(transport.ObserverFunc(func(from, to string, m *wire.Message) {
		note("%s>%s %s %x", from, to, m.Type, wire.Encode(m))
	}))

	prim := w.store()
	for n := 0; n < eqKeys; n++ {
		prim.put(n, n)
	}
	// FanOut 1: rounds contact their targets in one fixed order.
	dm, err := directory.New("dm", prim, clock, faulty, directory.Options{Resolver: eqResolver, FanOut: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dm.Close()

	stores := make([]eqStore, eqViews)
	cms := make([]*cache.Manager, eqViews)
	ranges := make([][2]int, eqViews)
	for i := range cms {
		stores[i] = w.store()
		var codec image.Codec = stores[i]
		if !tracked {
			codec = plainCodec{stores[i]}
		}
		cfg := cache.Config{
			Name: fmt.Sprintf("v%d", i), Directory: "dm", Net: faulty, View: codec,
			Props: w.props(eqRanges[0][0], eqRanges[0][1]), Clock: clock, ManualFlush: true,
		}
		ranges[i] = eqRanges[0]
		switch i {
		case 0: // strong: its pulls invalidate the others
			cfg.Mode = wire.Strong
		case 1: // weak, never satisfied with the primary: its pulls fetch from the others
			cfg.ValidityTrigger = "false"
		}
		if i != 2 { // v2 surfaces transport errors instead of redialing
			cfg.Reconnect = &cache.ReconnectPolicy{
				Attempts: 4, Base: time.Microsecond, Max: time.Microsecond, Sleep: func(time.Duration) {},
			}
		}
		if cms[i], err = cache.New(cfg); err != nil {
			t.Fatal(err)
		}
		if err := cms[i].InitImage(); err != nil {
			t.Fatal(err)
		}
	}

	// try runs one manager operation; its error is part of the observable
	// behaviour, so it goes into the log the two runs are compared on.
	try := func(what string, i int, err error) {
		if err != nil {
			note("%s v%d: %v", what, i, err)
		}
	}
	// checkInvariant: every key whose view value differs from base is
	// among the keys the codec reports changed after syncedRev.
	checkInvariant := func(step int) {
		for i, cm := range cms {
			since := cm.SyncedRev()
			if since == 0 {
				continue // every key is a candidate
			}
			props := w.props(ranges[i][0], ranges[i][1])
			view, err := stores[i].Extract(props)
			if err != nil {
				t.Fatal(err)
			}
			changed, _, err := stores[i].ExtractChanged(props, since)
			if err != nil {
				t.Fatal(err)
			}
			base := cm.Base()
			keys := map[string]bool{}
			for _, e := range view.Entries {
				keys[e.Key] = true
			}
			for _, e := range base.Entries {
				keys[e.Key] = true
			}
			for k := range keys {
				ve, inView := view.Get(k)
				be, inBase := base.Get(k)
				inBase = inBase && !be.Deleted
				if inView == inBase && (!inView || ve.Equal(be)) {
					continue
				}
				reported := false
				if changed != nil {
					_, reported = changed.Get(k)
				}
				if !reported {
					t.Fatalf("%s seed %d step %d: v%d key %s differs from base (view %q/%t, base %q/%t) but did not change after revision %d",
						w.name, seed, step, i, k, ve.Value, inView, be.Value, inBase, since)
				}
			}
		}
	}

	val := 100
	for step := 0; step < eqSteps; step++ {
		i := rng.Intn(eqViews)
		cm := cms[i]
		switch op := rng.Intn(18); {
		case op < 5: // a use window with one to three local changes
			if !cm.Valid() {
				try("pull", i, cm.PullImage())
			}
			if err := cm.StartUse(); err != nil {
				try("start-use", i, err)
				break
			}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				key := ranges[i][0] + rng.Intn(ranges[i][1]-ranges[i][0]+1)
				if rng.Intn(4) == 0 {
					stores[i].del(key)
				} else {
					val++
					stores[i].put(key, val) // a write, or the re-add of a deleted key
				}
			}
			cm.EndUse()
		case op < 8:
			try("pull", i, cm.PullImage())
		case op < 10:
			try("push", i, cm.PushImage())
		case op < 12:
			cm.PushImageAsync()
		case op < 14:
			try("flush", i, cm.Flush())
		case op == 14:
			mode := wire.Strong
			if cm.Mode() == wire.Strong {
				mode = wire.Weak
			}
			try("set-mode", i, cm.SetMode(mode))
		case op == 15:
			r := eqRanges[rng.Intn(len(eqRanges))]
			if err := cm.SetProps(w.props(r[0], r[1])); err != nil {
				try("set-props", i, err)
			} else {
				ranges[i] = r
			}
		default: // the next call on one directed edge dies on the wire
			if rng.Intn(2) == 0 {
				faulty.DisconnectNext(cm.Name(), "dm", 1) // a failed round / session reset
			} else {
				faulty.DisconnectNext("dm", cm.Name(), 1) // a failed fetch or invalidate: the DM evicts the view
			}
		}
		if tracked {
			checkInvariant(step)
		}
	}

	// Quiesce: drain every session, publish, refresh.
	faulty.HealAll()
	for i, cm := range cms {
		faulty.DisconnectNext(cm.Name(), "dm", 0)
		faulty.DisconnectNext("dm", cm.Name(), 0)
		try("flush", i, cm.Flush())
		try("push", i, cm.PushImage())
	}
	for i, cm := range cms {
		try("pull", i, cm.PullImage())
		res.bases = append(res.bases, dumpImage(cm.Base()))
	}
	if tracked {
		checkInvariant(eqSteps)
	}
	all, err := dm.ExtractPrimary(property.Set{})
	if err != nil {
		t.Fatal(err)
	}
	res.primary = dumpImage(all)
	if os.Getenv("FLECC_TEST_INVARIANTS") == "1" {
		if err := dm.CheckInvariants(); err != nil {
			t.Fatalf("%s seed %d tracked=%t: directory invariants: %v", w.name, seed, tracked, err)
		}
	}
	return res
}

func TestTrackedEquivalence(t *testing.T) {
	const seeds = 120 // per world: 240 schedules, each run tracked and hidden
	for _, w := range eqWorlds {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for seed := int64(1); seed <= seeds; seed++ {
				got := runEqSchedule(t, w, seed, true)
				want := runEqSchedule(t, w, seed, false)
				for i := 0; i < len(got.frames) || i < len(want.frames); i++ {
					var g, h string
					if i < len(got.frames) {
						g = got.frames[i]
					}
					if i < len(want.frames) {
						h = want.frames[i]
					}
					if g != h {
						t.Fatalf("seed %d: frame %d differs\n tracked: %s\n hidden:  %s", seed, i, g, h)
					}
				}
				for i := range want.bases {
					if got.bases[i] != want.bases[i] {
						t.Fatalf("seed %d: v%d base differs\n tracked:\n%s hidden:\n%s", seed, i, got.bases[i], want.bases[i])
					}
				}
				if got.primary != want.primary {
					t.Fatalf("seed %d: primary differs\n tracked:\n%s hidden:\n%s", seed, got.primary, want.primary)
				}
			}
		})
	}
}

// A DM-initiated fetch can reach a view while its push is on the wire
// (another view's pull gathers from it). The fetch surrenders and folds a
// newer snapshot than the one the push carries; when the ack then folds
// the older snapshot back over it, the watermark must fall back with it,
// or the write made in between is never looked at again. Played once
// tracked and once hidden: same frames, and the late write reaches the
// primary either way.
func TestTrackedEquivalenceFetchDuringPush(t *testing.T) {
	run := func(tracked bool) (frames []string, primary string) {
		clock := vclock.NewSim()
		net := transport.NewInproc()
		prim := flecc.NewMapCodec()
		dm, err := directory.New("dm", prim, clock, net, directory.Options{FanOut: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer dm.Close()
		props := property.MustSet("P={x}")
		stores := []*flecc.MapCodec{flecc.NewMapCodec(), flecc.NewMapCodec()}
		cms := make([]*cache.Manager, 2)
		for i, s := range stores {
			var codec image.Codec = s
			if !tracked {
				codec = plainCodec{s}
			}
			cfg := cache.Config{Name: fmt.Sprintf("v%d", i), Directory: "dm", Net: net, View: codec, Props: props, Clock: clock}
			if i == 1 {
				cfg.ValidityTrigger = "false" // v1's pulls fetch from v0
			}
			if cms[i], err = cache.New(cfg); err != nil {
				t.Fatal(err)
			}
			if err := cms[i].InitImage(); err != nil {
				t.Fatal(err)
			}
		}
		// A first round trip, so v0's watermark is past zero.
		stores[0].SetString("k", "v1")
		if err := cms[0].PushImage(); err != nil {
			t.Fatal(err)
		}

		interleaved := false
		net.AddObserver(transport.ObserverFunc(func(from, to string, m *wire.Message) {
			frames = append(frames, fmt.Sprintf("%s>%s %x", from, to, wire.Encode(m)))
			if m.Type == wire.TPush && from == "v0" && !interleaved {
				interleaved = true
				stores[0].SetString("k", "late") // written while the push is on the wire
				if err := cms[1].PullImage(); err != nil {
					t.Error(err)
				}
			}
		}))
		stores[0].SetString("k", "early")
		if err := cms[0].PushImage(); err != nil {
			t.Fatal(err)
		}
		if !interleaved {
			t.Fatal("the fetch never interleaved with the push")
		}
		// The push carried "early" over the fetched "late"; v0 still holds
		// "late" and must publish it again.
		if err := cms[0].PushImage(); err != nil {
			t.Fatal(err)
		}
		return frames, prim.GetString("k")
	}
	tf, tp := run(true)
	hf, hp := run(false)
	if tp != "late" || hp != "late" {
		t.Fatalf("primary k = %q tracked, %q hidden; want the last write %q", tp, hp, "late")
	}
	if strings.Join(tf, "\n") != strings.Join(hf, "\n") {
		t.Fatalf("frames differ\n tracked:\n%s\n hidden:\n%s", strings.Join(tf, "\n"), strings.Join(hf, "\n"))
	}
}
