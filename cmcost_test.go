package flecc_test

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

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

// cmRig is one cache manager over an n-flight airline view, talking to a
// scripted directory manager on an in-process network: the cache manager's
// own costs with nothing of the real directory in them. The cost pins and
// the BenchmarkCM* benchmarks share it.
type cmRig struct {
	cm  *cache.Manager
	rs  *airline.ReservationSystem
	dm  transport.Endpoint
	ver vclock.Version
	// pullReply, when set, is what the scripted directory answers the
	// view's next TPull with (once).
	pullReply *image.Image
	// lastFetch is the view's latest reply to a directory-initiated fetch.
	lastFetch *wire.Message
}

// hiddenCodec exposes a codec's extract/merge pair and none of its
// optional capabilities.
type hiddenCodec struct{ image.Codec }

// firstFlight is the lowest flight number a cmRig view holds.
const firstFlight = 100

// newCMRig deploys the view behind wrap(its codec), initializes it with n
// flights and runs one empty push so change tracking has a watermark.
func newCMRig(tb testing.TB, n int, wrap func(*airline.ReservationSystem) image.Codec) *cmRig {
	tb.Helper()
	r := &cmRig{rs: airline.NewReservationSystem(), ver: 1}
	net := transport.NewInproc()
	props := property.NewSet(property.New(airline.PropFlights, property.DiscreteRange(firstFlight, firstFlight+n-1)))
	seed := airline.NewReservationSystem()
	airline.SeedFlights(seed, firstFlight, n, 1<<30)
	var err error
	r.dm, err = net.Attach("dm", func(req *wire.Message) *wire.Message {
		switch req.Type {
		case wire.TInit:
			img, err := seed.Extract(props)
			if err != nil {
				tb.Error(err)
			}
			return &wire.Message{Type: wire.TImage, Img: img, Version: r.ver}
		case wire.TPull:
			img := r.pullReply
			r.pullReply = nil
			return &wire.Message{Type: wire.TImage, Img: img, Version: r.ver}
		case wire.TPush:
			r.ver++
			return &wire.Message{Type: wire.TAck, Version: r.ver}
		default:
			return &wire.Message{Type: wire.TAck}
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
	r.cm, err = cache.New(cache.Config{
		Name: "v1", Directory: "dm", Net: net, View: wrap(r.rs), Props: props, Clock: vclock.NewSim(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := r.cm.InitImage(); err != nil {
		tb.Fatal(err)
	}
	if err := r.cm.PushImage(); err != nil {
		tb.Fatal(err)
	}
	return r
}

// fetch plays a directory-initiated fetch against the view.
func (r *cmRig) fetch(tb testing.TB) {
	reply, err := r.dm.Call("v1", &wire.Message{Type: wire.TPull, View: "v1"})
	if err != nil {
		tb.Fatal(err)
	}
	r.lastFetch = reply
}

// pullOne makes the view pull a reply carrying one changed flight.
func (r *cmRig) pullOne(tb testing.TB, reserved int) {
	img := image.New()
	r.ver++
	f := airline.Flight{Origin: "NYC", Dest: "BOS", Capacity: 1 << 30, Reserved: reserved}
	img.Put(image.Entry{Key: airline.FlightKey(firstFlight), Value: f.Encode(), Version: r.ver})
	r.pullReply = img
	if err := r.cm.PullImage(); err != nil {
		tb.Fatal(err)
	}
}

// countingCodec forwards every capability of the airline codec and counts
// the entries the view encodes for the cache manager.
type countingCodec struct {
	rs      *airline.ReservationSystem
	encoded int
}

func (c *countingCodec) count(img *image.Image) *image.Image {
	if img != nil {
		for _, e := range img.Entries {
			if !e.Deleted {
				c.encoded++
			}
		}
	}
	return img
}

func (c *countingCodec) Extract(props property.Set) (*image.Image, error) {
	img, err := c.rs.Extract(props)
	return c.count(img), err
}

func (c *countingCodec) ExtractKeys(props property.Set, keys []string) (*image.Image, error) {
	img, err := c.rs.ExtractKeys(props, keys)
	return c.count(img), err
}

func (c *countingCodec) ExtractChanged(props property.Set, since uint64) (*image.Image, uint64, error) {
	img, rev, err := c.rs.ExtractChanged(props, since)
	return c.count(img), rev, err
}

func (c *countingCodec) Merge(img *image.Image, props property.Set) error {
	return c.rs.Merge(img, props)
}

func newCountingRig(t *testing.T, n int) (*cmRig, *countingCodec) {
	var c *countingCodec
	r := newCMRig(t, n, func(rs *airline.ReservationSystem) image.Codec {
		c = &countingCodec{rs: rs}
		return c
	})
	c.encoded = 0
	return r, c
}

// A clean view answers a fetch without encoding anything and without an
// image on the reply.
func TestCMCostCleanFetch(t *testing.T) {
	r, c := newCountingRig(t, 64)
	r.fetch(t)
	if c.encoded != 0 {
		t.Errorf("clean fetch encoded %d entries, want 0", c.encoded)
	}
	if r.lastFetch.Type != wire.TImage || r.lastFetch.Img != nil {
		t.Errorf("clean fetch replied %s with image %v, want an image-less %s", r.lastFetch.Type, r.lastFetch.Img, wire.TImage)
	}
	// Measured 2 (the request and the directory's decoded reply, which
	// the rig keeps), 3 under -race, against 76 for the same view behind
	// hiddenCodec: the clean path builds no image, clones no property set
	// and encodes no flight, answers with one shared reply, and the view's
	// decoded request goes back to the wire pool. 4 while each clean reply
	// was built afresh and each decoded request left to the collector.
	if n := testing.AllocsPerRun(100, func() { r.fetch(t) }); n > cleanFetchAllocs {
		t.Errorf("clean fetch: %v allocs, want <= %d", n, cleanFetchAllocs)
	}
	// The view is still tracked correctly afterwards.
	if err := r.rs.ConfirmTickets(1, firstFlight+3); err != nil {
		t.Fatal(err)
	}
	r.fetch(t)
	if r.lastFetch.Img == nil || r.lastFetch.Img.Len() != 1 || c.encoded != 1 {
		t.Fatalf("fetch after one write: image %v, %d entries encoded; want 1 and 1", r.lastFetch.Img, c.encoded)
	}
}

// A push after one write to a 64-flight view encodes that one flight.
func TestCMCostPushOneOf64(t *testing.T) {
	r, c := newCountingRig(t, 64)
	if err := r.rs.ConfirmTickets(1, firstFlight+17); err != nil {
		t.Fatal(err)
	}
	if err := r.cm.PushImage(); err != nil {
		t.Fatal(err)
	}
	if c.encoded != 1 {
		t.Errorf("push after one write to a 64-entry view encoded %d entries, want 1", c.encoded)
	}
	if got, _ := r.cm.Base().Get(airline.FlightKey(firstFlight + 17)); !strings.Contains(string(got.Value), "|1|") {
		t.Errorf("base did not adopt the pushed flight: %q", got.Value)
	}
	// Measured 9, 10 under -race, against 79 for the same view behind
	// hiddenCodec; the ceiling leaves no room for work per held flight.
	// 10 while the view left its decoded ack to the collector. What is
	// left: the round, the view's answer (entry slice, encoded value,
	// image), the delta's entry slice, the rig's ack, and the decoded
	// request (message and image, entry slice, value). The flight's key
	// is rendered once per record, not per push, the delta's image lives
	// in the round, and the decoded ack goes back to the wire pool once
	// the view has folded it.
	n := testing.AllocsPerRun(100, func() {
		r.rs.ConfirmTickets(1, firstFlight+17)
		if err := r.cm.PushImage(); err != nil {
			t.Fatal(err)
		}
	})
	if n > pushOneOf64Allocs {
		t.Errorf("1-of-64 push: %v allocs, want <= %d", n, pushOneOf64Allocs)
	}
}

// reserveLoopFlights is how many flights the reserve-loop view serves:
// one conflict group of the disjoint_reserve benchmark.
const reserveLoopFlights = 8

// newReserveLoop deploys the real directory over an airline database and
// one weak travel agent on reserveLoopFlights flights, on an in-process
// network: the reserve+push op of the disjoint_reserve benchmark without
// its TCP hop.
func newReserveLoop(tb testing.TB) *airline.TravelAgent {
	tb.Helper()
	db := airline.NewReservationSystem()
	airline.SeedFlights(db, firstFlight, reserveLoopFlights, 1<<30)
	net := transport.NewInproc()
	clock := vclock.NewSim()
	dm, err := directory.New("dm", db, clock, net, directory.Options{Resolver: airline.SeatResolver})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { dm.Close() })
	agent, err := airline.NewTravelAgent(airline.AgentConfig{
		Name: "agent", Directory: "dm", Net: net, Clock: clock, Mode: wire.Weak,
		FlightsFrom: firstFlight, FlightsTo: firstFlight + reserveLoopFlights - 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return agent
}

// TestReserveLoopAllocs pins the allocations of one reserve+push op (a
// pull, answered locally under the view's exclusive grant, a one-seat
// reservation, a one-entry push and its commit)
// through the real cache manager, directory and airline codec. Every
// layer an image crosses is in it, so a defensive copy or a map-backed
// image coming back shows here before it shows in the benchmark.
func TestReserveLoopAllocs(t *testing.T) {
	agent := newReserveLoop(t)
	i := 0
	op := func() {
		if err := agent.ReserveTickets(1, firstFlight+i%reserveLoopFlights); err != nil {
			t.Fatal(err)
		}
		if err := agent.CM.PushImage(); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range 2 * reserveLoopFlights {
		op() // every flight committed once: the steady state
	}
	// Measured 8, 9 under -race (12 while the pull went to the directory:
	// the view is alone on its flights, so it pulls locally under its
	// exclusive grant, and the race detector's dropped pool puts of the
	// pull's four messages are gone with them): 13 while the pull request, the
	// directory's pull reply and push ack, and their decoded copies were
	// left to the collector; 16 while the store's commit copied the
	// delta's entries and wrapped them in an image for the merge and the
	// decoded pull request was left to the collector, 13 while calls
	// crossed by pointer (a stamped copy per call instead of 6 decoded
	// objects per op, and the empty pull reply carried an image), 15
	// while the directory's merge decoded each pushed flight's route into
	// fresh strings, 18 while the view rendered each flight's key per
	// extract and the push delta's image was allocated apart from its
	// round, 27 while each pull brought back the flight the previous push
	// committed (48 with map-backed images). What is left: the decoded
	// push (message and image, entry slice, value), the round, the view's
	// answer (entry slice, value, image) and the delta's entry slice.
	// Every image-less message, sent or decoded, goes back to the wire
	// pool from whoever holds it last. A pull that reaches the directory
	// is pinned by TestCMCostGatherRound, whose views share their flights.
	if n := testing.AllocsPerRun(200, op); n > reserveLoopAllocs {
		t.Errorf("reserve+push: %v allocs/op, want <= %d", n, reserveLoopAllocs)
	}
	if f, _ := agent.ARS.Flight(firstFlight); f.Reserved == 0 {
		t.Fatalf("no reservation reached the view: %+v", f)
	}
}

// gatherSharers is how many weak views share the gather round's flights.
const gatherSharers = 4

// TestCMCostGatherRound pins what one leg of a weak gathering pull costs:
// the shared_gather benchmark's op on an in-process network, with
// gatherSharers views on one conflict group instead of 16. The sharers
// take turns; each reserves (a pull that gathers from the other
// gatherSharers-1, all clean since their own pushes) and pushes. Every
// leg is a collect request to a view that has nothing pending and merged
// the others' flights on its own last pull.
func TestCMCostGatherRound(t *testing.T) {
	db := airline.NewReservationSystem()
	airline.SeedFlights(db, firstFlight, reserveLoopFlights, 1<<30)
	net := transport.NewInproc()
	clock := vclock.NewSim()
	dm, err := directory.New("dm", db, clock, net, directory.Options{Resolver: airline.SeatResolver, FanOut: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dm.Close() })
	agents := make([]*airline.TravelAgent, gatherSharers)
	for i := range agents {
		agents[i], err = airline.NewTravelAgent(airline.AgentConfig{
			Name: fmt.Sprintf("agent-%d", i), Directory: "dm", Net: net, Clock: clock, Mode: wire.Weak,
			FlightsFrom: firstFlight, FlightsTo: firstFlight + reserveLoopFlights - 1, ValidityTrigger: "false",
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	op := func() {
		a := agents[i%gatherSharers]
		if err := a.ReserveTickets(1, firstFlight+i%reserveLoopFlights); err != nil {
			t.Fatal(err)
		}
		if err := a.CM.PushImage(); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range 4 * gatherSharers {
		op() // every sharer has pushed and merged the others' flights
	}
	const legs = gatherSharers - 1
	// Measured 23 per op, 7.67 per leg, 31 and 10.33 under -race; 30
	// while each leg's decoded reply, the pull request and the directory's
	// replies were left to the collector; 46 while each clean leg built
	// its own reply, each decoded request was left to the collector,
	// forEachTarget allocated its round's state and the store's commit
	// copied the delta; 35 while calls crossed by pointer. A clean leg
	// allocates nothing of its own: its request is built once per view,
	// the view's decoded request goes back to the wire pool, its reply is
	// shared, the directory hands the reply's decoded copy back once read,
	// and the round is pooled. What the pin reads is the op's pull,
	// reservation and push spread over its legs, so one allocation per leg
	// coming back reads 8.67.
	const ceiling = float64(gatherRoundAllocs) / legs
	if n := testing.AllocsPerRun(gatherRoundRuns, op) / legs; n > ceiling {
		t.Errorf("gather leg: %.2f allocs, want <= %.2f", n, ceiling)
	}
	var reserved int
	for _, a := range agents {
		f, _ := a.ARS.Flight(firstFlight)
		reserved = max(reserved, f.Reserved)
	}
	if reserved == 0 {
		t.Fatal("no reservation reached any view")
	}
}

// Applying a pull reply to a clean view reads nothing from the view, and
// the merged entries are not changes: the watermark moves past the merge.
func TestCMCostPullApply(t *testing.T) {
	r, c := newCountingRig(t, 64)
	r.pullOne(t, 7)
	// A clean view cannot hold a pending change, so it is not read back.
	if c.encoded != 0 {
		t.Errorf("applying a 1-entry pull reply to a clean view made it encode %d entries, want 0", c.encoded)
	}
	if f, _ := r.rs.Flight(firstFlight); f.Reserved != 7 {
		t.Fatalf("pulled flight not merged: %+v", f)
	}
	c.encoded = 0
	if err := r.cm.PushImage(); err != nil {
		t.Fatal(err)
	}
	if c.encoded != 0 {
		t.Errorf("push after the pull encoded %d entries, want 0 (the merge moved the watermark)", c.encoded)
	}
	c.encoded = 0
	r.fetch(t)
	if c.encoded != 0 || r.lastFetch.Img != nil {
		t.Errorf("fetch after the pull encoded %d entries, image %v; want a clean view", c.encoded, r.lastFetch.Img)
	}
	// A write after the pull, to the merged flight, is still pushed.
	if err := r.rs.ConfirmTickets(2, firstFlight); err != nil {
		t.Fatal(err)
	}
	if err := r.cm.PushImage(); err != nil {
		t.Fatal(err)
	}
	if c.encoded != 1 {
		t.Errorf("push after a write to the merged flight encoded %d entries, want 1", c.encoded)
	}
	if got, _ := r.cm.Base().Get(airline.FlightKey(firstFlight)); !strings.Contains(string(got.Value), "|9|") {
		t.Errorf("base did not adopt the pushed flight: %q", got.Value)
	}
}

// A fetch or invalidate has always replaced base with a fresh extract,
// which zeroes every entry's Version/Writer and forgets tombstones. Later
// pushes carry those stamps, so the fold that replaced the wholesale
// assignment must leave base in the same state.
func TestCMCostFetchResetsBaseStamps(t *testing.T) {
	r, _ := newCountingRig(t, 8)
	r.pullOne(t, 3) // base now holds one entry stamped with a version
	gone := image.New()
	gone.Put(image.Entry{Key: airline.FlightKey(firstFlight + 1), Deleted: true})
	if err := r.rs.Merge(gone, property.Set{}); err != nil {
		t.Fatal(err)
	}
	if err := r.cm.PushImage(); err != nil { // base now holds a tombstone
		t.Fatal(err)
	}
	before := r.cm.Base()
	if e, _ := before.Get(airline.FlightKey(firstFlight)); e.Version == 0 {
		t.Fatal("setup: expected a stamped base entry")
	}
	if e, _ := before.Get(airline.FlightKey(firstFlight + 1)); !e.Deleted {
		t.Fatal("setup: expected a base tombstone")
	}
	r.fetch(t)
	for _, e := range r.cm.Base().Entries {
		k := e.Key
		if e.Deleted || e.Version != 0 || e.Writer != "" {
			t.Errorf("after a fetch base[%s] = v%d %q deleted=%t, want a live entry with zero stamps", k, e.Version, e.Writer, e.Deleted)
		}
	}
	if n := r.cm.Base().Len(); n != 7 {
		t.Errorf("after a fetch base holds %d entries, want the view's 7 live flights", n)
	}
}

// mapChanged renders MapCodec.ExtractChanged's answer as "key=value" /
// "key:deleted".
func mapChanged(t *testing.T, m *flecc.MapCodec, since uint64) (string, uint64) {
	t.Helper()
	img, rev, err := m.ExtractChanged(flecc.Props{}, since)
	if err != nil {
		t.Fatal(err)
	}
	if img == nil {
		return "", rev
	}
	var out []string
	for _, e := range img.Entries {
		k := e.Key
		if e.Version != 0 || e.Writer != "" {
			t.Errorf("%s: ExtractChanged must leave Version/Writer zero", k)
		}
		if e.Deleted {
			out = append(out, k+":deleted")
		} else {
			out = append(out, k+"="+string(e.Value))
		}
	}
	return strings.Join(out, ","), rev
}

func TestChangeExtractorMapCodec(t *testing.T) {
	m := flecc.NewMapCodec()
	if got, rev := mapChanged(t, m, 0); got != "" || rev != 0 {
		t.Fatalf("empty codec: %q at revision %d", got, rev)
	}
	var last uint64
	step := func(what string, mutate func(), want string) {
		t.Helper()
		mutate()
		got, rev := mapChanged(t, m, last)
		if rev <= last {
			t.Fatalf("%s: revision %d did not advance past %d", what, rev, last)
		}
		if got != want {
			t.Fatalf("%s: changed after %d = %q, want %q", what, last, got, want)
		}
		last = rev
	}
	step("Set", func() { m.SetString("a", "1") }, "a=1")
	step("Set second", func() { m.SetString("b", "2") }, "b=2")
	step("Set overwrite", func() { m.SetString("a", "3") }, "a=3")
	step("Delete", func() { m.Delete("b") }, "b:deleted")
	step("Merge", func() {
		img := image.New()
		img.Put(image.Entry{Key: "c", Value: []byte("4")})
		img.Put(image.Entry{Key: "a", Deleted: true})
		if err := m.Merge(img, flecc.Props{}); err != nil {
			t.Fatal(err)
		}
	}, "a:deleted,c=4")
	step("re-add after delete", func() { m.SetString("b", "5") }, "b=5") // the live entry, not the tombstone

	// Writes that change nothing report nothing.
	m.SetString("b", "5")
	m.Delete("never-there")
	if got, rev := mapChanged(t, m, last); got != "" || rev != last {
		t.Fatalf("no-op writes: %q at revision %d, want nothing at %d", got, rev, last)
	}

	// Since at or past the current revision asks for nothing: a nil
	// image, the current revision, and no allocation.
	for _, since := range []uint64{last, last + 1, math.MaxUint64} {
		img, rev, err := m.ExtractChanged(flecc.Props{}, since)
		if err != nil || img != nil || rev != last {
			t.Fatalf("since %d: image %v, revision %d, %v; want nil at %d", since, img, rev, err, last)
		}
	}
	if n := testing.AllocsPerRun(100, func() { m.ExtractChanged(flecc.Props{}, math.MaxUint64) }); n != 0 {
		t.Errorf("ExtractChanged past the current revision: %v allocs, want 0", n)
	}

	// since == 0 is Extract.
	full, err := m.Extract(flecc.Props{})
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := m.ExtractChanged(flecc.Props{}, 0)
	if err != nil || !slices.EqualFunc(all.Entries, full.Entries, image.Entry.Equal) {
		t.Fatalf("ExtractChanged(0) = %v, Extract = %v (%v)", all.Entries, full.Entries, err)
	}

	// The deletion records are bounded by the keys currently absent.
	for round := 0; round < 50; round++ {
		m.SetString("x", strconv.Itoa(round))
		m.Delete("x")
	}
	if got, _ := mapChanged(t, m, last); got != "x:deleted" {
		t.Fatalf("50 set/delete rounds of one key: changed = %q, want one tombstone", got)
	}
}

// Mutators, merges and extracts at once: run under -race.
func TestChangeExtractorMapCodecConcurrent(t *testing.T) {
	m := flecc.NewMapCodec()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("k%d", (w+i)%8)
				switch i % 3 {
				case 0:
					m.SetString(k, strconv.Itoa(i))
				case 1:
					m.Delete(k)
				default:
					img := image.New()
					img.Put(image.Entry{Key: k, Value: []byte("m")})
					m.Merge(img, flecc.Props{})
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var since uint64
		for i := 0; i < 300; i++ {
			_, rev, err := m.ExtractChanged(flecc.Props{}, since)
			if err != nil || rev < since {
				t.Errorf("ExtractChanged: revision %d after %d, err %v", rev, since, err)
				return
			}
			since = rev
			m.Extract(flecc.Props{})
		}
	}()
	wg.Wait()
}
