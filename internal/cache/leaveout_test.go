package cache_test

import (
	"errors"
	"os"
	"slices"
	"testing"

	"flecc/internal/airline"
	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// leaveOutFirst and leaveOutFlights are the flights the leave-out rigs
// serve: one conflict group of the disjoint_reserve benchmark.
const (
	leaveOutFirst   = 100
	leaveOutFlights = 8
)

// leaveOutRig is the reserve loop's deployment: the real directory over
// an airline database with SeatResolver, and weak travel agents on every
// flight, attached through a hookNet on an in-process network. pulls
// records the reply to each TPull an agent sends.
type leaveOutRig struct {
	db     *airline.ReservationSystem
	dm     *directory.Manager
	agents map[string]*airline.TravelAgent
	pulls  []*wire.Message
}

// newLeaveOutRig deploys the named agents. hook, when non-nil, makes
// every call the agents send; the rig records the TPull replies it
// returns.
func newLeaveOutRig(t *testing.T, hook callHook, names ...string) *leaveOutRig {
	t.Helper()
	r := &leaveOutRig{db: airline.NewReservationSystem(), agents: map[string]*airline.TravelAgent{}}
	airline.SeedFlights(r.db, leaveOutFirst, leaveOutFlights, 1<<30)
	inproc := transport.NewInproc()
	clock := vclock.NewSim()
	var err error
	r.dm, err = directory.New("dm", r.db, clock, inproc, directory.Options{Resolver: airline.SeatResolver})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.dm.Close() })
	if os.Getenv("FLECC_TEST_INVARIANTS") == "1" {
		t.Cleanup(func() {
			if err := r.dm.CheckInvariants(); err != nil && !t.Failed() {
				t.Errorf("FLECC_TEST_INVARIANTS: post-test invariant check failed: %v", err)
			}
		})
	}
	if hook == nil {
		hook = func(ep transport.Endpoint, to string, req *wire.Message) (*wire.Message, error) {
			return ep.Call(to, req)
		}
	}
	recorded := &hookNet{Network: inproc, hook: func(ep transport.Endpoint, to string, req *wire.Message) (*wire.Message, error) {
		reply, err := hook(ep, to, req)
		if err == nil && req.Type == wire.TPull {
			r.pulls = append(r.pulls, reply)
		}
		return reply, err
	}}
	for _, name := range names {
		a, err := airline.NewTravelAgent(airline.AgentConfig{
			Name: name, Directory: "dm", Net: recorded, Clock: clock, Mode: wire.Weak,
			FlightsFrom: leaveOutFirst, FlightsTo: leaveOutFirst + leaveOutFlights - 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.agents[name] = a
	}
	return r
}

// reserve is one reserve+push op of the loop: a pull, a one-seat
// reservation on flight n and its push.
func (r *leaveOutRig) reserve(t *testing.T, agent string, n int) {
	t.Helper()
	a := r.agents[agent]
	if err := a.ReserveTickets(1, n); err != nil {
		t.Fatal(err)
	}
	if err := a.CM.PushImage(); err != nil {
		t.Fatal(err)
	}
}

// write changes flight n in the agent's replica inside a use window,
// without the pull ReserveTickets makes first.
func (r *leaveOutRig) write(t *testing.T, agent string, n int, change func(*airline.Flight)) {
	t.Helper()
	a := r.agents[agent]
	if err := a.CM.StartUse(); err != nil {
		t.Fatal(err)
	}
	f, _ := a.ARS.Flight(n)
	change(&f)
	a.ARS.AddFlight(f)
	a.CM.EndUse()
}

// pull makes the agent pull and returns the directory's reply.
func (r *leaveOutRig) pull(t *testing.T, agent string) *image.Image {
	t.Helper()
	if err := r.agents[agent].CM.PullImage(); err != nil {
		t.Fatal(err)
	}
	reply := r.pulls[len(r.pulls)-1]
	if reply.Img == nil {
		return image.New()
	}
	return reply.Img
}

// warm runs one op and a pull, so the agent has seen a version above 0
// and its next pull is a delta.
func (r *leaveOutRig) warm(t *testing.T, agent string) {
	t.Helper()
	r.reserve(t, agent, leaveOutFirst)
	r.pull(t, agent)
}

// converged fails the test unless the agent's replica equals the primary.
func (r *leaveOutRig) converged(t *testing.T, agent string) {
	t.Helper()
	if got, want := r.agents[agent].ARS.Flights(), r.db.Flights(); !slices.Equal(got, want) {
		t.Fatalf("%s holds %+v, the primary %+v", agent, got, want)
	}
}

func keysOf(img *image.Image) []string {
	keys := make([]string, len(img.Entries))
	for i, e := range img.Entries {
		keys[i] = e.Key
	}
	return keys
}

// A pull after a clean push gets an empty image: the view already holds
// what it committed, so the directory does not send it back.
func TestPullLeavesOutCleanPush(t *testing.T) {
	r := newLeaveOutRig(t, nil, "a")
	r.warm(t, "a")
	r.reserve(t, "a", leaveOutFirst+1)
	if img := r.pull(t, "a"); img.Len() != 0 {
		t.Fatalf("the pull after a clean push carried %v, want no entry", keysOf(img))
	}
	r.converged(t, "a")
}

// A push that meets a conflict is stamped with the pusher, but the
// resolver merged it: the primary holds a value the pusher never had, so
// the next pull must bring it back.
func TestMergedPushComesBack(t *testing.T) {
	r := newLeaveOutRig(t, nil, "a", "b")
	r.warm(t, "a")
	r.warm(t, "b")
	n := leaveOutFirst + 1
	before, _ := r.db.Flight(n)
	for range 3 {
		r.reserve(t, "a", n)
	}
	// b has not pulled since: its base for flight n predates a's seats.
	r.write(t, "b", n, func(f *airline.Flight) { f.Reserved++; f.Fare += 100 })
	if err := r.agents["b"].CM.PushImage(); err != nil {
		t.Fatal(err)
	}
	merged, _ := r.db.Flight(n)
	if merged.Reserved != 3 || merged.Fare != before.Fare+100 {
		t.Fatalf("setup: the primary holds %+v, want a's 3 seats and b's fare merged", merged)
	}
	img := r.pull(t, "b")
	if _, ok := img.Get(airline.FlightKey(n)); !ok {
		t.Fatalf("b's pull after a merged push carried %v, want flight %d", keysOf(img), n)
	}
	r.converged(t, "b")
}

// A push whose ack is lost is committed, but the view never folded it and
// still names its previous ack. The pull must bring the commit back, so
// the view's writes stop being pending and the next push commits nothing.
func TestLostAckPushComesBack(t *testing.T) {
	var drop bool
	r := newLeaveOutRig(t, func(ep transport.Endpoint, to string, req *wire.Message) (*wire.Message, error) {
		reply, err := ep.Call(to, req)
		if err == nil && req.Type == wire.TPush && drop {
			drop = false
			return nil, errors.New("push ack lost")
		}
		return reply, err
	}, "a")
	r.warm(t, "a")
	r.reserve(t, "a", leaveOutFirst) // a clean push, its ack folded
	n := leaveOutFirst + 1
	r.write(t, "a", n, func(f *airline.Flight) { f.Reserved++ })
	drop = true
	if err := r.agents["a"].CM.PushImage(); err == nil {
		t.Fatal("setup: the push whose ack was dropped succeeded")
	}
	ver, records := r.dm.CurrentVersion(), r.dm.Store().LogLen()
	img := r.pull(t, "a")
	if e, ok := img.Get(airline.FlightKey(n)); !ok || e.Version != ver {
		t.Fatalf("the pull after a lost ack carried %v, want flight %d at v%d", keysOf(img), n, ver)
	}
	if err := r.agents["a"].CM.PushImage(); err != nil {
		t.Fatal(err)
	}
	if v, l := r.dm.CurrentVersion(), r.dm.Store().LogLen(); v != ver || l != records {
		t.Fatalf("the push after the pull committed again: v%d -> v%d, log %d -> %d", ver, v, records, l)
	}
	r.converged(t, "a")
}

// Two pushes between pulls: the pull names only the last ack, so only the
// last push is left out and the first comes back.
func TestTwoPushesOnlyLastLeftOut(t *testing.T) {
	r := newLeaveOutRig(t, nil, "a")
	r.warm(t, "a")
	r.reserve(t, "a", leaveOutFirst+1)
	r.write(t, "a", leaveOutFirst+2, func(f *airline.Flight) { f.Reserved++ })
	if err := r.agents["a"].CM.PushImage(); err != nil {
		t.Fatal(err)
	}
	want := []string{airline.FlightKey(leaveOutFirst + 1)}
	if got := keysOf(r.pull(t, "a")); !slices.Equal(got, want) {
		t.Fatalf("the pull after two pushes carried %v, want %v", got, want)
	}
	r.converged(t, "a")
}

// set-props makes the view forget its ack: a narrowing one drops keys
// from base, so base no longer vouches for what the push held, and the
// next pull names no ack.
func TestSetPropsForgetsAck(t *testing.T) {
	r := newLeaveOutRig(t, nil, "a")
	r.warm(t, "a")
	n := leaveOutFirst + 1
	r.reserve(t, "a", n)
	cm := r.agents["a"].CM
	for _, to := range []int{leaveOutFirst, leaveOutFirst + leaveOutFlights - 1} {
		props := property.NewSet(property.New(airline.PropFlights, property.DiscreteRange(leaveOutFirst, to)))
		if err := cm.SetProps(props); err != nil {
			t.Fatal(err)
		}
	}
	if img := r.pull(t, "a"); !slices.Equal(keysOf(img), []string{airline.FlightKey(n)}) {
		t.Fatalf("the pull after set-props carried %v, want flight %d", keysOf(img), n)
	}
	r.converged(t, "a")
}
