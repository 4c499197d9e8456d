package airline

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

func TestFlightEncodeDecode(t *testing.T) {
	f := Flight{Number: 102, Origin: "NYC", Dest: "SFO", Capacity: 200, Reserved: 42, Fare: 19900}
	got, err := DecodeFlight(102, f.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Fatalf("round trip: %+v != %+v", got, f)
	}
}

func TestDecodeFlightErrors(t *testing.T) {
	for _, b := range []string{"", "a|b|c", "a|b|x|0|0", "a|b|1|x|0", "a|b|1|0|x"} {
		if _, err := DecodeFlight(1, []byte(b)); err == nil {
			t.Errorf("DecodeFlight(%q) should fail", b)
		}
	}
}

func TestFlightKeys(t *testing.T) {
	if FlightKey(102) != "flight/102" {
		t.Fatal("key format")
	}
	n, err := ParseFlightKey("flight/102")
	if err != nil || n != 102 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	for _, k := range []string{"flight/", "flight/x", "nope/1", "102",
		// aliases of a canonical key: one flight, one key
		"flight/007", "flight/+7", "flight/-0", "flight/00", "flight/-07"} {
		if _, err := ParseFlightKey(k); err == nil {
			t.Errorf("ParseFlightKey(%q) should fail", k)
		}
		if NewReservationSystem().InScope(property.Set{}, k) {
			t.Errorf("InScope(%q) under the empty set: a key Merge cannot apply", k)
		}
	}
	for _, n := range []int{0, 7, -7, 100, -100} {
		if got, err := ParseFlightKey(FlightKey(n)); err != nil || got != n {
			t.Errorf("ParseFlightKey(FlightKey(%d)) = %d, %v", n, got, err)
		}
	}
}

func TestQuickFlightRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(60))
	f := func() bool {
		fl := Flight{
			Number:   r.Intn(1000),
			Origin:   []string{"NYC", "BOS", "SFO"}[r.Intn(3)],
			Dest:     []string{"LAX", "ORD", "MIA"}[r.Intn(3)],
			Capacity: r.Intn(500),
			Reserved: r.Intn(500),
			Fare:     r.Intn(100000),
		}
		got, err := DecodeFlight(fl.Number, fl.Encode())
		return err == nil && got == fl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReservations(t *testing.T) {
	rs := NewReservationSystem()
	rs.AddFlight(Flight{Number: 1, Origin: "NYC", Dest: "BOS", Capacity: 3})
	if err := rs.ConfirmTickets(2, 1); err != nil {
		t.Fatal(err)
	}
	if f, ok := rs.Flight(1); !ok || f.Available() != 1 {
		t.Fatalf("flight 1 = %+v (%v), want 1 seat available", f, ok)
	}
	if err := rs.ConfirmTickets(2, 1); !errors.Is(err, ErrSoldOut) {
		t.Fatalf("overbooking err = %v", err)
	}
	if err := rs.ConfirmTickets(1, 99); !errors.Is(err, ErrNoSuchFlight) {
		t.Fatalf("missing flight err = %v", err)
	}
	if err := rs.CancelTickets(5, 1); err != nil {
		t.Fatal(err)
	}
	if f, _ := rs.Flight(1); f.Available() != 3 {
		t.Fatalf("cancel should clamp at 0 reserved, avail=%d", f.Available())
	}
	if err := rs.CancelTickets(1, 99); !errors.Is(err, ErrNoSuchFlight) {
		t.Fatal("cancel on missing flight should fail")
	}
}

func TestBrowse(t *testing.T) {
	rs := NewReservationSystem()
	rs.AddFlight(Flight{Number: 1, Origin: "NYC", Dest: "BOS", Capacity: 2})
	rs.AddFlight(Flight{Number: 2, Origin: "NYC", Dest: "SFO", Capacity: 2})
	rs.AddFlight(Flight{Number: 3, Origin: "NYC", Dest: "BOS", Capacity: 1, Reserved: 1}) // full
	got := rs.Browse("NYC", "BOS")
	if len(got) != 1 || got[0].Number != 1 {
		t.Fatalf("browse = %+v", got)
	}
	if len(rs.Browse("NYC", "")) != 2 {
		t.Fatal("wildcard dest")
	}
	if len(rs.Browse("", "")) != 2 {
		t.Fatal("full wildcard excludes sold-out flights")
	}
}

func TestExtractRestrictedByProps(t *testing.T) {
	rs := NewReservationSystem()
	SeedFlights(rs, 100, 10, 50)
	img, err := rs.Extract(property.MustSet("Flights={100..104}"))
	if err != nil {
		t.Fatal(err)
	}
	if img.Len() != 5 {
		t.Fatalf("len = %d, want 5", img.Len())
	}
	// No Flights property: everything.
	img, _ = rs.Extract(property.NewSet())
	if img.Len() != 10 {
		t.Fatalf("unrestricted len = %d", img.Len())
	}
}

func TestMergeRestrictedAndForeignKeys(t *testing.T) {
	rs := NewReservationSystem()
	props := property.MustSet("Flights={1}")
	img := image.New()
	img.Put(image.Entry{Key: FlightKey(1), Value: Flight{Number: 1, Origin: "A", Dest: "B", Capacity: 10}.Encode()})
	img.Put(image.Entry{Key: FlightKey(2), Value: Flight{Number: 2, Origin: "A", Dest: "B", Capacity: 10}.Encode()})
	img.Put(image.Entry{Key: "other/data", Value: []byte("ignored")})
	if err := rs.Merge(img, props); err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("len = %d: restriction or foreign-key filtering failed", rs.Len())
	}
	// Tombstone removes.
	img2 := image.New()
	img2.Put(image.Entry{Key: FlightKey(1), Deleted: true})
	rs.Merge(img2, props)
	if rs.Len() != 0 {
		t.Fatal("tombstone should delete")
	}
}

func TestMergeBadPayload(t *testing.T) {
	rs := NewReservationSystem()
	img := image.New()
	img.Put(image.Entry{Key: FlightKey(1), Value: []byte("garbage")})
	if err := rs.Merge(img, property.NewSet()); err == nil {
		t.Fatal("bad payload should fail")
	}
}

func TestSeatResolver(t *testing.T) {
	ours := Flight{Number: 1, Origin: "A", Dest: "B", Capacity: 10, Reserved: 7}
	theirs := Flight{Number: 1, Origin: "A", Dest: "B", Capacity: 10, Reserved: 5}
	win, err := SeatResolver(image.Conflict{
		Key:    FlightKey(1),
		Ours:   image.Entry{Key: FlightKey(1), Value: ours.Encode()},
		Theirs: image.Entry{Key: FlightKey(1), Value: theirs.Encode()},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := DecodeFlight(1, win.Value)
	if got.Reserved != 7 {
		t.Fatalf("resolver kept %d reserved, want max 7", got.Reserved)
	}
	// Clamping at capacity.
	ours.Reserved = 12
	win, _ = SeatResolver(image.Conflict{
		Key:    FlightKey(1),
		Ours:   image.Entry{Key: FlightKey(1), Value: ours.Encode()},
		Theirs: image.Entry{Key: FlightKey(1), Value: theirs.Encode()},
	})
	got, _ = DecodeFlight(1, win.Value)
	if got.Reserved != 10 {
		t.Fatalf("reserved should clamp to capacity, got %d", got.Reserved)
	}
	// Non-flight conflicts fall through to theirs.
	win, _ = SeatResolver(image.Conflict{
		Key:    "other/key",
		Ours:   image.Entry{Key: "other/key", Value: []byte("o")},
		Theirs: image.Entry{Key: "other/key", Value: []byte("t")},
	})
	if string(win.Value) != "t" {
		t.Fatal("non-flight conflict should take theirs")
	}
}

func TestSeedFlights(t *testing.T) {
	rs := NewReservationSystem()
	SeedFlights(rs, 100, 25, 40)
	if rs.Len() != 25 {
		t.Fatalf("len = %d", rs.Len())
	}
	f, ok := rs.Flight(100)
	if !ok || f.Capacity != 40 || f.Origin == f.Dest {
		t.Fatalf("flight = %+v", f)
	}
	all := rs.Flights()
	if len(all) != 25 || all[0].Number != 100 || all[24].Number != 124 {
		t.Fatal("Flights() ordering")
	}
}

// deployment spins up a DB + directory manager for agent tests.
func deployment(t *testing.T) (*transport.Inproc, *vclock.Sim, *ReservationSystem, *directory.Manager) {
	t.Helper()
	net := transport.NewInproc()
	clock := vclock.NewSim()
	db := NewReservationSystem()
	SeedFlights(db, 100, 20, 100)
	dm, err := directory.New("db", db, clock, net, directory.Options{Resolver: SeatResolver})
	if err != nil {
		t.Fatal(err)
	}
	return net, clock, db, dm
}

func TestTravelAgentLifecycle(t *testing.T) {
	net, clock, db, _ := deployment(t)
	a, err := NewTravelAgent(AgentConfig{
		Name: "agent-1", Directory: "db", Net: net, Clock: clock,
		FlightsFrom: 100, FlightsTo: 104, Mode: wire.Weak,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The agent's replica holds exactly its served slice.
	if a.ARS.Len() != 5 {
		t.Fatalf("replica len = %d, want 5", a.ARS.Len())
	}
	for i := 0; i < 3; i++ {
		if err := a.ReserveTickets(1, 102); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// The sales reached the main database on close.
	f, _ := db.Flight(102)
	if f.Reserved != 3 {
		t.Fatalf("db reserved = %d, want 3", f.Reserved)
	}
}

func TestTravelAgentBadRange(t *testing.T) {
	net, clock, _, _ := deployment(t)
	if _, err := NewTravelAgent(AgentConfig{
		Name: "agent-x", Directory: "db", Net: net, Clock: clock,
		FlightsFrom: 10, FlightsTo: 5,
	}); err == nil {
		t.Fatal("inverted range should fail")
	}
}

func TestTwoAgentsStrongMode(t *testing.T) {
	net, clock, db, _ := deployment(t)
	mk := func(name string) *TravelAgent {
		a, err := NewTravelAgent(AgentConfig{
			Name: name, Directory: "db", Net: net, Clock: clock,
			FlightsFrom: 100, FlightsTo: 109, Mode: wire.Strong,
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a1 := mk("agent-1")
	a2 := mk("agent-2")
	// Alternating strong reservations on the same flight: every sale must
	// be preserved (one-copy serializability).
	for i := 0; i < 4; i++ {
		if err := a1.ReserveTickets(1, 105); err != nil {
			t.Fatal(err)
		}
		if err := a2.ReserveTickets(1, 105); err != nil {
			t.Fatal(err)
		}
	}
	a1.Close()
	a2.Close()
	f, _ := db.Flight(105)
	if f.Reserved != 8 {
		t.Fatalf("db reserved = %d, want 8 (no lost sales)", f.Reserved)
	}
}

func TestViewerBecomesBuyer(t *testing.T) {
	net, clock, db, dm := deployment(t)
	a, err := NewTravelAgent(AgentConfig{
		Name: "agent-1", Directory: "db", Net: net, Clock: clock,
		FlightsFrom: 100, FlightsTo: 109, Mode: wire.Weak,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{Agent: a}
	if _, err := c.View("NYC", ""); err != nil {
		t.Fatal(err)
	}
	if err := c.Buy(1, 100); err == nil {
		t.Fatal("viewer should not buy")
	}
	if err := c.BecomeBuyer(); err != nil {
		t.Fatal(err)
	}
	if dm.Mode("agent-1") != wire.Strong {
		t.Fatal("buyer should be strong")
	}
	if err := c.Buy(2, 100); err != nil {
		t.Fatal(err)
	}
	f, _ := db.Flight(100)
	if f.Reserved != 2 {
		t.Fatalf("db reserved = %d", f.Reserved)
	}
	if err := a.CM.SetMode(wire.Weak); err != nil {
		t.Fatal(err)
	}
	if dm.Mode("agent-1") != wire.Weak {
		t.Fatal("viewer should be weak")
	}
	a.Close()
}

func TestConcurrentSalesResolved(t *testing.T) {
	// Two weak agents sell the same flight from the same stale snapshot;
	// the SeatResolver must preserve the larger sale on merge.
	net, clock, db, _ := deployment(t)
	mk := func(name string) *TravelAgent {
		a, err := NewTravelAgent(AgentConfig{
			Name: name, Directory: "db", Net: net, Clock: clock,
			FlightsFrom: 100, FlightsTo: 109, Mode: wire.Weak,
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a1 := mk("agent-1")
	a2 := mk("agent-2")
	// Both work from the initial snapshot (no pulls in between).
	a1.CM.StartUse()
	a1.ARS.ConfirmTickets(3, 101)
	a1.CM.EndUse()
	a2.CM.StartUse()
	a2.ARS.ConfirmTickets(5, 101)
	a2.CM.EndUse()
	if err := a1.CM.PushImage(); err != nil {
		t.Fatal(err)
	}
	if err := a2.CM.PushImage(); err != nil {
		t.Fatal(err)
	}
	f, _ := db.Flight(101)
	// The conservative resolver keeps max(3,5)=5; the point is that the
	// later push did not silently erase the earlier sale down to 0.
	if f.Reserved != 5 {
		t.Fatalf("db reserved = %d, want 5 (resolver keeps max)", f.Reserved)
	}
	a1.Close()
	a2.Close()
}

func TestAgentVars(t *testing.T) {
	rs := NewReservationSystem()
	rs.AddFlight(Flight{Number: 1, Capacity: 10, Reserved: 4})
	v := agentVars{rs: rs}
	if got, ok := v.Lookup("reservedTotal"); !ok || got != 4 {
		t.Fatalf("reservedTotal = %g, %v", got, ok)
	}
	if got, ok := v.Lookup("flights"); !ok || got != 1 {
		t.Fatalf("flights = %g, %v", got, ok)
	}
	if _, ok := v.Lookup("nope"); ok {
		t.Fatal("unknown var should be undefined")
	}
}
