package directory_test

import (
	"testing"

	"flecc/internal/airline"
	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// A view's commits are scoped by the property set it registered: images
// carry no set, and the directory enforces the contract each view
// declared.

// scopeDM is a directory over a seeded airline database, flights 100..199.
func scopeDM(t *testing.T) (*directory.Manager, *airline.ReservationSystem, *transport.Inproc) {
	t.Helper()
	db := airline.NewReservationSystem()
	airline.SeedFlights(db, 100, 100, 200)
	net := transport.NewInproc()
	dm, err := directory.New("dm", db, vclock.NewSim(), net, directory.Options{FanOut: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dm.Close() })
	return dm, db, net
}

// mustCall sends req from ep to the directory and fails on a TErr reply.
func mustCall(t *testing.T, ep transport.Endpoint, req *wire.Message) *wire.Message {
	t.Helper()
	reply, err := ep.Call("dm", req)
	if err != nil {
		t.Fatalf("%s: %v", req.Type, err)
	}
	if reply.Type == wire.TErr {
		t.Fatalf("%s: %s", req.Type, reply.Err)
	}
	return reply
}

// reservedImage is an image setting Reserved on the given flights.
func reservedImage(t *testing.T, db *airline.ReservationSystem, reserved int, flights ...int) *image.Image {
	t.Helper()
	img := image.New()
	for _, n := range flights {
		f, ok := db.Flight(n)
		if !ok {
			t.Fatalf("flight %d not seeded", n)
		}
		f.Reserved = reserved
		img.Put(image.Entry{Key: f.Key(), Value: f.Encode()})
	}
	return img
}

func reservedOn(t *testing.T, db *airline.ReservationSystem, n int) int {
	t.Helper()
	f, ok := db.Flight(n)
	if !ok {
		t.Fatalf("flight %d missing from the primary", n)
	}
	return f.Reserved
}

// stamp is the provenance the directory serves for flight n.
func stamp(t *testing.T, dm *directory.Manager, n int) image.Entry {
	t.Helper()
	img, err := dm.Store().Extract(property.Set{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := img.Get(airline.FlightKey(n))
	return e
}

// TestPushScopedByRegistration: a push that carries a flight outside the
// pusher's registration changes only flights inside the registration, and
// the update record carries the registered set. The flight outside it is
// not stamped either: the primary keeps serving it at version 0.
func TestPushScopedByRegistration(t *testing.T) {
	dm, db, net := scopeDM(t)
	registered := property.MustSet("Flights={100..104}")
	ep, err := net.Attach("agent", func(*wire.Message) *wire.Message { return &wire.Message{Type: wire.TAck} })
	if err != nil {
		t.Fatal(err)
	}
	mustCall(t, ep, &wire.Message{Type: wire.TRegister, From: "agent", Props: registered})

	ack := mustCall(t, ep, &wire.Message{Type: wire.TPush, From: "agent", Ops: 1,
		Img: reservedImage(t, db, 7, 102, 150)})

	if got := reservedOn(t, db, 102); got != 7 {
		t.Fatalf("flight 102 (registered) reserved = %d, want 7", got)
	}
	if got := reservedOn(t, db, 150); got != 0 {
		t.Fatalf("flight 150 (outside the registration) reserved = %d, want 0: the push reached outside the registration", got)
	}
	if e := stamp(t, dm, 102); e.Version != ack.Version || e.Writer != "agent" {
		t.Fatalf("flight 102 stamped v%d by %q, want v%d by agent", e.Version, e.Writer, ack.Version)
	}
	if e := stamp(t, dm, 150); e.Version != 0 || e.Writer != "" {
		t.Fatalf("flight 150 stamped v%d by %q: an entry the merge skipped was recorded as committed", e.Version, e.Writer)
	}
	log := dm.Store().Log()
	if len(log) != 1 || !log[0].Props.Equal(registered) {
		t.Fatalf("update log %+v: want one record scoped by the registered %v", log, registered)
	}
}

// TestGatherReplyRacingSetPropsCommits: a gather target that surrenders
// its delta under its old set and then narrows its set — the directory
// registering the change before it commits the reply — still has every
// surrendered entry merged and stamped, including the one the new set no
// longer covers.
func TestGatherReplyRacingSetPropsCommits(t *testing.T) {
	dm, db, net := scopeDM(t)
	shared := property.MustSet("Flights={100..109}")

	var target transport.Endpoint
	target, err := net.Attach("target", func(req *wire.Message) *wire.Message {
		if req.Type != wire.TPull {
			return &wire.Message{Type: wire.TAck}
		}
		// The delta was extracted under the old set; the narrowing reaches
		// the directory before the reply does.
		delta := reservedImage(t, db, 9, 103, 108)
		mustCall(t, target, &wire.Message{Type: wire.TSetProps, From: "target", Props: property.MustSet("Flights={100..104}")})
		return &wire.Message{Type: wire.TImage, Ops: 1, Img: delta}
	})
	if err != nil {
		t.Fatal(err)
	}
	mustCall(t, target, &wire.Message{Type: wire.TRegister, From: "target", Props: shared})
	mustCall(t, target, &wire.Message{Type: wire.TInit, From: "target"})

	puller, err := net.Attach("puller", func(*wire.Message) *wire.Message { return &wire.Message{Type: wire.TAck} })
	if err != nil {
		t.Fatal(err)
	}
	mustCall(t, puller, &wire.Message{Type: wire.TRegister, From: "puller", Props: shared,
		Trig: wire.Triggers{Validity: "false"}})
	mustCall(t, puller, &wire.Message{Type: wire.TInit, From: "puller"})
	mustCall(t, puller, &wire.Message{Type: wire.TPull, From: "puller"})

	for _, n := range []int{103, 108} {
		if got := reservedOn(t, db, n); got != 9 {
			t.Fatalf("flight %d reserved = %d, want 9: the surrendered entry was lost", n, got)
		}
		if e := stamp(t, dm, n); e.Version != 1 || e.Writer != "target" {
			t.Fatalf("flight %d stamped v%d by %q, want v1 by target", n, e.Version, e.Writer)
		}
	}
	log := dm.Store().Log()
	if len(log) != 1 || log[0].Writer != "target" || !log[0].Props.IsEmpty() {
		t.Fatalf("update log %+v: want one record by target under the empty set", log)
	}
}

// TestNarrowingSetPropsPushesNoDeletions: after a view narrows its set,
// the flights that left it are not pushed as deletions. A delta may be
// committed without restriction (a reply racing the view's own set
// change), where such a deletion would remove the flights from the
// primary.
func TestNarrowingSetPropsPushesNoDeletions(t *testing.T) {
	_, db, net := scopeDM(t)
	var pushed []*image.Image
	net.AddObserver(transport.ObserverFunc(func(from, to string, m *wire.Message) {
		if m.Type == wire.TPush {
			pushed = append(pushed, m.Img)
		}
	}))
	view := airline.NewReservationSystem()
	cm, err := cache.New(cache.Config{Name: "agent", Directory: "dm", Net: net, View: view,
		Props: property.MustSet("Flights={100..104}"), Clock: vclock.NewSim()})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm.SetProps(property.MustSet("Flights={100..101}")); err != nil {
		t.Fatal(err)
	}
	if err := cm.StartUse(); err != nil {
		t.Fatal(err)
	}
	if err := view.ConfirmTickets(2, 100); err != nil {
		t.Fatal(err)
	}
	cm.EndUse()
	if err := cm.PushImage(); err != nil {
		t.Fatal(err)
	}
	if len(pushed) != 1 {
		t.Fatalf("%d pushes on the wire, want 1", len(pushed))
	}
	if es := pushed[0].Entries; len(es) != 1 || es[0].Key != airline.FlightKey(100) {
		t.Fatalf("pushed %v, want flight 100 alone", pushed[0].Entries)
	}
	if got := reservedOn(t, db, 100); got != 2 {
		t.Fatalf("flight 100 reserved = %d, want 2", got)
	}
}

// TestGatherReplyAfterUnregisterCommits: a gather target that unregisters —
// and gets the ack — while its fetch reply is still on the way back has
// that reply committed under the empty set, so its entries reach the
// primary rather than failing the puller's gather.
func TestGatherReplyAfterUnregisterCommits(t *testing.T) {
	dm, db, net := scopeDM(t)
	shared := property.MustSet("Flights={100..109}")

	var target transport.Endpoint
	target, err := net.Attach("target", func(req *wire.Message) *wire.Message {
		if req.Type != wire.TPull {
			return &wire.Message{Type: wire.TAck}
		}
		// Leave before answering the fetch: the directory acks the
		// unregister while this reply has not been committed yet.
		mustCall(t, target, &wire.Message{Type: wire.TUnregister, From: "target"})
		return &wire.Message{Type: wire.TImage, Ops: 1, Img: reservedImage(t, db, 9, 103, 108)}
	})
	if err != nil {
		t.Fatal(err)
	}
	mustCall(t, target, &wire.Message{Type: wire.TRegister, From: "target", Props: shared})
	mustCall(t, target, &wire.Message{Type: wire.TInit, From: "target"})

	puller, err := net.Attach("puller", func(*wire.Message) *wire.Message { return &wire.Message{Type: wire.TAck} })
	if err != nil {
		t.Fatal(err)
	}
	// Validity "false": the primary is never good enough, so every pull
	// gathers from the active sharers first.
	mustCall(t, puller, &wire.Message{Type: wire.TRegister, From: "puller", Props: shared,
		Trig: wire.Triggers{Validity: "false"}})
	mustCall(t, puller, &wire.Message{Type: wire.TInit, From: "puller"})
	mustCall(t, puller, &wire.Message{Type: wire.TPull, From: "puller"})

	if dm.Registry().Has("target") {
		t.Fatal("target should have unregistered during the gather")
	}
	for _, n := range []int{103, 108} {
		if got := reservedOn(t, db, n); got != 9 {
			t.Fatalf("flight %d reserved = %d, want 9: the departed target's fetch reply was lost", n, got)
		}
	}
	log := dm.Store().Log()
	if len(log) != 1 || log[0].Writer != "target" || !log[0].Props.IsEmpty() {
		t.Fatalf("update log %+v: want one record by target under the empty set", log)
	}
}

// The scopes that are not a view's registration are the whole domain: a
// commit by the original component itself, a commit on a bare store, and
// a standby's absorb of replicated values. Each must reach a flight that
// lies outside every registration; a narrower set would make the Scoper
// primary skip it.

// TestCommitLocalUnscoped: the original component's own commit merges and
// stamps a flight no view registered.
func TestCommitLocalUnscoped(t *testing.T) {
	dm, db, net := scopeDM(t)
	assertInvariantsAtCleanup(t, dm)
	ep, err := net.Attach("agent", func(*wire.Message) *wire.Message { return &wire.Message{Type: wire.TAck} })
	if err != nil {
		t.Fatal(err)
	}
	mustCall(t, ep, &wire.Message{Type: wire.TRegister, From: "agent", Props: property.MustSet("Flights={100..104}")})

	v, err := dm.CommitLocal(reservedImage(t, db, 5, 150), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := reservedOn(t, db, 150); got != 5 {
		t.Fatalf("flight 150 reserved = %d, want 5: the local commit was scoped", got)
	}
	if e := stamp(t, dm, 150); e.Version != v || e.Writer != "" {
		t.Fatalf("flight 150 stamped v%d by %q, want v%d by the primary", e.Version, e.Writer, v)
	}
}

// TestBareStoreCommitUnscoped: a store with no directory around it knows no
// registrations, and commits every key it is handed.
func TestBareStoreCommitUnscoped(t *testing.T) {
	db := airline.NewReservationSystem()
	airline.SeedFlights(db, 100, 100, 200)
	st := directory.NewStore(db, vclock.NewSim())
	v, _, _, err := st.Commit("w", reservedImage(t, db, 5, 150), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := reservedOn(t, db, 150); got != 5 {
		t.Fatalf("flight 150 reserved = %d, want 5: the bare commit was scoped", got)
	}
	img, err := st.Extract(property.Set{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := img.Get(airline.FlightKey(150)); e.Version != v || e.Writer != "w" {
		t.Fatalf("flight 150 stamped v%d by %q, want v%d by w", e.Version, e.Writer, v)
	}
	if log := st.Log(); len(log) != 1 || !log[0].Props.IsEmpty() {
		t.Fatalf("update log %+v: want one record under the empty set", log)
	}
	if invariantsEnabled() {
		if err := st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStandbyAbsorbsUnregisteredFlight: a replicated value reaches the
// standby's codec even when no registration, replicated or not, covers it.
func TestStandbyAbsorbsUnregisteredFlight(t *testing.T) {
	primA, primB := airline.NewReservationSystem(), airline.NewReservationSystem()
	airline.SeedFlights(primA, 100, 100, 200)
	airline.SeedFlights(primB, 100, 100, 200)
	net := transport.NewInproc()
	a, b := replPairOver(t, net, vclock.NewSim(), directory.ReplConfig{}, primA, primB)
	assertInvariantsAtCleanup(t, a)
	assertInvariantsAtCleanup(t, b)
	ep, err := net.Attach("agent", func(*wire.Message) *wire.Message { return &wire.Message{Type: wire.TAck} })
	if err != nil {
		t.Fatal(err)
	}
	if reply, err := ep.Call("dm!a", &wire.Message{Type: wire.TRegister, From: "agent", Props: property.MustSet("Flights={100..104}")}); err != nil || reply.Type == wire.TErr {
		t.Fatalf("register: %v %v", err, reply)
	}

	v, err := a.CommitLocal(reservedImage(t, primA, 5, 150), 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.CurrentVersion() != v {
		t.Fatalf("standby at v%d, want v%d: the commit did not replicate", b.CurrentVersion(), v)
	}
	if !b.Registry().Has("agent") {
		t.Fatal("the registration did not replicate")
	}
	if got := reservedOn(t, primB, 150); got != 5 {
		t.Fatalf("standby's flight 150 reserved = %d, want 5: the absorb was scoped", got)
	}
}

// TestAliasFlightKeyIsNoFlight: "flight/007" is not a second name of
// flight 7. Two weak views start from the same base of flight 7; a
// pushes +5 seats under the alias, then b pushes +3 from the stale base
// under the canonical key. If the primary merged the alias into flight
// 7 while the shadow stamped it under the alias, b's push would meet no
// conflict and overwrite a's seats: a lost update. The alias is out of
// every scope instead, so a's push commits nothing.
func TestAliasFlightKeyIsNoFlight(t *testing.T) {
	db := airline.NewReservationSystem()
	airline.SeedFlights(db, 7, 1, 200)
	net := transport.NewInproc()
	dm, err := directory.New("dm", db, vclock.NewSim(), net, directory.Options{FanOut: 1, Resolver: airline.SeatResolver})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dm.Close() })
	base, _ := db.Flight(7)
	eps := map[string]transport.Endpoint{}
	for _, name := range []string{"a", "b"} {
		ep, err := net.Attach(name, func(*wire.Message) *wire.Message { return &wire.Message{Type: wire.TAck} })
		if err != nil {
			t.Fatal(err)
		}
		mustCall(t, ep, &wire.Message{Type: wire.TRegister, From: name, Mode: wire.Weak, Props: property.MustSet("Flights={7}")})
		mustCall(t, ep, &wire.Message{Type: wire.TInit, From: name})
		eps[name] = ep
	}
	push := func(view, key string, reserved int) *wire.Message {
		f := base
		f.Reserved = reserved
		return mustCall(t, eps[view], &wire.Message{Type: wire.TPush, From: view, Ops: 1,
			Img: image.Of(0, []image.Entry{{Key: key, Value: f.Encode()}})})
	}

	push("a", "flight/007", 5)
	if got := reservedOn(t, db, 7); got != 0 {
		t.Fatalf("after a's push under flight/007, flight 7 has %d reserved, want 0: an alias key reached the flight", got)
	}
	if log := dm.Store().Log(); len(log) != 0 {
		t.Fatalf("an alias push committed %+v", log)
	}
	if ack := push("b", airline.FlightKey(7), 3); ack.Img != nil {
		t.Fatalf("b's push rejected %v, want it committed", ack.Img.Entries)
	}
	if got := reservedOn(t, db, 7); got != 3 {
		t.Fatalf("flight 7 has %d reserved after b's push, want 3", got)
	}
}

// TestNoopPushLeavesMergeInPull: a push that commits nothing (its one
// key is out of scope) acks with the current version, which here is the
// pusher's own earlier commit, a resolver merge. That ack names no commit
// of this push, so a pull that names it must still bring the merge back.
func TestNoopPushLeavesMergeInPull(t *testing.T) {
	db := airline.NewReservationSystem()
	airline.SeedFlights(db, 7, 1, 200)
	net := transport.NewInproc()
	dm, err := directory.New("dm", db, vclock.NewSim(), net, directory.Options{FanOut: 1, Resolver: airline.SeatResolver})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dm.Close() })
	base, _ := db.Flight(7)
	eps := map[string]transport.Endpoint{}
	for _, name := range []string{"a", "b"} {
		ep, err := net.Attach(name, func(*wire.Message) *wire.Message { return &wire.Message{Type: wire.TAck} })
		if err != nil {
			t.Fatal(err)
		}
		mustCall(t, ep, &wire.Message{Type: wire.TRegister, From: name, Mode: wire.Weak, Props: property.MustSet("Flights={7}")})
		mustCall(t, ep, &wire.Message{Type: wire.TInit, From: name})
		eps[name] = ep
	}
	push := func(view, key string, f airline.Flight) *wire.Message {
		return mustCall(t, eps[view], &wire.Message{Type: wire.TPush, From: view, Ops: 1,
			Img: image.Of(0, []image.Entry{{Key: key, Value: f.Encode()}})})
	}

	a := base
	a.Reserved = 5
	push("a", airline.FlightKey(7), a)
	b := base
	b.Reserved, b.Fare = 1, base.Fare+100
	merged := push("b", airline.FlightKey(7), b).Version
	if f, _ := db.Flight(7); f.Reserved != 5 || f.Fare != b.Fare {
		t.Fatalf("setup: the primary holds %+v, want a's seats and b's fare merged", f)
	}
	if ack := push("b", "flight/007", b); ack.Version != merged || dm.CurrentVersion() != merged {
		t.Fatalf("setup: the out-of-scope push acked v%d at v%d, want v%d and no commit", ack.Version, dm.CurrentVersion(), merged)
	}
	reply := mustCall(t, eps["b"], &wire.Message{Type: wire.TPull, From: "b", Since: merged - 1, Version: merged})
	if e, ok := reply.Img.Get(airline.FlightKey(7)); !ok || e.Version != merged {
		t.Fatalf("b's pull naming v%d carried %v, want the merge at v%d", merged, reply.Img.Entries, merged)
	}
}
