// Failover: the fail-safe mechanism the paper's §4.1 leaves as an
// exercise — the directory manager's protocol metadata (version counter,
// per-key shadow, update log) is checkpointed, the primary directory
// manager dies, and a standby restores the checkpoint and takes over under
// the same node name. Views re-register and continue with full version
// continuity: post-failover commits extend the original version sequence,
// and the data-quality accounting survives.
package main

import (
	"fmt"
	"log"

	"flecc/internal/airline"
	"flecc/internal/directory"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

func main() {
	net := transport.NewInproc()
	clock := vclock.NewSim()

	db := airline.NewReservationSystem()
	airline.SeedFlights(db, 100, 10, 50)
	dm1, err := directory.New("db", db, clock, net, directory.Options{
		Resolver: airline.SeatResolver,
	})
	if err != nil {
		log.Fatal(err)
	}

	agent, err := airline.NewTravelAgent(airline.AgentConfig{
		Name: "agent-1", Directory: "db", Net: net, Clock: clock,
		FlightsFrom: 100, FlightsTo: 109, Mode: wire.Weak,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := agent.ReserveTickets(1, 104); err != nil {
			log.Fatal(err)
		}
		if err := agent.CM.PushImage(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("before failure: primary at v%d, flight 104 has %d reserved\n",
		dm1.CurrentVersion(), mustFlight(db, 104).Reserved)

	// Checkpoint the protocol metadata (in production this would be
	// written periodically to stable storage).
	blob := directory.EncodeSnapshot(dm1.Store().SnapshotSince(0))
	fmt.Printf("checkpoint taken (%d bytes)\n", len(blob))

	// The directory manager fails.
	dm1.Close()
	if err := agent.CM.PullImage(); err != nil {
		fmt.Printf("during outage, the view's pull fails: %v\n", err)
	}

	// A standby restores the checkpoint and takes over the node name.
	snap, err := directory.DecodeSnapshot(blob)
	if err != nil {
		log.Fatal(err)
	}
	dm2, err := directory.New("db", db, clock, net, directory.Options{
		Resolver: airline.SeatResolver,
		Snapshot: snap,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dm2.Close()
	fmt.Printf("standby up at v%d (version continuity preserved)\n", dm2.CurrentVersion())

	// The view reconnects (new cache manager, same replica) and keeps
	// selling; the version sequence continues where it left off.
	agent.CM.KillImage() // best-effort; the old endpoint is already dead
	agent2, err := airline.NewTravelAgent(airline.AgentConfig{
		Name: "agent-1b", Directory: "db", Net: net, Clock: clock,
		FlightsFrom: 100, FlightsTo: 109, Mode: wire.Weak,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := agent2.ReserveTickets(1, 104); err != nil {
		log.Fatal(err)
	}
	if err := agent2.CM.PushImage(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after failover: primary at v%d, flight 104 has %d reserved\n",
		dm2.CurrentVersion(), mustFlight(db, 104).Reserved)
	agent2.Close()
}

func mustFlight(db *airline.ReservationSystem, n int) airline.Flight {
	f, ok := db.Flight(n)
	if !ok {
		log.Fatalf("flight %d missing", n)
	}
	return f
}
