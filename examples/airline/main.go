// Airline: the paper's case study (§5.1) and the Go translation of its
// Figure 3 travel-agent pseudo-code.
//
// A main flight database is deployed with a directory manager; two travel
// agents (views over overlapping flight ranges) assist clients. The demo
// walks through the exact Figure 3 flow — create cache manager with
// property list, mode and "(t > 1500)"-style triggers; initImage; loops of
// pullImage/startUseImage/confirmTickets/endUseImage; killImage — and then
// shows a viewer client upgrading to a buyer (weak → strong).
package main

import (
	"fmt"
	"log"

	"flecc/internal/airline"
	"flecc/internal/directory"
	"flecc/internal/metrics"
	"flecc/internal/netsim"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

func main() {
	clock := vclock.NewSim()
	topo := netsim.LAN(2) // 2ms LAN links
	topo.Place("db", "server")
	net := netsim.New(clock, topo)
	stats := metrics.NewMessageStats(false)
	net.AddObserver(stats)

	// The main flight database: 20 flights, 100 seats each.
	db := airline.NewReservationSystem()
	airline.SeedFlights(db, 100, 20, 100)
	dm, err := directory.New("db", db, clock, net, directory.Options{
		Resolver: airline.SeatResolver,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dm.Close()

	// Figure 3, lines 7–17: create the cache manager with the property
	// list, mode of operation, and the three triggers; then initImage.
	newAgent := func(name string, from, to int, mode wire.Mode) *airline.TravelAgent {
		topo.Place(name, "branch/"+name)
		a, err := airline.NewTravelAgent(airline.AgentConfig{
			Name:        name,
			Directory:   "db",
			Net:         net,
			Clock:       clock,
			FlightsFrom: from,
			FlightsTo:   to,
			Mode:        mode,
			PushTrigger: "(t > 1500) && pending > 0",
			PullTrigger: "every(1000)",
		})
		if err != nil {
			log.Fatal(err)
		}
		return a
	}
	agent1 := newAgent("agent-1", 100, 109, wire.Weak)
	agent2 := newAgent("agent-2", 105, 114, wire.Weak) // overlaps 105–109

	fmt.Printf("agent-1 serves %d flights, agent-2 serves %d flights (overlap: 105-109)\n",
		agent1.ARS.Len(), agent2.ARS.Len())

	// Figure 3, lines 18–23: the reservation loop.
	for i := 0; i < 10; i++ {
		if err := agent1.ReserveTickets(1, 105); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("agent-1 reserved 10 seats on flight 105 (pending ops: %d)\n",
		agent1.CM.PendingOps())

	// The push trigger "(t > 1500) && pending > 0" fires once virtual time
	// passes 1500ms.
	agent1.CM.ScheduleTriggers(250)
	clock.RunUntil(2000)
	f, _ := db.Flight(105)
	fmt.Printf("after t=2000ms the push trigger has fired: db shows %d reserved on flight 105\n",
		f.Reserved)

	// agent-2's explicit pull sees the sales (overlapping property).
	if err := agent2.CM.PullImage(); err != nil {
		log.Fatal(err)
	}
	f2, _ := agent2.ARS.Flight(105)
	fmt.Printf("agent-2 pulled: flight 105 has %d/%d seats free\n", f2.Available(), f2.Capacity)

	// §5.1: a viewer becomes a buyer — the client upgrades its agent to
	// strong mode so purchases always see fresh data.
	client := &airline.Client{Agent: agent2}
	if flights, err := client.View("", ""); err == nil {
		fmt.Printf("client browses %d flights as a viewer\n", len(flights))
	}
	if err := client.BecomeBuyer(); err != nil {
		log.Fatal(err)
	}
	if err := client.Buy(2, 105); err != nil {
		log.Fatal(err)
	}
	f, _ = db.Flight(105)
	fmt.Printf("buyer purchased 2 seats in strong mode: db shows %d reserved\n", f.Reserved)
	fmt.Printf("strong pull invalidated agent-1: valid=%v\n", agent1.CM.Valid())

	// Figure 3, line 30: killImage.
	if err := agent1.Close(); err != nil {
		log.Fatal(err)
	}
	if err := agent2.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done: %d protocol messages, %d conflicts resolved, final version v%d\n",
		stats.Total(), dm.Store().ConflictsSeen(), dm.CurrentVersion())
}
