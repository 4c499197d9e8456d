package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"flecc/internal/airline"
	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// TestStrongBuyersConserveSeatsTCP: four strong-mode travel agents buy
// seats on one flight group of a daemon booted as fleccd boots it, over
// loopback TCP, all at once. Strong mode grants the group to one of them
// at a time, so no buy is lost to a conflict: the daemon's database ends
// with exactly as many seats reserved as the agents bought, and every
// agent completes its buys. 200 seeds; 20 under -short. It logs how many
// extra rounds the pulls made after losing a claim.
func TestStrongBuyersConserveSeatsTCP(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	var retries, pulls int64
	for seed := int64(1); seed <= int64(seeds); seed++ {
		r, p := runStrongBuyers(t, seed)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
		retries, pulls = retries+r, pulls+p
	}
	t.Logf("%d claim retries over %d pulls (%.3f per pull)", retries, pulls, float64(retries)/float64(max(pulls, 1)))
}

const (
	strongBuyers  = 4
	buysPerBuyer  = 3
	buyerFlights  = 4 // flights 100..103: one conflict group
	maxBuyRetries = 1000
)

// runStrongBuyers runs one seed and returns the daemon's claim retries and
// pulls.
func runStrongBuyers(t *testing.T, seed int64) (retries, pulls int64) {
	t.Helper()
	db := airline.NewReservationSystem()
	airline.SeedFlights(db, 100, buyerFlights, 200)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts := directory.Options{Resolver: airline.SeatResolver, Lanes: 4,
		Retry: transport.RetryPolicy{Jitter: 0.2, Rand: transport.NewRand(seed)}}
	d, err := newDeployment("db", db, transport.NewServerNetwork(ln, 5*time.Second), opts, "")
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()

	agents := make([]*airline.TravelAgent, strongBuyers)
	for i := range agents {
		if agents[i], err = airline.NewTravelAgent(airline.AgentConfig{
			Name: fmt.Sprintf("buyer-%d", i), Directory: "db",
			Net:   transport.NewDialNetwork(ln.Addr().String(), 5*time.Second),
			Clock: vclock.NewReal(), FlightsFrom: 100, FlightsTo: 100 + buyerFlights - 1,
			Mode: wire.Strong,
		}); err != nil {
			t.Fatal(err)
		}
	}
	bought := make([]int, strongBuyers)
	errs := make([]error, strongBuyers)
	var wg sync.WaitGroup
	for i, a := range agents {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(i)))
			for range buysPerBuyer {
				flight := 100 + rng.Intn(buyerFlights)
				if errs[i] = buy(a, flight); errs[i] != nil {
					return
				}
				bought[i]++
			}
			errs[i] = a.Close() // pushes what is pending, then unregisters
		}()
	}
	wg.Wait()
	total := 0
	for i, err := range errs {
		if err != nil {
			t.Errorf("seed %d buyer-%d: %v", seed, i, err)
		}
		if bought[i] == 0 {
			t.Errorf("seed %d buyer-%d completed no buy", seed, i)
		}
		total += bought[i]
	}
	reserved := 0
	for n := 100; n < 100+buyerFlights; n++ {
		f, _ := db.Flight(n)
		reserved += f.Reserved
	}
	if reserved != total {
		t.Errorf("seed %d: %d seats reserved for %d buys", seed, reserved, total)
	}
	pull, _, _ := d.dm.Latencies()
	return d.dm.ClaimRetries(), pull.Count()
}

// buy reserves one seat and pushes it, pulling again whenever another
// buyer's pull invalidated the agent first.
func buy(a *airline.TravelAgent, flight int) error {
	for try := 0; ; try++ {
		err := a.ReserveTickets(1, flight)
		if err == nil {
			return a.CM.PushImage()
		}
		if !errors.Is(err, cache.ErrInvalidated) || try == maxBuyRetries {
			return err
		}
	}
}
