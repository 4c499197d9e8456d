package airline

import (
	"fmt"

	"flecc/internal/cache"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/trigger"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// AgentConfig mirrors the constructor arguments of the paper's Figure 3
// travel agent: where the directory manager lives, which flights this
// agent serves, the mode of operation, and the three quality triggers.
type AgentConfig struct {
	// Name is the agent's unique node name (e.g. "agent-7").
	Name string
	// Directory is the directory manager's node name.
	Directory string
	// Net is the network to attach to.
	Net transport.Network
	// Clock is the discrete time source.
	Clock vclock.Clock
	// FlightsFrom/FlightsTo define the agent's served flight-number range
	// (the "Flights" property value).
	FlightsFrom, FlightsTo int
	// Mode is the initial consistency mode.
	Mode wire.Mode
	// PushTrigger, PullTrigger, ValidityTrigger are the quality-trigger
	// sources registered with the cache manager (the paper's three
	// "(t > 1500)" constructor arguments).
	PushTrigger, PullTrigger, ValidityTrigger string
	// ReadOnly declares the agent a pure browser: its pulls are tagged
	// read operations so the read/write-semantics extension can let
	// concurrent readers coexist in strong mode.
	ReadOnly bool
	// Reconnect, when non-nil, lets the agent's cache manager survive its
	// endpoint dying (directory restart, dropped connection) by re-dialing
	// with backoff and re-registering.
	Reconnect *cache.ReconnectPolicy
}

// TravelAgent is a deployed travel-agent view: a working replica of the
// flight database slice it serves, plus the cache manager that keeps the
// replica coherent. It is the Go translation of the paper's Figure 3
// pseudo-code class.
type TravelAgent struct {
	// ARS is the agent's working replica (the `ars` field in Figure 3).
	ARS *ReservationSystem
	// CM is the agent's cache manager (the `cm` field in Figure 3).
	CM *cache.Manager

	name string
}

// agentVars exposes the agent's replica state to trigger expressions.
type agentVars struct{ rs *ReservationSystem }

// Lookup implements trigger.Env: triggers may reference "reservedTotal"
// (total seats this agent has sold locally) and "flights" (replica size).
func (v agentVars) Lookup(name string) (float64, bool) {
	switch name {
	case "reservedTotal":
		return float64(v.rs.TotalReserved()), true
	case "flights":
		return float64(v.rs.Len()), true
	default:
		return 0, false
	}
}

var _ trigger.Env = agentVars{}

// NewTravelAgent creates the agent's replica and cache manager and
// registers with the directory manager (Figure 3 lines 7–16), then
// initializes the data (line 17).
func NewTravelAgent(cfg AgentConfig) (*TravelAgent, error) {
	if cfg.FlightsTo < cfg.FlightsFrom {
		return nil, fmt.Errorf("airline: empty flight range [%d,%d]", cfg.FlightsFrom, cfg.FlightsTo)
	}
	ars := NewReservationSystem()
	props := property.NewSet(property.New(PropFlights,
		property.DiscreteRange(cfg.FlightsFrom, cfg.FlightsTo)))
	op := wire.OpWrite
	if cfg.ReadOnly {
		op = wire.OpRead
	}
	cm, err := cache.New(cache.Config{
		Name:            cfg.Name,
		Directory:       cfg.Directory,
		Net:             cfg.Net,
		View:            ars,
		Props:           props,
		Mode:            cfg.Mode,
		PushTrigger:     cfg.PushTrigger,
		PullTrigger:     cfg.PullTrigger,
		ValidityTrigger: cfg.ValidityTrigger,
		Vars:            agentVars{rs: ars},
		Clock:           cfg.Clock,
		Op:              op,
		Reconnect:       cfg.Reconnect,
	})
	if err != nil {
		return nil, err
	}
	if err := cm.InitImage(); err != nil {
		cm.KillImage()
		return nil, fmt.Errorf("airline: init %s: %w", cfg.Name, err)
	}
	return &TravelAgent{ARS: ars, CM: cm, name: cfg.Name}, nil
}

// Name returns the agent's node name.
func (a *TravelAgent) Name() string { return a.name }

// ReserveTickets performs one coherent reservation: pull the freshest
// data the mode/triggers allow, work on it inside a mutual-exclusion
// window, and leave the update pending for the push policy to propagate.
// It is one iteration of the paper's Figure 3 loop (lines 18–23).
func (a *TravelAgent) ReserveTickets(count, flightNumber int) error {
	if err := a.CM.PullImage(); err != nil {
		return err
	}
	if err := a.CM.StartUse(); err != nil {
		return err
	}
	err := a.ARS.ConfirmTickets(count, flightNumber)
	a.CM.EndUse()
	return err
}

// Browse performs one read-only lookup against the agent's replica,
// pulling first so the viewer sees data as fresh as its consistency level
// provides.
func (a *TravelAgent) Browse(origin, dest string) ([]Flight, error) {
	if err := a.CM.PullImage(); err != nil {
		return nil, err
	}
	if err := a.CM.StartUse(); err != nil {
		return nil, err
	}
	flights := a.ARS.Browse(origin, dest)
	a.CM.EndUse()
	return flights, nil
}

// Close pushes pending work and unregisters (Figure 3 line 30).
func (a *TravelAgent) Close() error { return a.CM.KillImage() }

// Client models a reservation client of a given capability (§5.1).
type Client struct {
	// Agent is the travel agent assisting this client.
	Agent *TravelAgent
	// Buyer clients need fresh data (strong mode); viewers accept stale
	// data (weak mode).
	Buyer bool
}

// BecomeBuyer switches the client (and its agent) to buying: the paper's
// "a viewer can become at any point a buyer", which tightens the agent's
// consistency to strong.
func (c *Client) BecomeBuyer() error {
	if c.Buyer {
		return nil
	}
	if err := c.Agent.CM.SetMode(wire.Strong); err != nil {
		return err
	}
	c.Buyer = true
	return nil
}

// Buy reserves seats; only buyers may buy.
func (c *Client) Buy(count, flight int) error {
	if !c.Buyer {
		return fmt.Errorf("airline: client is a viewer; call BecomeBuyer first")
	}
	if err := c.Agent.ReserveTickets(count, flight); err != nil {
		return err
	}
	// Buyers publish immediately: the sale must be visible system-wide.
	return c.Agent.CM.PushImage()
}

// View browses flights; available to all clients.
func (c *Client) View(origin, dest string) ([]Flight, error) {
	return c.Agent.Browse(origin, dest)
}
