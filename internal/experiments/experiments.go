// Package experiments contains the harnesses that regenerate every figure
// in the paper's evaluation (§5.2) plus the ablations called out in
// DESIGN.md. Each experiment builds a deterministic simulated deployment
// (simulated clock + simulated LAN), drives the workload, and returns the
// same rows/series the paper reports:
//
//   - Figure 4 (efficiency): messages between cache managers and the
//     directory manager, Flecc vs time-sharing vs multicast, as the
//     number of conflicting travel agents grows;
//   - Figure 5 (adaptability): per-operation execution time and data
//     quality across a WEAK → STRONG → WEAK mode timeline;
//   - Figure 6 (flexibility): data quality and message counts with and
//     without a time-based pull trigger.
package experiments

import (
	"fmt"

	"flecc/internal/airline"
	"flecc/internal/baseline"
	"flecc/internal/directory"
	"flecc/internal/metrics"
	"flecc/internal/netsim"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// Protocol selects the coherence protocol under test.
type Protocol string

const (
	// ProtoFlecc is the paper's protocol: synchronize interested parties
	// only, as computed from data properties.
	ProtoFlecc Protocol = "flecc"
	// ProtoTimeSharing serializes agents with a token.
	ProtoTimeSharing Protocol = "time-sharing"
	// ProtoMulticast asks every cache manager for updates.
	ProtoMulticast Protocol = "multicast"
)

// Deployment is one simulated airline deployment: a main database with a
// directory manager on a hub host, plus travel agents on edge hosts.
type Deployment struct {
	Clock  *vclock.Sim
	Net    *netsim.Net
	Stats  *metrics.MessageStats
	DB     *airline.ReservationSystem
	DM     *directory.Manager
	TS     *baseline.TimeSharing // non-nil for ProtoTimeSharing
	Agents []*airline.TravelAgent
	// Proto records which protocol the deployment runs.
	Proto Protocol
}

// DeployConfig describes the deployment to build.
type DeployConfig struct {
	// Protocol selects the DM variant.
	Protocol Protocol
	// Agents is the number of travel agents.
	Agents int
	// GroupSize is the number of agents serving the same flights; agents
	// are partitioned into ceil(Agents/GroupSize) disjoint flight ranges.
	// Agents within a group conflict; agents across groups do not.
	GroupSize int
	// FlightsPerGroup is the width of each group's flight range.
	FlightsPerGroup int
	// Latency is the LAN link latency (one way) in virtual ms.
	Latency vclock.Duration
	// Mode is the agents' initial consistency mode.
	Mode wire.Mode
	// PushTrigger, PullTrigger, Validity are the agents' quality-trigger
	// sources.
	PushTrigger, PullTrigger, Validity string
	// PropagateOnPush switches the Flecc DM to push-based update
	// distribution (the E10 ablation).
	PropagateOnPush bool
}

// agentName renders the i-th agent's node name.
func agentName(i int) string { return fmt.Sprintf("agent-%03d", i) }

// NewDeployment builds the simulated deployment: a database with one
// flight range per agent group, the protocol's directory manager on host
// "hub", and each agent on its own edge host.
func NewDeployment(cfg DeployConfig) (*Deployment, error) {
	if cfg.Agents <= 0 || cfg.GroupSize <= 0 {
		return nil, fmt.Errorf("experiments: need positive Agents and GroupSize")
	}
	if cfg.FlightsPerGroup <= 0 {
		cfg.FlightsPerGroup = 10
	}
	d := &Deployment{
		Clock: vclock.NewSim(),
		DB:    airline.NewReservationSystem(),
		Stats: metrics.NewMessageStats(false),
		Proto: cfg.Protocol,
	}
	topo := netsim.LAN(cfg.Latency)
	topo.Place("db", "hub")
	d.Net = netsim.New(d.Clock, topo)
	d.Net.AddObserver(d.Stats)

	groups := (cfg.Agents + cfg.GroupSize - 1) / cfg.GroupSize
	airline.SeedFlights(d.DB, 100, groups*cfg.FlightsPerGroup, 1<<30)

	var err error
	switch cfg.Protocol {
	case ProtoTimeSharing:
		d.TS, err = baseline.NewTimeSharing("db", d.DB, d.Clock, d.Net)
		if d.TS != nil {
			d.DM = d.TS.Manager
		}
	case ProtoMulticast:
		d.DM, err = baseline.NewMulticast("db", d.DB, d.Clock, d.Net)
	case ProtoFlecc, "":
		d.DM, err = directory.New("db", d.DB, d.Clock, d.Net, directory.Options{
			Resolver:        airline.SeatResolver,
			PropagateOnPush: cfg.PropagateOnPush,
			// The netsim latency model charges the virtual clock serially;
			// FanOut=1 keeps DM-initiated rounds in deterministic order so
			// figure outputs stay exactly reproducible.
			FanOut: 1,
		})
	default:
		return nil, fmt.Errorf("experiments: unknown protocol %q", cfg.Protocol)
	}
	if err != nil {
		return nil, err
	}

	for i := 0; i < cfg.Agents; i++ {
		group := i / cfg.GroupSize
		from := 100 + group*cfg.FlightsPerGroup
		host := fmt.Sprintf("edge-%03d", i)
		d.Net.Topology().Place(agentName(i), host)
		agent, err := airline.NewTravelAgent(airline.AgentConfig{
			Name:            agentName(i),
			Directory:       "db",
			Net:             d.Net,
			Clock:           d.Clock,
			FlightsFrom:     from,
			FlightsTo:       from + cfg.FlightsPerGroup - 1,
			Mode:            cfg.Mode,
			PushTrigger:     cfg.PushTrigger,
			PullTrigger:     cfg.PullTrigger,
			ValidityTrigger: cfg.Validity,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: agent %d: %w", i, err)
		}
		d.Agents = append(d.Agents, agent)
	}
	return d, nil
}

// Close kills all agents.
func (d *Deployment) Close() {
	for _, a := range d.Agents {
		_ = a.Close()
	}
}

// FirstFlightOf returns the first flight number served by agent i.
func (d *Deployment) FirstFlightOf(i int) int {
	f := d.Agents[i].ARS.Flights()
	return f[0].Number
}

// Quality returns the paper's data-quality metric for agent i at this
// instant: the number of remote updates to the agent's shared data it has
// not seen — committed updates the DM logged after the agent's last sync,
// plus the peers' locally pending (unpushed) operations on overlapping
// data.
func (d *Deployment) Quality(i int) int {
	me := d.Agents[i]
	unseen := d.DM.UnseenCommitted(me.Name())
	for j, peer := range d.Agents {
		if j == i {
			continue
		}
		if d.conflicts(i, j) {
			unseen += peer.CM.PendingOps()
		}
	}
	return unseen
}

// conflicts reports whether agents i and j share flights (they are in the
// same group).
func (d *Deployment) conflicts(i, j int) bool {
	return d.DM.Registry().Conflicts(agentName(i), agentName(j))
}
