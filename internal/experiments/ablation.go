package experiments

import (
	"fmt"

	"flecc/internal/airline"
	"flecc/internal/directory"
	"flecc/internal/metrics"
	"flecc/internal/peer"
	"flecc/internal/registry"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// --- Ablation E5: how the conflict decision is made -----------------------

// ConflictPolicy selects how the directory manager decides which views
// share data.
type ConflictPolicy string

const (
	// PolicyWorstCase assumes every pair of views conflicts — the
	// "without additional application-specific information" baseline from
	// §4.1 ("all views conflict and the updates should be sent to all
	// views").
	PolicyWorstCase ConflictPolicy = "worst-case"
	// PolicyStaticMap pre-fills the static matrix with exact 1/0 entries
	// (the relationships are known before deployment).
	PolicyStaticMap ConflictPolicy = "static-map"
	// PolicyDynamic leaves every entry at -1 and evaluates dynConfl over
	// the live property sets (the fully dynamic case).
	PolicyDynamic ConflictPolicy = "dynamic"
)

// AblationConflictRow is one policy's measured traffic.
type AblationConflictRow struct {
	Policy   ConflictPolicy
	Messages int64
}

// AblationConflictResult compares the three conflict-decision policies on
// the same workload.
type AblationConflictResult struct {
	Agents, GroupSize int
	Rows              []AblationConflictRow
}

// RunAblationConflict runs the Figure-4 workload under each conflict
// policy. Static and dynamic must produce identical traffic (they compute
// the same relation); worst-case must cost strictly more — that surplus is
// exactly what the paper's data properties buy.
func RunAblationConflict(agents, groupSize, ops int) (*AblationConflictResult, error) {
	res := &AblationConflictResult{Agents: agents, GroupSize: groupSize}
	for _, pol := range []ConflictPolicy{PolicyWorstCase, PolicyStaticMap, PolicyDynamic} {
		d, err := NewDeployment(DeployConfig{
			Protocol:  ProtoFlecc,
			Agents:    agents,
			GroupSize: groupSize,
			Validity:  "false", // always freshest (the Fig. 4 requirement)
		})
		if err != nil {
			return nil, err
		}
		switch pol {
		case PolicyWorstCase:
			d.DM.Registry().SetDefaultRelation(registry.Conflict)
		case PolicyStaticMap:
			for i := 0; i < agents; i++ {
				for j := i + 1; j < agents; j++ {
					rel := registry.NoConflict
					if i/groupSize == j/groupSize {
						rel = registry.Conflict
					}
					d.DM.Registry().SetStatic(agentName(i), agentName(j), rel)
				}
			}
		case PolicyDynamic:
			// default: everything -1
		}
		d.Stats.Reset()
		for op := 0; op < ops; op++ {
			for i, a := range d.Agents {
				if err := a.ReserveTickets(1, d.FirstFlightOf(i)); err != nil {
					d.Close()
					return nil, err
				}
			}
		}
		res.Rows = append(res.Rows, AblationConflictRow{Policy: pol, Messages: d.Stats.Total()})
		d.Close()
	}
	return res, nil
}

// Table renders the comparison.
func (r *AblationConflictResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Ablation E5 — conflict decision policy (%d agents, groups of %d)", r.Agents, r.GroupSize),
		"policy", "messages")
	for _, row := range r.Rows {
		t.AddRow(string(row.Policy), row.Messages)
	}
	return t
}

// CheckShape verifies: static == dynamic, worst-case > both (unless the
// whole deployment is one conflict group, where they coincide).
func (r *AblationConflictResult) CheckShape() error {
	var worst, static, dynamic int64
	for _, row := range r.Rows {
		switch row.Policy {
		case PolicyWorstCase:
			worst = row.Messages
		case PolicyStaticMap:
			static = row.Messages
		case PolicyDynamic:
			dynamic = row.Messages
		}
	}
	if static != dynamic {
		return fmt.Errorf("ablation-conflict: static (%d) and dynamic (%d) should agree", static, dynamic)
	}
	if r.GroupSize < r.Agents && worst <= dynamic {
		return fmt.Errorf("ablation-conflict: worst-case (%d) should exceed property-based (%d)", worst, dynamic)
	}
	return nil
}

// --- Ablation E6: read/write semantics (paper §6 future work) -------------

// AblationRWResult compares strong-mode browsing traffic with and without
// the read/write-semantics extension.
type AblationRWResult struct {
	Agents, Ops                           int
	MessagesBase, MessagesAware           int64
	InvalidationsBase, InvalidationsAware int
}

// RunAblationRW deploys strong-mode agents that only browse (read-only
// pulls). The base protocol invalidates the previous reader on every
// pull; the read-aware extension lets readers coexist, eliminating the
// invalidation traffic — the reduction the paper's future work predicts
// from "attaching read/write semantics to the shared data".
func RunAblationRW(agents, ops int) (*AblationRWResult, error) {
	res := &AblationRWResult{Agents: agents, Ops: ops}
	for _, aware := range []bool{false, true} {
		clock := vclock.NewSim()
		net := transport.NewInproc()
		stats := metrics.NewMessageStats(false)
		net.AddObserver(stats)
		db := airline.NewReservationSystem()
		airline.SeedFlights(db, 100, 10, 100)
		// FanOut=1: deterministic serial rounds for reproducible outputs.
		_, err := directory.New("db", db, clock, net, directory.Options{ReadAware: aware, FanOut: 1})
		if err != nil {
			return nil, err
		}
		ags := make([]*airline.TravelAgent, agents)
		for i := range ags {
			a, err := airline.NewTravelAgent(airline.AgentConfig{
				Name: agentName(i), Directory: "db", Net: net, Clock: clock,
				FlightsFrom: 100, FlightsTo: 109, Mode: wire.Strong,
				ReadOnly: true,
			})
			if err != nil {
				return nil, err
			}
			ags[i] = a
		}
		stats.Reset()
		invalidations := 0
		for op := 0; op < ops; op++ {
			for _, a := range ags {
				if _, err := a.Browse("", ""); err != nil {
					return nil, err
				}
			}
		}
		for _, a := range ags {
			invalidations += a.CM.Invalidations()
			a.Close()
		}
		if aware {
			res.MessagesAware = stats.Total()
			res.InvalidationsAware = invalidations
		} else {
			res.MessagesBase = stats.Total()
			res.InvalidationsBase = invalidations
		}
	}
	return res, nil
}

// Table renders the comparison.
func (r *AblationRWResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Ablation E6 — read/write semantics, strong-mode browsing (%d agents, %d ops)", r.Agents, r.Ops),
		"variant", "messages", "invalidations")
	t.AddRow("base (writes assumed)", r.MessagesBase, r.InvalidationsBase)
	t.AddRow("read-aware", r.MessagesAware, r.InvalidationsAware)
	return t
}

// CheckShape verifies the extension removes reader/reader invalidations.
func (r *AblationRWResult) CheckShape() error {
	if r.InvalidationsAware != 0 {
		return fmt.Errorf("ablation-rw: read-aware browsing should never invalidate (got %d)", r.InvalidationsAware)
	}
	if r.Agents > 1 && r.InvalidationsBase == 0 {
		return fmt.Errorf("ablation-rw: base protocol should invalidate readers")
	}
	if r.MessagesAware >= r.MessagesBase {
		return fmt.Errorf("ablation-rw: read-aware (%d) should use fewer messages than base (%d)",
			r.MessagesAware, r.MessagesBase)
	}
	return nil
}

// --- Ablation E7: centralized vs decentralized (paper §4.1 / §6) ----------

// AblationPeerRow is one system size.
type AblationPeerRow struct {
	N                               int
	PairingsCentralized             int
	PairingsDecentralized           int
	SyncMessagesPerAntiEntropyRound int64
}

// AblationPeerResult quantifies the O(n) vs O(n²) argument.
type AblationPeerResult struct {
	Rows []AblationPeerRow
}

// RunAblationPeer builds n decentralized peers, runs one full
// all-pairs anti-entropy round, and reports the measured message count
// alongside the pairing formulas from §4.1.
func RunAblationPeer(sizes []int) (*AblationPeerResult, error) {
	res := &AblationPeerResult{}
	for _, n := range sizes {
		net := transport.NewInproc()
		stats := metrics.NewMessageStats(false)
		net.AddObserver(stats)
		peers := make([]*peer.Peer, n)
		for i := range peers {
			rs := airline.NewReservationSystem()
			airline.SeedFlights(rs, 100, 2, 10)
			p, err := peer.New(fmt.Sprintf("peer-%02d", i), rs, net, airline.SeatResolver)
			if err != nil {
				return nil, err
			}
			peers[i] = p
		}
		stats.Reset()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if err := peers[i].Sync(fmt.Sprintf("peer-%02d", j)); err != nil {
					return nil, err
				}
			}
		}
		res.Rows = append(res.Rows, AblationPeerRow{
			N:                               n,
			PairingsCentralized:             peer.PairingsCentralized(n),
			PairingsDecentralized:           peer.PairingsDecentralized(n),
			SyncMessagesPerAntiEntropyRound: stats.Total(),
		})
		for _, p := range peers {
			p.Close()
		}
	}
	return res, nil
}

// Table renders the comparison.
func (r *AblationPeerResult) Table() *metrics.Table {
	t := metrics.NewTable("Ablation E7 — centralized O(n) vs decentralized O(n²) (paper §4.1)",
		"n", "pairings-centralized", "pairings-decentralized", "anti-entropy-msgs/round")
	for _, row := range r.Rows {
		t.AddRow(row.N, row.PairingsCentralized, row.PairingsDecentralized, row.SyncMessagesPerAntiEntropyRound)
	}
	return t
}

// CheckShape verifies quadratic growth of the decentralized costs.
func (r *AblationPeerResult) CheckShape() error {
	for _, row := range r.Rows {
		if row.SyncMessagesPerAntiEntropyRound != int64(2*row.PairingsDecentralized) {
			return fmt.Errorf("ablation-peer: n=%d expected %d messages, got %d",
				row.N, 2*row.PairingsDecentralized, row.SyncMessagesPerAntiEntropyRound)
		}
	}
	return nil
}
