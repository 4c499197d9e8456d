package experiments

import (
	"fmt"

	"flecc/internal/metrics"
	"flecc/internal/vclock"
	"flecc/internal/wire"
	"flecc/internal/workload"
)

// --- Experiment E9: buyer-mix sweep ----------------------------------------
//
// The paper's introduction motivates Flecc with clients that browse (weak)
// and occasionally buy (strong): "users accept stale data during browsing
// (weak consistency), but require most current data when buying tickets
// (strong consistency)". This experiment quantifies why *both* fixed
// policies are wrong and per-client mode switching is the sweet spot:
//
//   - all-strong: correct, but every browse pays invalidation round trips
//     (high browse latency and message cost);
//   - all-weak (with lazy publication): cheap, but concurrent buyers sell
//     from stale replicas and oversell seats;
//   - adaptive (Flecc): browses run weak and cheap, purchases upgrade to
//     strong and never oversell.
//
// Purchases are pushed immediately in the strong configurations (a sale
// must be visible); the all-weak configuration publishes lazily — that lag
// is exactly what weak consistency means, and what makes it oversell.

// BuyerMixRow is one swept point.
type BuyerMixRow struct {
	// BuyFraction is the share of sessions that end in a purchase.
	BuyFraction float64
	// Buys is the number of purchase attempts in the stream.
	Buys int
	// Messages per configuration.
	MessagesAdaptive, MessagesAllStrong, MessagesAllWeak int64
	// BrowseTime is the total simulated time spent in browse operations
	// per configuration (latency 1 ms per hop).
	BrowseTimeAdaptive, BrowseTimeAllStrong vclock.Duration
	// Oversold counts seats sold to clients beyond flight capacity, per
	// configuration (only all-weak should ever be non-zero).
	OversoldAdaptive, OversoldAllStrong, OversoldAllWeak int
}

// BuyerMixResult is the sweep outcome.
type BuyerMixResult struct {
	Agents int
	Rows   []BuyerMixRow
}

// BuyerMixConfig parameterizes the sweep.
type BuyerMixConfig struct {
	// Clients is the number of concurrent clients (each with its own
	// travel agent view).
	Clients int
	// Sessions per client.
	Sessions int
	// Fractions to sweep.
	Fractions []float64
	// Capacity is the per-flight seat count; small values make weak-mode
	// overselling observable.
	Capacity int
	// Seed for the workload generator.
	Seed int64
}

// DefaultBuyerMix returns a laptop-scale default.
func DefaultBuyerMix() BuyerMixConfig {
	return BuyerMixConfig{
		Clients:   8,
		Sessions:  6,
		Fractions: []float64{0, 0.25, 0.5, 0.75, 1},
		Capacity:  3,
		Seed:      42,
	}
}

type buyerMixMode uint8

const (
	mixAdaptive buyerMixMode = iota
	mixAllStrong
	mixAllWeak
)

// RunBuyerMix executes the sweep.
func RunBuyerMix(cfg BuyerMixConfig) (*BuyerMixResult, error) {
	if cfg.Clients <= 0 || cfg.Sessions <= 0 || len(cfg.Fractions) == 0 {
		return nil, fmt.Errorf("buyermix: need positive Clients/Sessions and at least one fraction")
	}
	res := &BuyerMixResult{Agents: cfg.Clients}
	for _, frac := range cfg.Fractions {
		ops, err := workload.Generate(workload.Config{
			Seed:              cfg.Seed,
			Clients:           cfg.Clients,
			Sessions:          cfg.Sessions,
			BrowsesPerSession: 2,
			BuyFraction:       frac,
			FlightsFrom:       100,
			FlightsTo:         104,
			MaxSeats:          1,
		})
		if err != nil {
			return nil, err
		}
		row := BuyerMixRow{BuyFraction: frac, Buys: workload.Summarize(ops).Buys}
		for _, mode := range []buyerMixMode{mixAdaptive, mixAllStrong, mixAllWeak} {
			out, err := runBuyerMixOnce(cfg, ops, mode)
			if err != nil {
				return nil, fmt.Errorf("buyermix frac=%g mode=%d: %w", frac, mode, err)
			}
			switch mode {
			case mixAdaptive:
				row.MessagesAdaptive = out.msgs
				row.BrowseTimeAdaptive = out.browseTime
				row.OversoldAdaptive = out.oversold
			case mixAllStrong:
				row.MessagesAllStrong = out.msgs
				row.BrowseTimeAllStrong = out.browseTime
				row.OversoldAllStrong = out.oversold
			case mixAllWeak:
				row.MessagesAllWeak = out.msgs
				row.OversoldAllWeak = out.oversold
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

type buyerMixOut struct {
	msgs       int64
	browseTime vclock.Duration
	oversold   int
}

func runBuyerMixOnce(cfg BuyerMixConfig, ops []workload.Op, mode buyerMixMode) (buyerMixOut, error) {
	var out buyerMixOut
	initMode := wire.Weak
	if mode == mixAllStrong {
		initMode = wire.Strong
	}
	d, err := NewDeployment(DeployConfig{
		Protocol:        ProtoFlecc,
		Agents:          cfg.Clients,
		GroupSize:       cfg.Clients, // everyone shares the same flights
		FlightsPerGroup: 5,
		Latency:         1,
		Mode:            initMode,
	})
	if err != nil {
		return out, err
	}
	defer d.Close()
	// Shrink capacity so stale-replica races oversell observably, then
	// refresh every replica.
	for _, f := range d.DB.Flights() {
		f.Capacity = cfg.Capacity
		d.DB.AddFlight(f)
	}
	for _, a := range d.Agents {
		if err := a.CM.PullImage(); err != nil {
			return out, err
		}
	}
	d.Stats.Reset()

	// sold tracks seats successfully sold to clients per flight — the
	// ground truth the overselling audit compares against capacity.
	sold := map[int]int{}
	for _, op := range ops {
		a := d.Agents[op.Client]
		switch op.Kind {
		case workload.OpBrowse:
			t0 := d.Clock.Now()
			if _, err := a.Browse("", ""); err != nil {
				return out, err
			}
			out.browseTime += d.Clock.Now() - t0
		case workload.OpUpgrade:
			if mode == mixAdaptive {
				if err := a.CM.SetMode(wire.Strong); err != nil {
					return out, err
				}
			}
		case workload.OpDowngrade:
			if mode == mixAdaptive {
				if err := a.CM.SetMode(wire.Weak); err != nil {
					return out, err
				}
			}
		case workload.OpBuy:
			if err := a.ReserveTickets(op.Seats, op.Flight); err != nil {
				// Sold out is a legitimate outcome, not a failure.
				continue
			}
			sold[op.Flight] += op.Seats
			// Strong configurations publish the sale immediately; the
			// all-weak configuration publishes lazily (that lag IS weak
			// consistency).
			if mode != mixAllWeak {
				if err := a.CM.PushImage(); err != nil {
					return out, err
				}
			}
		}
	}
	// Quiesce and audit: seats promised to clients beyond capacity.
	for _, a := range d.Agents {
		if err := a.CM.PushImage(); err != nil {
			return out, err
		}
	}
	for flight, n := range sold {
		f, ok := d.DB.Flight(flight)
		if !ok {
			return out, fmt.Errorf("buyermix: flight %d vanished", flight)
		}
		if n > f.Capacity {
			out.oversold += n - f.Capacity
		}
	}
	out.msgs = d.Stats.Total()
	return out, nil
}

// Table renders the sweep.
func (r *BuyerMixResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("E9 — buyer-mix sweep (%d clients): adaptive modes vs all-strong vs all-weak", r.Agents),
		"buy-frac", "buys",
		"adaptive-msgs", "strong-msgs", "weak-msgs",
		"adaptive-browse-ms", "strong-browse-ms",
		"weak-oversold")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%.2f", row.BuyFraction), row.Buys,
			row.MessagesAdaptive, row.MessagesAllStrong, row.MessagesAllWeak,
			int64(row.BrowseTimeAdaptive), int64(row.BrowseTimeAllStrong),
			row.OversoldAllWeak)
	}
	return t
}

// CheckShape verifies the motivating claims:
//
//  1. browsing is cheaper adaptively: at every point the adaptive
//     configuration's browse time is below all-strong's;
//  2. adaptive and all-strong never oversell; all-weak oversells once
//     enough sessions buy;
//  3. at the pure-browsing end, adaptive messages are strictly below
//     all-strong's.
func (r *BuyerMixResult) CheckShape() error {
	sawOversell := false
	for _, row := range r.Rows {
		if row.OversoldAdaptive != 0 || row.OversoldAllStrong != 0 {
			return fmt.Errorf("buyermix: strong configurations must never oversell (frac=%.2f: %d/%d)",
				row.BuyFraction, row.OversoldAdaptive, row.OversoldAllStrong)
		}
		if row.BrowseTimeAdaptive >= row.BrowseTimeAllStrong {
			return fmt.Errorf("buyermix: adaptive browsing (%v) should beat all-strong (%v) at frac=%.2f",
				row.BrowseTimeAdaptive, row.BrowseTimeAllStrong, row.BuyFraction)
		}
		if row.OversoldAllWeak > 0 {
			sawOversell = true
		}
	}
	first := r.Rows[0]
	if first.BuyFraction == 0 && first.MessagesAdaptive >= first.MessagesAllStrong {
		return fmt.Errorf("buyermix: pure browsing should be strictly cheaper adaptively (%d vs %d)",
			first.MessagesAdaptive, first.MessagesAllStrong)
	}
	last := r.Rows[len(r.Rows)-1]
	if last.Buys > 0 && !sawOversell {
		return fmt.Errorf("buyermix: all-weak should oversell somewhere in the sweep")
	}
	return nil
}
