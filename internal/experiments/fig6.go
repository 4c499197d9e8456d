package experiments

import (
	"fmt"
	"io"

	"flecc/internal/metrics"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// Fig6Config parameterizes the flexibility experiment (paper Figure 6):
// "running ten conflicting travel agents in weak mode, with and without
// triggers. We measure the quality of the data and the number of messages
// generated between the cache managers and the directory managers. ...
// The upper graph represents a travel agent which explicitly pulls the
// current data before executing four methods. The lower plot represents
// the same travel agent that uses a time-based pull trigger in addition to
// explicit calls. However, the cost of the improved data quality is an
// increased number of messages (116 — no triggers versus 182 — with
// triggers)."
type Fig6Config struct {
	// Agents is the number of conflicting agents (paper: 10).
	Agents int
	// Ops is the number of method executions by the observed agent.
	Ops int
	// ExplicitPullEvery: the observed agent explicitly pulls before every
	// k-th method (paper: 4 explicit pulls across the run).
	ExplicitPullEvery int
	// TriggerPeriod is the time-based pull trigger period in virtual ms
	// for the with-triggers variant (the paper's "(t > 1500)"-style
	// trigger, realized as every(period)).
	TriggerPeriod vclock.Duration
	// TickEvery is the trigger evaluation period.
	TickEvery vclock.Duration
	// OpSpacing is the virtual time between consecutive method
	// executions (drives the trigger timeline).
	OpSpacing vclock.Duration
}

// DefaultFig6 returns the paper-equivalent setting. The trigger period is
// deliberately not a multiple of the explicit-pull spacing (500ms of
// virtual time = 5 ops), so the trigger adds pulls *between* the explicit
// ones rather than coinciding with them.
func DefaultFig6() Fig6Config {
	return Fig6Config{
		Agents:            10,
		Ops:               20,
		ExplicitPullEvery: 5,
		TriggerPeriod:     300,
		TickEvery:         100,
		OpSpacing:         100,
	}
}

// Fig6Point is one method execution of the observed agent.
type Fig6Point struct {
	T       vclock.Time
	Quality int
	// Pulled marks operations preceded by an explicit pull.
	Pulled bool
}

// Fig6Variant is one run (with or without the pull trigger).
type Fig6Variant struct {
	Name     string
	Points   []Fig6Point
	Messages int64
}

// MeanQuality returns the variant's average data quality.
func (v *Fig6Variant) MeanQuality() float64 {
	if len(v.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range v.Points {
		sum += float64(p.Quality)
	}
	return sum / float64(len(v.Points))
}

// Fig6Result holds both variants.
type Fig6Result struct {
	Config      Fig6Config
	NoTriggers  Fig6Variant
	WithTrigger Fig6Variant
}

// RunFig6 executes both variants with identical workloads and timelines.
func RunFig6(cfg Fig6Config) (*Fig6Result, error) {
	if cfg.Agents <= 0 || cfg.Ops <= 0 {
		return nil, fmt.Errorf("fig6: need positive Agents and Ops")
	}
	res := &Fig6Result{Config: cfg}
	for _, withTrigger := range []bool{false, true} {
		v, err := runFig6Variant(cfg, withTrigger)
		if err != nil {
			return nil, err
		}
		if withTrigger {
			res.WithTrigger = *v
		} else {
			res.NoTriggers = *v
		}
	}
	return res, nil
}

func runFig6Variant(cfg Fig6Config, withTrigger bool) (*Fig6Variant, error) {
	dcfg := DeployConfig{
		Protocol:  ProtoFlecc,
		Agents:    cfg.Agents,
		GroupSize: cfg.Agents,
		Latency:   0, // message counting; time advances via OpSpacing
		Mode:      wire.Weak,
	}
	name := "no-triggers"
	if withTrigger {
		name = "with-pull-trigger"
		dcfg.PullTrigger = fmt.Sprintf("every(%d)", int64(cfg.TriggerPeriod))
	}
	d, err := NewDeployment(dcfg)
	if err != nil {
		return nil, err
	}
	defer d.Close()

	me := d.Agents[0]
	if withTrigger {
		if !me.CM.ScheduleTriggers(cfg.TickEvery) {
			return nil, fmt.Errorf("fig6: trigger scheduler did not start")
		}
	}
	flight := d.FirstFlightOf(0)
	v := &Fig6Variant{Name: name}
	d.Stats.Reset()

	for op := 0; op < cfg.Ops; op++ {
		// Advance the timeline, firing any scheduled trigger evaluations.
		d.Clock.RunUntil(d.Clock.Now() + cfg.OpSpacing)

		// Peers work and publish; their pushes are what the observed
		// agent fails to see while it does not pull.
		for _, peer := range d.Agents[1:] {
			if err := peer.CM.StartUse(); err != nil {
				return nil, err
			}
			if err := peer.ARS.ConfirmTickets(1, flight); err != nil {
				return nil, err
			}
			peer.CM.EndUse()
			if err := peer.CM.PushImage(); err != nil {
				return nil, err
			}
		}

		pulled := cfg.ExplicitPullEvery > 0 && op%cfg.ExplicitPullEvery == cfg.ExplicitPullEvery-1
		if pulled {
			if err := me.CM.PullImage(); err != nil {
				return nil, err
			}
		}
		quality := d.Quality(0)
		if err := me.CM.StartUse(); err != nil {
			return nil, err
		}
		if err := me.ARS.ConfirmTickets(1, flight); err != nil {
			return nil, err
		}
		me.CM.EndUse()
		v.Points = append(v.Points, Fig6Point{T: d.Clock.Now(), Quality: quality, Pulled: pulled})
	}
	me.CM.StopTriggers()
	v.Messages = d.Stats.Total()
	return v, nil
}

// Table renders the per-call quality series for both variants side by
// side.
func (r *Fig6Result) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Figure 6 — remote unseen updates per method call (%d agents, weak mode)", r.Config.Agents),
		"call", "no-triggers", "with-trigger")
	n := len(r.NoTriggers.Points)
	if len(r.WithTrigger.Points) > n {
		n = len(r.WithTrigger.Points)
	}
	for i := 0; i < n; i++ {
		var a, b string
		if i < len(r.NoTriggers.Points) {
			a = fmt.Sprint(r.NoTriggers.Points[i].Quality)
			if r.NoTriggers.Points[i].Pulled {
				a += "*"
			}
		}
		if i < len(r.WithTrigger.Points) {
			b = fmt.Sprint(r.WithTrigger.Points[i].Quality)
			if r.WithTrigger.Points[i].Pulled {
				b += "*"
			}
		}
		t.AddRow(i, a, b)
	}
	return t
}

// SummaryTable renders the headline comparison (the paper's "116 vs 182").
func (r *Fig6Result) SummaryTable() *metrics.Table {
	t := metrics.NewTable("Figure 6 — summary (quality improved, messages increased)",
		"variant", "messages", "mean-quality")
	t.AddRow(r.NoTriggers.Name, r.NoTriggers.Messages, fmt.Sprintf("%.2f", r.NoTriggers.MeanQuality()))
	t.AddRow(r.WithTrigger.Name, r.WithTrigger.Messages, fmt.Sprintf("%.2f", r.WithTrigger.MeanQuality()))
	return t
}

// WriteTo prints both tables.
func (r *Fig6Result) WriteTo(w io.Writer) (int64, error) {
	n1, err := r.SummaryTable().WriteTo(w)
	if err != nil {
		return n1, err
	}
	n2, err := r.Table().WriteTo(w)
	return n1 + n2, err
}

// CheckShape verifies the paper's claims: the trigger variant uses more
// messages and achieves strictly better (lower) average staleness.
func (r *Fig6Result) CheckShape() error {
	if r.WithTrigger.Messages <= r.NoTriggers.Messages {
		return fmt.Errorf("fig6: triggers should cost messages (%d vs %d)",
			r.WithTrigger.Messages, r.NoTriggers.Messages)
	}
	if r.WithTrigger.MeanQuality() >= r.NoTriggers.MeanQuality() {
		return fmt.Errorf("fig6: triggers should improve quality (%.2f vs %.2f unseen updates)",
			r.WithTrigger.MeanQuality(), r.NoTriggers.MeanQuality())
	}
	return nil
}
