package experiments

import (
	"fmt"
	"io"

	"flecc/internal/metrics"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// Fig5Config parameterizes the adaptability experiment (paper Figure 5):
// "deploys ten conflicting travel agents connected to the main database,
// all running in the same LAN. Initially, they start in weak mode and
// execute in a loop the 'reserve tickets' operation. After that, the
// travel agents switch to strong mode, and execute the same set of
// operations. In the last phase, the travel agents switch back to weak.
// For this experiment, we measure the time to execute a method and the
// quality of the data used during the execution."
type Fig5Config struct {
	// Agents is the number of conflicting agents (paper: 10).
	Agents int
	// OpsPerPhase is how many reserve operations each agent performs in
	// each of the three phases.
	OpsPerPhase int
	// Latency is the LAN one-way latency in virtual ms; it is what makes
	// strong-mode operations visibly slower.
	Latency vclock.Duration
	// PushEvery makes agents push their pending updates every k-th
	// operation in weak mode (the paper's agents delegate pushing to a
	// time trigger; a deterministic op-count period keeps the figure
	// reproducible). Strong mode never needs pushes — invalidations carry
	// the updates.
	PushEvery int
}

// DefaultFig5 returns the paper's setting.
func DefaultFig5() Fig5Config {
	return Fig5Config{Agents: 10, OpsPerPhase: 10, Latency: 5, PushEvery: 5}
}

// Fig5Point is one observed operation.
type Fig5Point struct {
	// T is the virtual time at the start of the operation.
	T vclock.Time
	// Phase is "WEAK", "STRONG", or "WEAK2".
	Phase string
	// ExecTime is the simulated time the operation took (message round
	// trips for the pull plus any invalidations it caused).
	ExecTime vclock.Duration
	// Quality is the number of remote unseen updates at execution time
	// (0 = perfectly fresh).
	Quality int
}

// Fig5Result is the full timeline for one observed agent.
type Fig5Result struct {
	Config Fig5Config
	Points []Fig5Point
}

// RunFig5 executes the three-phase timeline and records, for agent 0,
// the per-operation execution time and data quality.
func RunFig5(cfg Fig5Config) (*Fig5Result, error) {
	if cfg.Agents <= 0 || cfg.OpsPerPhase <= 0 {
		return nil, fmt.Errorf("fig5: need positive Agents and OpsPerPhase")
	}
	if cfg.PushEvery <= 0 {
		cfg.PushEvery = 5
	}
	d, err := NewDeployment(DeployConfig{
		Protocol:  ProtoFlecc,
		Agents:    cfg.Agents,
		GroupSize: cfg.Agents, // all conflicting
		Latency:   cfg.Latency,
		Mode:      wire.Weak,
	})
	if err != nil {
		return nil, err
	}
	defer d.Close()

	res := &Fig5Result{Config: cfg}
	flight := d.FirstFlightOf(0)

	runPhase := func(phase string, mode wire.Mode) error {
		for _, a := range d.Agents {
			if a.CM.Mode() != mode {
				if err := a.CM.SetMode(mode); err != nil {
					return err
				}
			}
		}
		for op := 0; op < cfg.OpsPerPhase; op++ {
			for i, a := range d.Agents {
				start := d.Clock.Now()
				var quality int
				if i == 0 {
					// Quality of the data used during execution: sampled
					// after the pull, before the work.
					if err := a.CM.PullImage(); err != nil {
						return err
					}
					quality = d.Quality(0)
					if err := a.CM.StartUse(); err != nil {
						return err
					}
					if err := a.ARS.ConfirmTickets(1, flight); err != nil {
						return err
					}
					a.CM.EndUse()
				} else {
					if err := a.ReserveTickets(1, flight); err != nil {
						return err
					}
				}
				// The method execution ends here; the point is recorded
				// before the (background) publish below, which is not part
				// of the method's latency.
				if i == 0 {
					res.Points = append(res.Points, Fig5Point{
						T:        start,
						Phase:    phase,
						ExecTime: d.Clock.Now() - start,
						Quality:  quality,
					})
				}
				// Weak-mode agents publish every PushEvery ops; strong
				// mode moves data via invalidations.
				if mode == wire.Weak && (op+1)%cfg.PushEvery == 0 {
					if err := a.CM.PushImage(); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}

	if err := runPhase("WEAK", wire.Weak); err != nil {
		return nil, err
	}
	if err := runPhase("STRONG", wire.Strong); err != nil {
		return nil, err
	}
	if err := runPhase("WEAK2", wire.Weak); err != nil {
		return nil, err
	}
	return res, nil
}

// PhaseSummary aggregates a phase's points.
type PhaseSummary struct {
	Phase       string
	MeanExec    float64
	MaxExec     vclock.Duration
	MeanQuality float64
	MaxQuality  int
}

// Summaries aggregates the timeline per phase, in phase order.
func (r *Fig5Result) Summaries() []PhaseSummary {
	order := []string{"WEAK", "STRONG", "WEAK2"}
	out := make([]PhaseSummary, 0, 3)
	for _, phase := range order {
		var s PhaseSummary
		s.Phase = phase
		n := 0
		for _, p := range r.Points {
			if p.Phase != phase {
				continue
			}
			n++
			s.MeanExec += float64(p.ExecTime)
			s.MeanQuality += float64(p.Quality)
			if p.ExecTime > s.MaxExec {
				s.MaxExec = p.ExecTime
			}
			if p.Quality > s.MaxQuality {
				s.MaxQuality = p.Quality
			}
		}
		if n > 0 {
			s.MeanExec /= float64(n)
			s.MeanQuality /= float64(n)
		}
		out = append(out, s)
	}
	return out
}

// Table renders the per-operation timeline.
func (r *Fig5Result) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Figure 5 — execution time vs data quality across WEAK/STRONG/WEAK (%d agents, latency %v)",
			r.Config.Agents, r.Config.Latency),
		"t", "phase", "exec-ms", "quality")
	for _, p := range r.Points {
		t.AddRow(p.T, p.Phase, int64(p.ExecTime), p.Quality)
	}
	return t
}

// SummaryTable renders the per-phase aggregate.
func (r *Fig5Result) SummaryTable() *metrics.Table {
	t := metrics.NewTable("Figure 5 — per-phase summary",
		"phase", "mean-exec-ms", "max-exec-ms", "mean-quality", "max-quality")
	for _, s := range r.Summaries() {
		t.AddRow(s.Phase, fmt.Sprintf("%.1f", s.MeanExec), int64(s.MaxExec),
			fmt.Sprintf("%.1f", s.MeanQuality), s.MaxQuality)
	}
	return t
}

// WriteTo prints both tables.
func (r *Fig5Result) WriteTo(w io.Writer) (int64, error) {
	n1, err := r.SummaryTable().WriteTo(w)
	if err != nil {
		return n1, err
	}
	n2, err := r.Table().WriteTo(w)
	return n1 + n2, err
}

// CheckShape verifies the paper's qualitative claims: strong-mode
// operations are slower than weak-mode ones, strong-mode data quality is
// perfect (0 unseen updates), and weak-mode quality degrades (is worse
// than strong's).
func (r *Fig5Result) CheckShape() error {
	s := r.Summaries()
	weak, strong, weak2 := s[0], s[1], s[2]
	if strong.MeanExec <= weak.MeanExec {
		return fmt.Errorf("fig5: strong exec (%.1f) should exceed weak exec (%.1f)", strong.MeanExec, weak.MeanExec)
	}
	if strong.MeanExec <= weak2.MeanExec {
		return fmt.Errorf("fig5: strong exec (%.1f) should exceed weak2 exec (%.1f)", strong.MeanExec, weak2.MeanExec)
	}
	if strong.MaxQuality != 0 {
		return fmt.Errorf("fig5: strong mode must always use fresh data, max quality = %d", strong.MaxQuality)
	}
	if weak.MaxQuality == 0 && weak2.MaxQuality == 0 {
		return fmt.Errorf("fig5: weak phases should show stale data")
	}
	return nil
}
