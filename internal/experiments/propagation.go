package experiments

import (
	"fmt"

	"flecc/internal/metrics"
	"flecc/internal/wire"
)

// --- Ablation E10: update distribution — pull-based vs push-based ----------
//
// Flecc distributes weak-mode updates on demand: a view learns of remote
// changes when it pulls (optionally gathered by validity triggers). The
// classic alternative is an update protocol: the directory manager
// forwards every committed push to the interested views immediately
// (Options.PropagateOnPush, carried by TUpdate messages). This ablation
// sweeps the write rate under a fixed read workload to expose the
// crossover: push-based distribution keeps readers perfectly fresh and is
// cheap when writes are rare, but its cost grows with writes × sharers,
// while pull-based cost tracks the read rate.

// PropagationRow is one swept point.
type PropagationRow struct {
	// Writes performed (and pushed) by the single writer.
	Writes int
	// Messages per variant.
	MessagesPull, MessagesPush int64
	// MeanStaleness is the average reader-side quality (unseen remote
	// updates at read time) per variant.
	StalenessPull, StalenessPush float64
}

// PropagationResult is the sweep outcome.
type PropagationResult struct {
	Readers, ReadsPerReader int
	Rows                    []PropagationRow
}

// PropagationConfig parameterizes the sweep.
type PropagationConfig struct {
	// Readers is the number of reading agents (plus one writer).
	Readers int
	// ReadsPerReader is the fixed read workload.
	ReadsPerReader int
	// WriteSweep lists the writer op counts to sweep.
	WriteSweep []int
}

// DefaultPropagation returns the documented default sweep.
func DefaultPropagation() PropagationConfig {
	return PropagationConfig{
		Readers:        5,
		ReadsPerReader: 10,
		WriteSweep:     []int{1, 5, 10, 20},
	}
}

// RunPropagation executes the sweep.
func RunPropagation(cfg PropagationConfig) (*PropagationResult, error) {
	if cfg.Readers <= 0 || cfg.ReadsPerReader <= 0 || len(cfg.WriteSweep) == 0 {
		return nil, fmt.Errorf("propagation: need positive Readers/ReadsPerReader and a sweep")
	}
	res := &PropagationResult{Readers: cfg.Readers, ReadsPerReader: cfg.ReadsPerReader}
	for _, w := range cfg.WriteSweep {
		row := PropagationRow{Writes: w}
		for _, pushBased := range []bool{false, true} {
			msgs, stale, err := runPropagationOnce(cfg, w, pushBased)
			if err != nil {
				return nil, fmt.Errorf("propagation w=%d push=%v: %w", w, pushBased, err)
			}
			if pushBased {
				row.MessagesPush = msgs
				row.StalenessPush = stale
			} else {
				row.MessagesPull = msgs
				row.StalenessPull = stale
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runPropagationOnce(cfg PropagationConfig, writes int, pushBased bool) (int64, float64, error) {
	d, err := NewDeployment(DeployConfig{
		Protocol:        ProtoFlecc,
		Agents:          cfg.Readers + 1,
		GroupSize:       cfg.Readers + 1,
		FlightsPerGroup: 5,
		Mode:            wire.Weak,
		PropagateOnPush: pushBased,
	})
	if err != nil {
		return 0, 0, err
	}
	defer d.Close()
	d.Stats.Reset()

	writer := d.Agents[0]
	readers := d.Agents[1:]
	flight := d.FirstFlightOf(0)

	// Interleave: spread the writes evenly across the read rounds.
	totalRounds := cfg.ReadsPerReader
	writesDone := 0
	staleSamples := 0
	staleTotal := 0.0
	for round := 0; round < totalRounds; round++ {
		// Writer's share of this round.
		due := (round + 1) * writes / totalRounds
		for writesDone < due {
			if err := writer.CM.StartUse(); err != nil {
				return 0, 0, err
			}
			if err := writer.ARS.ConfirmTickets(1, flight); err != nil {
				return 0, 0, err
			}
			writer.CM.EndUse()
			if err := writer.CM.PushImage(); err != nil {
				return 0, 0, err
			}
			writesDone++
		}
		for ri, rd := range readers {
			if !pushBased {
				// Pull-based readers refresh explicitly before reading.
				if err := rd.CM.PullImage(); err != nil {
					return 0, 0, err
				}
			}
			// Staleness of the data used for the read.
			staleTotal += float64(d.Quality(1 + ri))
			staleSamples++
			if err := rd.CM.StartUse(); err != nil {
				return 0, 0, err
			}
			rd.ARS.Browse("", "")
			rd.CM.EndUse()
			// Reads do not modify data and must not count as pending
			// updates against the other readers' staleness samples; an
			// (empty, message-free) push clears the use counter.
			if err := rd.CM.PushImage(); err != nil {
				return 0, 0, err
			}
		}
	}
	mean := 0.0
	if staleSamples > 0 {
		mean = staleTotal / float64(staleSamples)
	}
	return d.Stats.Total(), mean, nil
}

// Table renders the sweep.
func (r *PropagationResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("E10 — update distribution: pull-based vs push-based (%d readers × %d reads)",
			r.Readers, r.ReadsPerReader),
		"writes", "pull-msgs", "push-msgs", "pull-staleness", "push-staleness")
	for _, row := range r.Rows {
		t.AddRow(row.Writes, row.MessagesPull, row.MessagesPush,
			fmt.Sprintf("%.2f", row.StalenessPull), fmt.Sprintf("%.2f", row.StalenessPush))
	}
	return t
}

// CheckShape verifies the ablation's claims: push-based readers are always
// perfectly fresh; push-based cost grows with the write rate while
// pull-based cost stays (nearly) flat; and the cost ordering crosses over
// somewhere in the sweep (push cheaper at the low-write end, pull cheaper
// at the high-write end).
func (r *PropagationResult) CheckShape() error {
	for _, row := range r.Rows {
		if row.StalenessPush != 0 {
			return fmt.Errorf("propagation: push-based staleness should be 0, got %.2f at w=%d",
				row.StalenessPush, row.Writes)
		}
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.MessagesPush <= first.MessagesPush {
		return fmt.Errorf("propagation: push cost should grow with writes (%d -> %d)",
			first.MessagesPush, last.MessagesPush)
	}
	if first.MessagesPush >= first.MessagesPull {
		return fmt.Errorf("propagation: with rare writes push (%d) should beat pull (%d)",
			first.MessagesPush, first.MessagesPull)
	}
	if last.MessagesPush <= last.MessagesPull {
		return fmt.Errorf("propagation: with frequent writes pull (%d) should beat push (%d)",
			last.MessagesPull, last.MessagesPush)
	}
	return nil
}
