package gompi

import (
	"encoding/json"
	"io"

	"gompi/internal/pop"
)

// EfficiencyReport is the POP parallel-efficiency hierarchy of one run:
// Parallel Efficiency factored into Load Balance and Communication
// Efficiency, the latter split into Serialization and Transfer
// efficiency, each in [0,1], plus one such hierarchy per named phase
// region. See internal/pop for the model and DESIGN.md §6h for the
// mapping from each metric to the counters it is derived from.
type EfficiencyReport = pop.Report

// EfficiencyMetrics is one level of the hierarchy (the five
// efficiencies): the run's, and each phase row's.
type EfficiencyMetrics = pop.Metrics

// Efficiency computes the POP efficiency hierarchy from the run's
// per-rank cycle totals: useful = application-compute cycles, transport
// = fabric/shm data-movement cycles, runtime = the slowest rank's
// virtual clock. Slots left invalid by ranks that died by panic are
// excluded (Report.Excluded counts them). Phase rows are built from the
// ranks' PhaseBegin/PhaseEnd tables, keyed by name.
func (s *Stats) Efficiency() EfficiencyReport {
	ranks := make([]pop.Rank, len(s.Ranks))
	for i := range s.Ranks {
		r := &s.Ranks[i]
		ranks[i] = pop.Rank{
			Valid:     r.Valid,
			Total:     r.VirtualCycles,
			Useful:    r.Counters.Compute,
			Transport: r.Counters.Transport,
		}
	}
	// Phase tables are per-rank; join them by name, preserving the
	// first-seen order across ranks so reports are stable.
	idx := map[string]int{}
	var phases []pop.PhaseInput
	for i := range s.Ranks {
		r := &s.Ranks[i]
		if !r.Valid {
			continue
		}
		for _, ph := range r.Phases {
			j, ok := idx[ph.Name]
			if !ok {
				j = len(phases)
				idx[ph.Name] = j
				phases = append(phases, pop.PhaseInput{
					Name:  ph.Name,
					Ranks: make([]pop.Rank, len(s.Ranks)),
				})
			}
			phases[j].Calls += ph.Calls
			phases[j].Ranks[i] = pop.Rank{
				Valid:     true,
				Total:     ph.Cycles,
				Useful:    ph.UsefulCycles,
				Transport: ph.TransportCycles,
			}
		}
	}
	return pop.Build(ranks, phases)
}

// WriteEfficiencyReport renders the POP hierarchy as an aligned text
// table: the run-level factorization followed by one row per phase.
func (s *Stats) WriteEfficiencyReport(w io.Writer) error {
	return s.Efficiency().WriteTable(w)
}

// WriteEfficiencyJSON renders the same report as indented JSON, the
// machine-readable twin of WriteEfficiencyReport (`go run ./cmd/stats
// -report` prints the table form).
func (s *Stats) WriteEfficiencyJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Efficiency())
}
