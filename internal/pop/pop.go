// Package pop computes the POP (Performance Optimisation and
// Productivity centre-of-excellence) parallel-efficiency hierarchy from
// per-rank virtual-cycle totals — the model pypop applies to real MPI
// traces, applied here to gompi's deterministic clocks.
//
// The hierarchy factors one run's quality into multiplicative terms,
// each structurally in [0,1]:
//
//	Parallel Efficiency   PE = LB × CommE
//	Load Balance          LB = avg(useful) / max(useful)
//	Communication Eff  CommE = max(useful) / runtime
//	                         = SerE × TE
//	Serialization Eff   SerE = max(useful) / ideal runtime
//	Transfer Eff          TE = ideal runtime / runtime
//
// where useful is a rank's application-compute cycles, runtime is the
// slowest rank's total virtual cycles, and the ideal runtime is the
// slowest rank's cycles with its transport (injection/delivery) charges
// removed — the run replayed on an instantaneous network, which is the
// Dimemas ideal-network simulation POP obtains by re-simulation and
// gompi gets for free from its additive cost model. Low LB means work
// is unevenly divided; low SerE means ranks wait on each other's
// progress even with free data transfer (dependency serialization);
// low TE means the cycles spent moving bytes are themselves the
// bottleneck.
//
// These are the per-run terms only. POP's cross-run term, Computation
// Scaling (and the Global Efficiency built on it), compares total useful
// work between runs at different scales; nothing here computes it.
package pop

import (
	"fmt"
	"io"
)

// Rank is one process's attributed cycle totals, the model's inputs.
type Rank struct {
	// Valid marks a slot that was actually filled by a finished rank;
	// ranks that died by panic leave zero slots, which must be excluded
	// rather than read as perfectly-idle ranks (a zero-useful rank
	// would otherwise drag Load Balance toward zero).
	Valid bool
	// Total is the rank's runtime in virtual cycles (its clock at
	// teardown, including time it spent parked waiting on peers).
	Total int64
	// Useful is the rank's application-compute cycles — time spent
	// outside MPI and its transports.
	Useful int64
	// Transport is the rank's fabric/shm injection and delivery cycles:
	// the pure data-movement cost an instantaneous network would erase.
	Transport int64
}

// Metrics is one level of the POP hierarchy: the five per-run
// efficiencies, each in [0,1].
type Metrics struct {
	LoadBalance float64 `json:"load_balance"`
	CommEff     float64 `json:"communication_efficiency"`
	SerEff      float64 `json:"serialization_efficiency"`
	TransferEff float64 `json:"transfer_efficiency"`
	ParallelEff float64 `json:"parallel_efficiency"`
}

// Compute derives the POP metrics from per-rank totals. Invalid slots
// are excluded. With no valid ranks every metric is zero; with no
// useful cycles at all (a pure-communication run) Load Balance is 1 by
// convention — nothing is imbalanced — and the communication terms
// other than Transfer Efficiency are 0.
func Compute(ranks []Rank) Metrics {
	var (
		n                   int
		sumUseful           int64
		maxUseful, maxTotal int64
		maxIdeal            int64
	)
	for _, r := range ranks {
		if !r.Valid {
			continue
		}
		n++
		sumUseful += r.Useful
		if r.Useful > maxUseful {
			maxUseful = r.Useful
		}
		if r.Total > maxTotal {
			maxTotal = r.Total
		}
		ideal := r.Total - r.Transport
		if ideal < r.Useful {
			// Defensive clamp: transport can never have eaten into the
			// rank's own compute cycles.
			ideal = r.Useful
		}
		if ideal > maxIdeal {
			maxIdeal = ideal
		}
	}
	if n == 0 {
		return Metrics{}
	}
	m := Metrics{LoadBalance: 1, TransferEff: 1}
	if maxUseful > 0 {
		m.LoadBalance = float64(sumUseful) / float64(n) / float64(maxUseful)
	}
	if maxTotal > 0 {
		m.CommEff = float64(maxUseful) / float64(maxTotal)
		m.TransferEff = float64(maxIdeal) / float64(maxTotal)
	}
	if maxIdeal > 0 {
		m.SerEff = float64(maxUseful) / float64(maxIdeal)
	}
	m.ParallelEff = m.LoadBalance * m.CommEff
	return m
}

// PhaseInput is one named application region's per-rank totals: the
// region's cycles attributed the same way as the whole run's. A rank
// that never entered the phase contributes an invalid slot.
type PhaseInput struct {
	Name  string
	Calls int64 // total entries across ranks
	Ranks []Rank
}

// PhaseReport is the efficiency hierarchy of one application region.
type PhaseReport struct {
	Name string `json:"name"`
	// Calls is the total number of times ranks entered the phase.
	Calls int64 `json:"calls"`
	// Ranks is how many valid ranks entered the phase.
	Ranks int `json:"ranks"`
	// RuntimeCycles is the slowest rank's cycles inside the phase.
	RuntimeCycles int64 `json:"runtime_cycles"`
	// UsefulCycles / TransportCycles sum the phase's attributed cycles
	// across ranks.
	UsefulCycles    int64 `json:"useful_cycles"`
	TransportCycles int64 `json:"transport_cycles"`
	Metrics
}

// Report is a whole run's efficiency hierarchy plus its per-phase
// breakdown.
type Report struct {
	// Ranks is the number of valid ranks the metrics are computed over;
	// Excluded counts zero slots left by ranks that died by panic.
	Ranks    int `json:"ranks"`
	Excluded int `json:"excluded,omitempty"`
	// RuntimeCycles is the slowest valid rank's total virtual cycles.
	RuntimeCycles int64 `json:"runtime_cycles"`
	// AvgUsefulCycles / MaxUsefulCycles are the Load Balance operands.
	AvgUsefulCycles float64 `json:"avg_useful_cycles"`
	MaxUsefulCycles int64   `json:"max_useful_cycles"`
	// TransportCycles is the total transfer cost across valid ranks.
	TransportCycles int64 `json:"transport_cycles"`
	Metrics
	// Phases holds per-region hierarchies, in first-entry order of the
	// lowest-ranked process that named them.
	Phases []PhaseReport `json:"phases,omitempty"`
}

// Build assembles the full report: run-level metrics from ranks,
// phase-level metrics from each phase's own per-rank totals.
func Build(ranks []Rank, phases []PhaseInput) Report {
	rep := Report{Metrics: Compute(ranks)}
	for _, r := range ranks {
		if !r.Valid {
			rep.Excluded++
			continue
		}
		rep.Ranks++
		rep.AvgUsefulCycles += float64(r.Useful)
		rep.TransportCycles += r.Transport
		if r.Useful > rep.MaxUsefulCycles {
			rep.MaxUsefulCycles = r.Useful
		}
		if r.Total > rep.RuntimeCycles {
			rep.RuntimeCycles = r.Total
		}
	}
	if rep.Ranks > 0 {
		rep.AvgUsefulCycles /= float64(rep.Ranks)
	}
	for _, ph := range phases {
		pr := PhaseReport{Name: ph.Name, Calls: ph.Calls, Metrics: Compute(ph.Ranks)}
		for _, r := range ph.Ranks {
			if !r.Valid {
				continue
			}
			pr.Ranks++
			pr.UsefulCycles += r.Useful
			pr.TransportCycles += r.Transport
			if r.Total > pr.RuntimeCycles {
				pr.RuntimeCycles = r.Total
			}
		}
		rep.Phases = append(rep.Phases, pr)
	}
	return rep
}

// WriteTable renders the report as an aligned text table: one header
// block with the run-level hierarchy, then one row per phase.
func (r Report) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"POP efficiency (over %d rank(s)%s)\n"+
			"  Parallel Efficiency      %6.3f\n"+
			"    Load Balance           %6.3f   (avg useful %.0f / max useful %d cycles)\n"+
			"    Communication Eff      %6.3f   (runtime %d cycles)\n"+
			"      Serialization Eff    %6.3f\n"+
			"      Transfer Eff         %6.3f   (transport %d cycles total)\n",
		r.Ranks, excludedNote(r.Excluded),
		r.ParallelEff, r.LoadBalance, r.AvgUsefulCycles, r.MaxUsefulCycles,
		r.CommEff, r.RuntimeCycles, r.SerEff, r.TransferEff, r.TransportCycles); err != nil {
		return err
	}
	if len(r.Phases) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "%-16s %6s %6s %12s %8s %8s %8s %8s %8s\n",
		"phase", "calls", "ranks", "cycles", "PE", "LB", "CommE", "SerE", "TE"); err != nil {
		return err
	}
	for _, p := range r.Phases {
		if _, err := fmt.Fprintf(w, "%-16s %6d %6d %12d %8.3f %8.3f %8.3f %8.3f %8.3f\n",
			p.Name, p.Calls, p.Ranks, p.RuntimeCycles,
			p.ParallelEff, p.LoadBalance, p.CommEff, p.SerEff, p.TransferEff); err != nil {
			return err
		}
	}
	return nil
}

func excludedNote(n int) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprintf(", %d dead slot(s) excluded", n)
}
