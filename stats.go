package gompi

import (
	"encoding/json"
	"io"

	"gompi/internal/flight"
	"gompi/internal/metrics"
)

// MetricsSnapshot is the per-rank observability snapshot: message and
// byte counts by transport path (self/shm/netmod and eager/rendezvous),
// matching-engine statistics, queue high-water marks, buffer- and
// request-pool behavior, and RMA operation counts. The underlying
// counters are plain per-rank integers bumped on the hot paths — no
// locks, no allocation, no instruction charges — and are folded into
// this structure only when snapshotted.
type MetricsSnapshot = metrics.Snapshot

// RankStats is one rank's complete teardown snapshot.
type RankStats struct {
	Rank int `json:"rank"`
	// Valid marks a slot actually filled by a rank that ran its body to
	// completion. A rank that dies by panic leaves a zero slot with
	// Valid false; consumers doing cross-rank math (Stats.Efficiency)
	// must exclude such slots instead of reading 0 cycles as a
	// perfectly-idle rank.
	Valid    bool            `json:"valid"`
	Counters Counters        `json:"counters"`
	Metrics  MetricsSnapshot `json:"metrics"`
	// Phases is the rank's named phase-region table (PhaseBegin /
	// PhaseEnd), in first-entry order; empty when the body declared no
	// regions.
	Phases        []PhaseStats `json:"phases,omitempty"`
	TraceDropped  int64        `json:"trace_dropped,omitempty"`
	VirtualCycles int64        `json:"virtual_cycles"`
}

// Stats is a whole-job observability snapshot, filled at teardown when
// Config.Stats points at it (or via RunStats). Each rank writes its
// own slot as its body function returns; the slices are complete once
// Run returns. Ranks that die by panic leave a zero slot.
type Stats struct {
	// Hz is the model core frequency, for converting virtual cycles
	// to seconds.
	Hz float64 `json:"hz"`
	// Ranks holds one entry per rank, indexed by world rank.
	Ranks []RankStats `json:"ranks"`
	// WatchdogTrips counts stall-watchdog firings during the run (0 or
	// 1; only meaningful when Config.Watchdog was set).
	WatchdogTrips int64 `json:"watchdog_trips,omitempty"`

	// traces holds each rank's event log (empty unless Config.Trace
	// was set); exported only through WriteChromeTrace.
	traces [][]flight.Event
}

// Aggregate merges every rank's metrics into one job-wide snapshot:
// counters sum, high-water marks take the maximum. In a balanced run
// the aggregate's shm_send/shm_recv and net_send/net_recv byte totals
// are equal — bytes leave one rank's counter and arrive on another's.
func (s *Stats) Aggregate() MetricsSnapshot {
	var agg MetricsSnapshot
	for i := range s.Ranks {
		agg = agg.Merge(s.Ranks[i].Metrics)
	}
	return agg
}

// WriteJSON renders the snapshot as indented JSON.
func (s *Stats) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteChromeTrace renders the run's event logs as a Chrome-trace
// (catapult JSON) document loadable in chrome://tracing or Perfetto:
// one thread per rank, one complete event per MPI operation, with
// timestamps in microseconds of virtual time. The document is empty
// unless the run had Config.Trace set.
func (s *Stats) WriteChromeTrace(w io.Writer) error {
	return flight.WriteChrome(w, s.Hz, s.traces)
}

// TraceEvents returns one rank's recorded events (empty unless the run
// had Config.Trace set), for programmatic inspection.
func (s *Stats) TraceEvents(rank int) []TraceEvent {
	if rank < 0 || rank >= len(s.traces) {
		return nil
	}
	return s.traces[rank]
}

// RunStats runs an n-rank job like Run and returns the teardown
// snapshot alongside the job error. The snapshot is valid (possibly
// with zero slots for failed ranks) even when err is non-nil, except
// for configuration errors where no job ran.
func RunStats(n int, cfg Config, body func(p *Proc) error) (*Stats, error) {
	st := &Stats{}
	cfg.Stats = st
	err := Run(n, cfg, body)
	return st, err
}
