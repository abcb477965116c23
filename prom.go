package gompi

import (
	"fmt"
	"io"
	"strings"

	"gompi/internal/hist"
	"gompi/internal/metrics"
)

// WriteProm renders the snapshot in the Prometheus text exposition
// format, walking the registry's own lists (metrics.Snapshot.Each): one
// summary per latency histogram (quantiles 0.5/0.9/0.99 plus _sum and
// _count), a counter (_total) or gauge for every counter of
// metrics.Counts — the transport and copy paths, matching, the buffer
// and request pools, one-sided operations, peer state, schedules and
// parks — then per-rank virtual cycles, watchdog trips and the POP
// efficiency gauges. The per-VCI and per-algorithm splits (VCIs, Coll)
// are not exported. Each registry series carries a rank label;
// rank="all" is the job-wide merge. Values are virtual cycles or
// counts — there is no wall-clock anywhere in the model.
func (s *Stats) WriteProm(w io.Writer) error {
	agg := s.Aggregate()
	typed := map[string]bool{}
	agg.Each(func(name string, _ hist.Snapshot) {
		fmt.Fprintf(w, "# TYPE %s summary\n", name)
	}, func(c metrics.Series, _ int64) {
		if !typed[c.Name] {
			typed[c.Name] = true
			kind := "gauge"
			if strings.HasSuffix(c.Name, "_total") {
				kind = "counter"
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", c.Name, kind)
		}
	})
	row := func(rank string, m *metrics.Snapshot) {
		m.Each(func(name string, h hist.Snapshot) {
			fmt.Fprintf(w, "%s{rank=%q,quantile=\"0.5\"} %d\n", name, rank, h.P50)
			fmt.Fprintf(w, "%s{rank=%q,quantile=\"0.9\"} %d\n", name, rank, h.P90)
			fmt.Fprintf(w, "%s{rank=%q,quantile=\"0.99\"} %d\n", name, rank, h.P99)
			fmt.Fprintf(w, "%s_sum{rank=%q} %d\n", name, rank, h.Sum)
			fmt.Fprintf(w, "%s_count{rank=%q} %d\n", name, rank, h.Count)
		}, func(c metrics.Series, v int64) {
			if c.Label == "" {
				fmt.Fprintf(w, "%s{rank=%q} %d\n", c.Name, rank, v)
			} else {
				fmt.Fprintf(w, "%s{rank=%q,%s=%q} %d\n", c.Name, rank, c.Label, c.Value, v)
			}
		})
	}
	row("all", &agg)
	for i := range s.Ranks {
		r := &s.Ranks[i]
		row(fmt.Sprintf("%d", r.Rank), &r.Metrics)
		fmt.Fprintf(w, "gompi_virtual_cycles{rank=\"%d\"} %d\n", r.Rank, r.VirtualCycles)
	}
	fmt.Fprintf(w, "gompi_watchdog_trips_total %d\n", s.WatchdogTrips)

	// POP efficiency hierarchy: run-level gauges, plus one series per
	// named phase region. Values are dimensionless fractions in [0,1].
	eff := s.Efficiency()
	gauges := []struct {
		name string
		get  func(m EfficiencyMetrics) float64
	}{
		{"gompi_efficiency_parallel", func(m EfficiencyMetrics) float64 { return m.ParallelEff }},
		{"gompi_efficiency_load_balance", func(m EfficiencyMetrics) float64 { return m.LoadBalance }},
		{"gompi_efficiency_communication", func(m EfficiencyMetrics) float64 { return m.CommEff }},
		{"gompi_efficiency_serialization", func(m EfficiencyMetrics) float64 { return m.SerEff }},
		{"gompi_efficiency_transfer", func(m EfficiencyMetrics) float64 { return m.TransferEff }},
	}
	for _, g := range gauges {
		fmt.Fprintf(w, "# TYPE %s gauge\n", g.name)
		fmt.Fprintf(w, "%s %g\n", g.name, g.get(eff.Metrics))
		for _, ph := range eff.Phases {
			fmt.Fprintf(w, "%s{phase=%q} %g\n", g.name, ph.Name, g.get(ph.Metrics))
		}
	}
	return nil
}
