package gompi

import (
	"fmt"
	"io"

	"gompi/internal/hist"
	"gompi/internal/metrics"
)

// WriteProm renders the snapshot in the Prometheus text exposition
// format: one summary per latency histogram (quantiles 0.5/0.9/0.99
// plus _sum and _count), counters for the transport paths and matching
// engine, and gauges for queue high waters and virtual cycles. Each
// series carries a rank label; rank="all" is the job-wide merge. Values
// are virtual cycles or counts — there is no wall-clock anywhere in the
// model.
func (s *Stats) WriteProm(w io.Writer) error {
	type lat struct {
		name string
		get  func(metrics.LatSnapshot) hist.Snapshot
	}
	lats := []lat{
		{"gompi_post_match_cycles", func(l metrics.LatSnapshot) hist.Snapshot { return l.PostMatch }},
		{"gompi_unexpected_residency_cycles", func(l metrics.LatSnapshot) hist.Snapshot { return l.UnexRes }},
		{"gompi_rendezvous_rtt_cycles", func(l metrics.LatSnapshot) hist.Snapshot { return l.RndvRTT }},
		{"gompi_request_lifetime_cycles", func(l metrics.LatSnapshot) hist.Snapshot { return l.ReqLife }},
		{"gompi_wait_park_cycles", func(l metrics.LatSnapshot) hist.Snapshot { return l.WaitPark }},
		{"gompi_rma_epoch_flush_cycles", func(l metrics.LatSnapshot) hist.Snapshot { return l.EpochFlush }},
		{"gompi_rma_notify_wait_cycles", func(l metrics.LatSnapshot) hist.Snapshot { return l.NotifyWait }},
	}
	agg := s.Aggregate()
	row := func(rank string, m metrics.Snapshot) {
		for _, l := range lats {
			h := l.get(m.Lat)
			fmt.Fprintf(w, "%s{rank=%q,quantile=\"0.5\"} %d\n", l.name, rank, h.P50)
			fmt.Fprintf(w, "%s{rank=%q,quantile=\"0.9\"} %d\n", l.name, rank, h.P90)
			fmt.Fprintf(w, "%s{rank=%q,quantile=\"0.99\"} %d\n", l.name, rank, h.P99)
			fmt.Fprintf(w, "%s_sum{rank=%q} %d\n", l.name, rank, h.Sum)
			fmt.Fprintf(w, "%s_count{rank=%q} %d\n", l.name, rank, h.Count)
		}
		paths := []struct {
			name string
			p    metrics.PathStat
		}{
			{"self", m.Self}, {"shm_send", m.ShmSend}, {"shm_recv", m.ShmRecv},
			{"net_send", m.NetSend}, {"net_recv", m.NetRecv},
			{"eager", m.Eager}, {"rendezvous", m.Rndv},
			{"am_send", m.AmSend}, {"am_recv", m.AmRecv},
		}
		for _, p := range paths {
			fmt.Fprintf(w, "gompi_path_msgs_total{rank=%q,path=%q} %d\n", rank, p.name, p.p.Msgs)
			fmt.Fprintf(w, "gompi_path_bytes_total{rank=%q,path=%q} %d\n", rank, p.name, p.p.Bytes)
		}
		rmaOps := []struct {
			name string
			n    int64
		}{
			{"put", m.Rma.Puts}, {"get", m.Rma.Gets}, {"accumulate", m.Rma.Accs},
			{"get_accumulate", m.Rma.GetAccs}, {"flush", m.Rma.Flushes},
			{"lock_all", m.Rma.LockAlls}, {"notify", m.Rma.Notifies},
		}
		for _, o := range rmaOps {
			fmt.Fprintf(w, "gompi_rma_ops_total{rank=%q,op=%q} %d\n", rank, o.name, o.n)
		}
		fmt.Fprintf(w, "gompi_match_searches_total{rank=%q} %d\n", rank, m.Match.Searches)
		fmt.Fprintf(w, "gompi_match_bin_ops_total{rank=%q} %d\n", rank, m.Match.BinOps)
		fmt.Fprintf(w, "gompi_unexpected_queue_max{rank=%q} %d\n", rank, m.Match.UnexpectedMax)
		fmt.Fprintf(w, "gompi_posted_queue_max{rank=%q} %d\n", rank, m.Match.PostedMax)
		fmt.Fprintf(w, "gompi_sched_cache_hits_total{rank=%q} %d\n", rank, m.Sched.CacheHits)
		fmt.Fprintf(w, "gompi_sched_cache_misses_total{rank=%q} %d\n", rank, m.Sched.CacheMisses)
		fmt.Fprintf(w, "gompi_partitions_ready_total{rank=%q} %d\n", rank, m.Sched.PartitionsReady)
		fmt.Fprintf(w, "gompi_parks_total{rank=%q} %d\n", rank, m.Parks)
	}
	fmt.Fprintln(w, "# TYPE gompi_post_match_cycles summary")
	fmt.Fprintln(w, "# TYPE gompi_unexpected_residency_cycles summary")
	fmt.Fprintln(w, "# TYPE gompi_rendezvous_rtt_cycles summary")
	fmt.Fprintln(w, "# TYPE gompi_request_lifetime_cycles summary")
	fmt.Fprintln(w, "# TYPE gompi_wait_park_cycles summary")
	fmt.Fprintln(w, "# TYPE gompi_rma_epoch_flush_cycles summary")
	fmt.Fprintln(w, "# TYPE gompi_rma_notify_wait_cycles summary")
	fmt.Fprintln(w, "# TYPE gompi_path_msgs_total counter")
	fmt.Fprintln(w, "# TYPE gompi_path_bytes_total counter")
	fmt.Fprintln(w, "# TYPE gompi_rma_ops_total counter")
	fmt.Fprintln(w, "# TYPE gompi_sched_cache_hits_total counter")
	fmt.Fprintln(w, "# TYPE gompi_sched_cache_misses_total counter")
	fmt.Fprintln(w, "# TYPE gompi_partitions_ready_total counter")
	fmt.Fprintln(w, "# TYPE gompi_parks_total counter")
	row("all", agg)
	for i := range s.Ranks {
		r := &s.Ranks[i]
		row(fmt.Sprintf("%d", r.Rank), r.Metrics)
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
