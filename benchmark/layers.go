package main

import (
	"gompi/internal/hist"
)

// metricDef is one row of BENCHMARK.json. Per-layer rows have no bound.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is what a user of the simulator sees, per workload. Each is
// measured with tracing off. A bound is one number for all seven
// workloads, so it is set by the least steady of them over ten seeds
// (RESULTS.md): pt2pt_large for host time (5-9 %), app_md for virtual
// time, whose trajectory and so its message sizes follow the seed
// (2.6 %), and for heap, where two seeds in ten grow a pool size class.
var endToEnd = []metricDef{
	{"wall_ns_per_op", "ns", "lower", 0.25},
	{"virt_us_per_op", "virt_us", "lower", 0.08},
	{"instr_per_op", "instr", "lower", 0.005},
	{"host_heap_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is every per-layer metric, in the order it is printed.
// README.md tables the end-to-end metric and workload each should move.
var perLayer = []metricDef{
	// boundary spans of the traced trial (gompi public API)
	{"api.isend_ns", "ns", "lower", 0},
	{"api.irecv_ns", "ns", "lower", 0},
	{"api.waitall_ns", "ns", "lower", 0},
	{"api.put_ns", "ns", "lower", 0},
	{"api.flush_ns", "ns", "lower", 0},
	{"api.allreduce_ns", "ns", "lower", 0},
	{"api.bcast_ns", "ns", "lower", 0},
	{"api.iallreduce_ns", "ns", "lower", 0},
	{"api.pcoll_init_us", "us", "lower", 0},
	{"api.pcoll_replay_ns", "ns", "lower", 0},
	{"api.launch_s", "s", "lower", 0},
	{"api.first_touch_s", "s", "lower", 0},
	{"api.teardown_s", "s", "lower", 0},
	{"app.self_ns", "ns", "lower", 0},
	// counts the program already exports, as deltas over the timed region
	{"instr.error_check", "instr", "lower", 0},
	{"instr.thread_check", "instr", "lower", 0},
	{"instr.call", "instr", "lower", 0},
	{"instr.redundant", "instr", "lower", 0},
	{"instr.mandatory", "instr", "lower", 0},
	{"instr.transport_cycles", "cycles", "lower", 0},
	{"path.net_share", "ratio", "higher", 0},
	{"path.shm_share", "ratio", "higher", 0},
	{"path.eager_share", "ratio", "higher", 0},
	{"path.rndv_share", "ratio", "higher", 0},
	{"path.handoff_share", "ratio", "higher", 0},
	{"match.searches_per_msg", "count", "lower", 0},
	{"match.bin_hit_ratio", "ratio", "higher", 0},
	{"match.unexpected_ratio", "ratio", "lower", 0},
	{"fabric.pool_hit_ratio", "ratio", "higher", 0},
	{"request.reuse_ratio", "ratio", "higher", 0},
	{"shm.copies_staged_per_op", "count", "lower", 0},
	{"shm.copies_direct_per_op", "count", "lower", 0},
	{"nbc.cache_hit_ratio", "ratio", "higher", 0},
	{"coll.algo_calls", "count", "lower", 0},
	{"rma.puts_per_op", "count", "lower", 0},
	{"rma.flushes_per_op", "count", "lower", 0},
	{"peers.touched_per_rank", "count", "lower", 0},
	{"peers.state_bytes_per_rank", "B", "lower", 0},
	{"lat.post_match_p50_cycles", "cycles", "lower", 0},
	{"lat.wait_park_p99_cycles", "cycles", "lower", 0},
	{"lat.rndv_rtt_p50_cycles", "cycles", "lower", 0},
	{"lat.handoff_rtt_p50_cycles", "cycles", "lower", 0},
	{"lat.epoch_flush_p50_cycles", "cycles", "lower", 0},
	{"pop.parallel_eff", "ratio", "higher", 0},
	{"pop.comm_eff", "ratio", "higher", 0},
	{"pop.load_balance", "ratio", "higher", 0},
	// layer ladder: isolated probes, best of ladderRounds
	{"match.post_arrive_ns", "ns", "lower", 0},
	{"match.post_arrive_d1024_ns", "ns", "lower", 0},
	{"match.wild_d1024_ns", "ns", "lower", 0},
	{"fabric.eager_ns", "ns", "lower", 0},
	{"fabric.eager_allocs", "count", "lower", 0},
	{"fabric.rndv_256k_ns", "ns", "lower", 0},
	{"fabric.rndv_256k_allocs", "count", "lower", 0},
	{"shm.cell_ns", "ns", "lower", 0},
	{"shm.cell_allocs", "count", "lower", 0},
	{"shm.handoff_256k_ns", "ns", "lower", 0},
	{"shm.handoff_256k_allocs", "count", "lower", 0},
	{"shm.progress_idle_n16_ns", "ns", "lower", 0},
	{"shm.progress_idle_n1024_ns", "ns", "lower", 0},
	{"ch4.pair_ns", "ns", "lower", 0},
	{"ch4.pair_allocs", "count", "lower", 0},
	{"original.pair_ns", "ns", "lower", 0},
	{"original.pair_allocs", "count", "lower", 0},
	{"request.get_free_ns", "ns", "lower", 0},
	{"request.get_free_allocs", "count", "lower", 0},
	{"datatype.pack_vector_mbps", "MB/s", "higher", 0},
	{"datatype.unpack_vector_mbps", "MB/s", "higher", 0},
	{"coll.apply_sum_f64_mbps", "MB/s", "higher", 0},
	{"instr.charge_ns", "ns", "lower", 0},
	{"hist.observe_ns", "ns", "lower", 0},
	{"flight.record_ns", "ns", "lower", 0},
	{"metrics.note_ns", "ns", "lower", 0},
	// host costs the contract cannot bound relatively (0 on rma_put,
	// one workload only) and the harness's own numbers
	{"host.allocs_per_op", "count", "lower", 0},
	{"scale.wall_exp", "ratio", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.rounds", "count", "higher", 0},
	{"bench.wall_median_ns", "ns", "lower", 0},
	{"bench.wall_iqr_pct", "%", "lower", 0},
	{"bench.wall_raw_ns", "ns", "lower", 0},
	{"bench.host_slowdown", "ratio", "lower", 0},
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// deltaPercentile is the p-th percentile of the observations a
// histogram gained between two snapshots: the upper bound of the log2
// bucket holding it, as hist reports percentiles.
func deltaPercentile(after, before hist.Snapshot, p float64) float64 {
	var total int64
	var d [hist.NumBuckets]int64
	for i := range d {
		d[i] = after.Buckets[i] - before.Buckets[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	target := int64(float64(total)*p/100 + 0.9999999)
	var cum int64
	for i, c := range d {
		if cum += c; cum >= target {
			if i == 0 {
				return 1
			}
			return float64(int64(1) << uint(i))
		}
	}
	return float64(after.Max)
}

// layerMetrics reads the span and count metrics off one traced trial.
// Span times are divided by the trial's mean slowdown, like every host
// time the benchmark reports (calib.go).
func layerMetrics(t *trial, m map[string]float64) {
	pl := t.pl
	slow := t.rawNs / t.wallNs
	sum := summarize(t.tracers, pl.firstTimed(), pl.firstTimed()+pl.steps)
	for id, name := range map[spanID]string{
		spIsend: "api.isend_ns", spIrecv: "api.irecv_ns", spWaitall: "api.waitall_ns",
		spPut: "api.put_ns", spFlush: "api.flush_ns", spAllreduce: "api.allreduce_ns",
		spBcast: "api.bcast_ns", spIallreduce: "api.iallreduce_ns", spPcollReplay: "api.pcoll_replay_ns",
	} {
		m[name] = sum.p50[id] / slow
	}
	// The persistent collective is bound once per rank, before step 0.
	m["api.pcoll_init_us"] = summarize(t.tracers, 0, 1).p50[spPcollInit] / 1e3 / t.slow
	m["api.launch_s"] = t.launchS
	m["api.first_touch_s"] = t.setupS - t.launchS
	m["api.teardown_s"] = t.teardownS
	m["app.self_ns"] = sum.selfNs / float64(pl.opsPerStep) / slow

	ops := t.opsRank()
	m["instr.error_check"] = float64(t.ctr.ErrorCheck) / ops
	m["instr.thread_check"] = float64(t.ctr.ThreadCheck) / ops
	m["instr.call"] = float64(t.ctr.Call) / ops
	m["instr.redundant"] = float64(t.ctr.Redundant) / ops
	m["instr.mandatory"] = float64(t.ctr.Mandatory) / ops
	m["instr.transport_cycles"] = float64(t.ctr.Transport) / ops

	a, b := t.after, t.before
	net := a.NetSend.Msgs - b.NetSend.Msgs
	shmMsgs := a.ShmSend.Msgs - b.ShmSend.Msgs
	msgs := net + shmMsgs + a.Self.Msgs - b.Self.Msgs
	m["path.net_share"] = ratio(net, msgs)
	m["path.shm_share"] = ratio(shmMsgs, msgs)
	m["path.eager_share"] = ratio(a.Eager.Msgs-b.Eager.Msgs, msgs)
	m["path.rndv_share"] = ratio(a.Rndv.Msgs-b.Rndv.Msgs, msgs)
	m["path.handoff_share"] = ratio(a.ShmHandoff.Msgs-b.ShmHandoff.Msgs, msgs)

	// One-sided ops are not messages: on rma_put the searches divide
	// by the puts instead.
	perMsg := msgs
	if perMsg == 0 {
		perMsg = int64(t.opsTotal())
	}
	m["match.searches_per_msg"] = ratio(a.Match.Searches-b.Match.Searches, perMsg)
	bin, wild := a.Match.BinHits-b.Match.BinHits, a.Match.WildHits-b.Match.WildHits
	m["match.bin_hit_ratio"] = ratio(bin, bin+wild)
	// Every matched message observes its unexpected-queue residency, 0
	// when its receive was already posted.
	res := a.Lat.UnexRes.Count - b.Lat.UnexRes.Count
	m["match.unexpected_ratio"] = ratio(res-(a.Lat.UnexRes.Buckets[0]-b.Lat.UnexRes.Buckets[0]), res)

	var hits, misses int64
	for i := range a.Pool.Hits {
		hits += a.Pool.Hits[i] - b.Pool.Hits[i]
		misses += a.Pool.Misses[i] - b.Pool.Misses[i]
	}
	m["fabric.pool_hit_ratio"] = ratio(hits, hits+misses)
	m["request.reuse_ratio"] = ratio(a.Req.Reuses-b.Req.Reuses, a.Req.Allocs-b.Req.Allocs)

	total := t.opsTotal()
	m["shm.copies_staged_per_op"] = float64(a.CopiesStaged.Msgs-b.CopiesStaged.Msgs) / total
	m["shm.copies_direct_per_op"] = float64(a.CopiesDirect.Msgs-b.CopiesDirect.Msgs) / total
	ch, cm := a.Sched.CacheHits-b.Sched.CacheHits, a.Sched.CacheMisses-b.Sched.CacheMisses
	m["nbc.cache_hit_ratio"] = ratio(ch, ch+cm)
	var calls int64
	for i := range a.Coll {
		calls += a.Coll[i].Calls
		if i < len(b.Coll) {
			calls -= b.Coll[i].Calls
		}
	}
	m["coll.algo_calls"] = float64(calls) / float64(pl.ranks) / ops
	m["rma.puts_per_op"] = float64(a.Rma.Puts-b.Rma.Puts) / total
	m["rma.flushes_per_op"] = float64(a.Rma.Flushes-b.Rma.Flushes) / total
	m["peers.touched_per_rank"] = float64(a.Peers.Touched) / float64(pl.ranks)
	m["peers.state_bytes_per_rank"] = float64(a.Peers.StateBytes) / float64(pl.ranks)

	m["lat.post_match_p50_cycles"] = deltaPercentile(a.Lat.PostMatch, b.Lat.PostMatch, 50)
	m["lat.wait_park_p99_cycles"] = deltaPercentile(a.Lat.WaitPark, b.Lat.WaitPark, 99)
	m["lat.rndv_rtt_p50_cycles"] = deltaPercentile(a.Lat.RndvRTT, b.Lat.RndvRTT, 50)
	m["lat.handoff_rtt_p50_cycles"] = deltaPercentile(a.Lat.HandoffRTT, b.Lat.HandoffRTT, 50)
	m["lat.epoch_flush_p50_cycles"] = deltaPercentile(a.Lat.EpochFlush, b.Lat.EpochFlush, 50)

	// POP factors cover the whole launch; Config.Stats is filled at
	// teardown only.
	eff := t.stats.Efficiency()
	m["pop.parallel_eff"] = eff.ParallelEff
	m["pop.comm_eff"] = eff.CommEff
	m["pop.load_balance"] = eff.LoadBalance
}
