// Package metrics is the per-rank observability registry: counters and
// high-water gauges updated by the transports, the matching engine, the
// pools, and the devices as traffic flows. Every counter is declared
// once, as a field of Counts, and listed once, in walk; the latency
// histograms likewise in Lat and walkLat. Snapshot, Merge, Share and
// the Prometheus export are those two walks. The registry is
// allocation-free and follows the charge ledger's rule (DESIGN.md §6a):
// a Rank is written only by its own rank's goroutine, with plain adds,
// and is atomic only after Share, which proc.World.SetThreadMultiple
// calls. What a peer's arriving message observes is never written into
// the receiver's Rank: it lands in the Arrivals of the interface it
// arrived on, under the lock that interface already takes, and is
// folded into the Snapshot. Cross-rank aggregation happens only at
// teardown, when each rank's registry is snapshotted and merged.
package metrics

import (
	"strconv"
	"sync/atomic"

	"gompi/internal/flight"
	"gompi/internal/hist"
)

// PathStat counts messages and payload bytes on one transport path.
type PathStat struct {
	Msgs  int64 `json:"msgs"`
	Bytes int64 `json:"bytes"`
}

// Note records one message of n payload bytes.
func (p *PathStat) Note(n int) {
	p.Msgs++
	p.Bytes += int64(n)
}

// Path is a PathStat inside a live registry: single-writer until its
// Rank is shared.
type Path struct {
	PathStat
	shared bool
}

// Note records one message of n payload bytes.
func (p *Path) Note(n int) {
	if !p.shared {
		p.PathStat.Note(n)
		return
	}
	atomic.AddInt64(&p.Msgs, 1)
	atomic.AddInt64(&p.Bytes, int64(n))
}

// add folds o into p (plain adds: snapshots are private values).
func (p *PathStat) add(o PathStat) {
	p.Msgs += o.Msgs
	p.Bytes += o.Bytes
}

// NumPoolClasses is the number of size classes the fabric's payload
// buffer pool keeps (fabric asserts its class table matches).
const NumPoolClasses = 5

// Collective-algorithm identifiers for the per-algorithm call/byte
// counters. The MPI layer notes one entry per collective call with the
// algorithm the selection logic chose, so the observability output
// shows not just that an Allreduce ran but which schedule it compiled
// to (and the bench harness can diff two-level against flat).
const (
	CollBarrierDissem = iota
	CollBcastBinomial
	CollBcastScatterAllgather
	CollBcastTwoLevel
	CollReduceBinomial
	CollReduceChain
	CollAllreduceRecDoubling
	CollAllreduceRedScatGather
	CollAllreduceTwoLevel
	CollAllreduceTwoLevelZC
	CollAllreduceReduceBcast
	CollAllgatherRing
	CollAllgatherBruck
	CollAlltoallPairwise
	CollAlltoallPosted
	CollGatherLinear
	CollScatterLinear
	CollRedScatBlock
	CollNeighborAllgather
	CollNeighborAlltoall
	CollNeighborAlltoallv
	CollScanChain
	CollExscanChain
	CollGathervLinear
	CollScattervLinear
	CollAllgathervRing
	NumCollAlgos
)

// CollAlgoNames maps algorithm ids to their display names (used as the
// JSON "algo" field of CollStat).
var CollAlgoNames = [NumCollAlgos]string{
	CollBarrierDissem:          "barrier/dissemination",
	CollBcastBinomial:          "bcast/binomial",
	CollBcastScatterAllgather:  "bcast/scatter-allgather",
	CollBcastTwoLevel:          "bcast/two-level",
	CollReduceBinomial:         "reduce/binomial",
	CollReduceChain:            "reduce/chain",
	CollAllreduceRecDoubling:   "allreduce/rdouble",
	CollAllreduceRedScatGather: "allreduce/rsag",
	CollAllreduceTwoLevel:      "allreduce/two-level",
	CollAllreduceTwoLevelZC:    "allreduce/two-level-zerocopy",
	CollAllreduceReduceBcast:   "allreduce/reduce-bcast",
	CollAllgatherRing:          "allgather/ring",
	CollAllgatherBruck:         "allgather/bruck",
	CollAlltoallPairwise:       "alltoall/pairwise",
	CollAlltoallPosted:         "alltoall/posted",
	CollGatherLinear:           "gather/linear",
	CollScatterLinear:          "scatter/linear",
	CollRedScatBlock:           "reduce_scatter/block",
	CollNeighborAllgather:      "neighbor_allgather/locality",
	CollNeighborAlltoall:       "neighbor_alltoall/locality",
	CollNeighborAlltoallv:      "neighbor_alltoallv/locality",
	CollScanChain:              "scan/chain",
	CollExscanChain:            "exscan/chain",
	CollGathervLinear:          "gatherv/linear",
	CollScattervLinear:         "scatterv/linear",
	CollAllgathervRing:         "allgatherv/ring",
}

// Counts holds every scalar counter of a registry, in the shape its
// snapshot reports it. The live Rank embeds Counts[Path], whose paths
// carry their rank's mode; a Snapshot embeds Counts[PathStat], plain
// values. Adding a counter is a field here plus one line in walk.
type Counts[P any] struct {
	// Transport paths. Self-loop traffic is counted once, at delivery.
	// Send-side counters accrue on the sending rank, receive-side
	// counters on the receiving rank, so summing a path's send bytes
	// across ranks must equal the sum of its receive bytes.
	Self    P `json:"self"`
	ShmSend P `json:"shm_send"`
	ShmRecv P `json:"shm_recv"`
	NetSend P `json:"net_send"`
	NetRecv P `json:"net_recv"`
	// Protocol split of netmod sends: eager vs rendezvous, decided by
	// the fabric profile's eager limit at injection.
	Eager P `json:"eager"`
	Rndv  P `json:"rendezvous"`
	// Active messages (RMA fallback on ch4; everything on the CH3-style
	// baseline rides eager AM packets as well).
	AmSend P `json:"am_send"`
	AmRecv P `json:"am_recv"`
	// Copy accounting for the tagged paths. CopiesStaged counts every
	// intermediate staging copy a payload crossed (shm cell copy-in,
	// ring reassembly, unexpected-queue pool buffering, a matched
	// probe's private copy of a lent view); CopiesDirect counts final
	// copies into the posted user buffer. An in-place reduction over a
	// lent view notes neither — the payload was folded where it lay.
	// ShmHandoff counts messages (and payload bytes lent) that took the
	// zero-copy handoff path; it is a subset of ShmSend, noted on the
	// sending rank.
	CopiesStaged P `json:"copies_staged"`
	CopiesDirect P `json:"copies_direct"`
	ShmHandoff   P `json:"shm_handoff"`

	Match MatchStats `json:"match"`
	Pool  PoolStats  `json:"buffer_pool"`
	Req   ReqStats   `json:"request_pool"`
	Rma   RmaStats   `json:"rma"`
	Peers PeerStats  `json:"peer_state"`
	Sched SchedStats `json:"sched_cache"`

	// Parks counts the times one of the rank's goroutines went to sleep
	// on a condition variable to wait: the fabric's event waits, where
	// every rank wait parks, once per wait (NotePark).
	Parks int64 `json:"parks"`
}

// MatchStats counts matching. The queue high waters are the registry's
// (the fabric keeps its unexpected high water in Arrivals); the rest
// live on the engines and the device that owns them adds them in.
// BinHits are matches found through the per-(ctx,src) bin
// organization; WildHits are matches found on the wildcard/global walk
// (which is every match in Linear mode).
type MatchStats struct {
	BinOps        int64 `json:"bin_ops"`
	Searches      int64 `json:"searches"`
	BinHits       int64 `json:"bin_hits"`
	WildHits      int64 `json:"wildcard_hits"`
	UnexpectedMax int64 `json:"unexpected_max"`
	PostedMax     int64 `json:"posted_max"`
}

// PoolStats counts the payload buffer pool, per size class, plus
// unpooled oversize gets. Its counters live in Arrivals.
type PoolStats struct {
	Hits     [NumPoolClasses]int64 `json:"hits"`
	Misses   [NumPoolClasses]int64 `json:"misses"`
	Oversize int64                 `json:"oversize"`
}

// ReqStats counts request gets, a pool's or a box's, and how many
// reused a freed request instead of allocating.
type ReqStats struct {
	Allocs int64 `json:"allocs"`
	Reuses int64 `json:"reuses"`
}

// RmaStats counts one-sided operations at the device ADI entry, and
// the flush-based passive-target synchronization: flushes (all Flush
// variants), single-epoch LockAll opens, and notified-access tokens
// sent (PutNotify).
type RmaStats struct {
	Puts     int64 `json:"puts"`
	Gets     int64 `json:"gets"`
	Accs     int64 `json:"accumulates"`
	GetAccs  int64 `json:"get_accumulates"`
	Flushes  int64 `json:"flushes"`
	LockAlls int64 `json:"lock_alls"`
	Notifies int64 `json:"notifies"`
}

// PeerStats counts lazy peer-state materialization (the on-demand
// connection model): Touched is the distinct peers whose per-peer state
// (fabric connection slot, shm ring) this rank materialized on first
// use; StateBytes the modeled bytes of per-peer state attributed to
// this rank — the number the MaxPeerBytes ceiling is enforced against.
// A merge sums Touched and StateBytes across ranks but takes the
// per-rank maximum for MaxStateBytes — the high-water bytes/rank the
// memory ceiling is judged against.
type PeerStats struct {
	Touched       int64 `json:"touched"`
	StateBytes    int64 `json:"state_bytes"`
	MaxStateBytes int64 `json:"max_state_bytes"`
}

// SchedStats counts the declared-shape communication. CacheHits and
// CacheMisses count the schedules a persistent collective keeps: a miss
// is an Init compiling the schedule it will own, a hit a Start
// replaying it (non-persistent collectives recompile in place and count
// neither); PartitionsReady counts Pready publications on partitioned
// sends.
type SchedStats struct {
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	PartitionsReady int64 `json:"partitions_ready"`
}

// Series names one counter as the Prometheus export shows it — a
// metric name (a _total suffix marks a counter, anything else a gauge)
// and at most one label — and says how ranks merge it.
type Series struct {
	Name, Label, Value string
	// Max marks a high water: ranks merge it by maximum, not by sum
	// (summing per-rank high waters would overstate any one queue).
	Max bool
}

// walk is the registry's one list of counters. It calls path for every
// transport path of a, with the same path of b, and count for every
// int64 of a — paths' Msgs and Bytes included — with the same counter
// of b and its Series. Either callback may be nil. The order is the
// Prometheus export's.
func walk[P, Q any](a *Counts[P], b *Counts[Q], path func(*P, *Q), count func(Series, *int64, *int64)) {
	if count == nil {
		count = func(Series, *int64, *int64) {}
	}
	p := func(name string, x *P, y *Q) {
		if path != nil {
			path(x, y)
		}
		sx, sy := stat(x), stat(y)
		count(Series{"gompi_path_msgs_total", "path", name, false}, &sx.Msgs, &sy.Msgs)
		count(Series{"gompi_path_bytes_total", "path", name, false}, &sx.Bytes, &sy.Bytes)
	}
	sum := func(name string, x, y *int64) { count(Series{Name: name}, x, y) }
	high := func(name string, x, y *int64) { count(Series{Name: name, Max: true}, x, y) }
	op := func(name string, x, y *int64) { count(Series{"gompi_rma_ops_total", "op", name, false}, x, y) }
	p("self", &a.Self, &b.Self)
	p("shm_send", &a.ShmSend, &b.ShmSend)
	p("shm_recv", &a.ShmRecv, &b.ShmRecv)
	p("net_send", &a.NetSend, &b.NetSend)
	p("net_recv", &a.NetRecv, &b.NetRecv)
	p("eager", &a.Eager, &b.Eager)
	p("rendezvous", &a.Rndv, &b.Rndv)
	p("am_send", &a.AmSend, &b.AmSend)
	p("am_recv", &a.AmRecv, &b.AmRecv)
	p("copies_staged", &a.CopiesStaged, &b.CopiesStaged)
	p("copies_direct", &a.CopiesDirect, &b.CopiesDirect)
	p("shm_handoff", &a.ShmHandoff, &b.ShmHandoff)
	op("put", &a.Rma.Puts, &b.Rma.Puts)
	op("get", &a.Rma.Gets, &b.Rma.Gets)
	op("accumulate", &a.Rma.Accs, &b.Rma.Accs)
	op("get_accumulate", &a.Rma.GetAccs, &b.Rma.GetAccs)
	op("flush", &a.Rma.Flushes, &b.Rma.Flushes)
	op("lock_all", &a.Rma.LockAlls, &b.Rma.LockAlls)
	op("notify", &a.Rma.Notifies, &b.Rma.Notifies)
	sum("gompi_match_searches_total", &a.Match.Searches, &b.Match.Searches)
	sum("gompi_match_bin_ops_total", &a.Match.BinOps, &b.Match.BinOps)
	sum("gompi_match_bin_hits_total", &a.Match.BinHits, &b.Match.BinHits)
	sum("gompi_match_wildcard_hits_total", &a.Match.WildHits, &b.Match.WildHits)
	high("gompi_unexpected_queue_max", &a.Match.UnexpectedMax, &b.Match.UnexpectedMax)
	high("gompi_posted_queue_max", &a.Match.PostedMax, &b.Match.PostedMax)
	sum("gompi_sched_cache_hits_total", &a.Sched.CacheHits, &b.Sched.CacheHits)
	sum("gompi_sched_cache_misses_total", &a.Sched.CacheMisses, &b.Sched.CacheMisses)
	sum("gompi_partitions_ready_total", &a.Sched.PartitionsReady, &b.Sched.PartitionsReady)
	sum("gompi_parks_total", &a.Parks, &b.Parks)
	for i := range a.Pool.Hits {
		count(Series{"gompi_buffer_pool_hits_total", "class", strconv.Itoa(i), false}, &a.Pool.Hits[i], &b.Pool.Hits[i])
	}
	for i := range a.Pool.Misses {
		count(Series{"gompi_buffer_pool_misses_total", "class", strconv.Itoa(i), false}, &a.Pool.Misses[i], &b.Pool.Misses[i])
	}
	sum("gompi_buffer_pool_oversize_total", &a.Pool.Oversize, &b.Pool.Oversize)
	sum("gompi_request_allocs_total", &a.Req.Allocs, &b.Req.Allocs)
	sum("gompi_request_reuses_total", &a.Req.Reuses, &b.Req.Reuses)
	sum("gompi_peers_touched_total", &a.Peers.Touched, &b.Peers.Touched)
	sum("gompi_peer_state_bytes", &a.Peers.StateBytes, &b.Peers.StateBytes)
	high("gompi_peer_state_bytes_max", &a.Peers.MaxStateBytes, &b.Peers.MaxStateBytes)
}

// stat is the PathStat of a live or a frozen path.
func stat(p any) *PathStat {
	if lp, ok := p.(*Path); ok {
		return &lp.PathStat
	}
	return p.(*PathStat)
}

// Lat holds one rank's span histograms: hist.H in the live registry
// (Latency), hist.Snapshot in a snapshot (LatSnapshot). Each span is a
// difference of virtual clocks (cycles), observed at the point where
// the span closes:
//
//	PostMatch - receive posted until the matching message arrived
//	            (zero when the message was already waiting unexpected).
//	UnexRes   - message arrival until a receive consumed it off the
//	            unexpected queue (zero when it matched a posted receive
//	            on arrival).
//	RndvRTT   - rendezvous handshake round-trip charged at injection.
//	ReqLife   - request issue until completion was observed.
//	WaitPark  - virtual time a Wait jumped forward to reach an
//	            operation's completion (the park, in virtual cycles).
//	HandoffRTT- shm handoff descriptor publish until the sender observed
//	            the receiver's completion ack (buffer-reuse latency of
//	            the zero-copy path).
//	EpochFlush- access-epoch open until a flush completed inside it
//	            (epoch-open→flush, the passive-target working-set span).
//	NotifyWait- WaitNotify post until the notification token arrived
//	            (the notified-access round trip seen by the consumer).
type Lat[H any] struct {
	PostMatch  H `json:"post_match"`
	UnexRes    H `json:"unexpected_residency"`
	RndvRTT    H `json:"rendezvous_rtt"`
	ReqLife    H `json:"request_lifetime"`
	WaitPark   H `json:"wait_park"`
	HandoffRTT H `json:"handoff_rtt"`
	EpochFlush H `json:"epoch_flush"`
	NotifyWait H `json:"notify_wait"`
}

// Latency is the live registry's histograms; LatSnapshot their frozen
// copy (or an aggregate when merged).
type (
	Latency     = Lat[hist.H]
	LatSnapshot = Lat[hist.Snapshot]
)

// walkLat is the one list of latency histograms: fn sees each of a with
// the same histogram of b and the Prometheus summary it is exported as.
func walkLat[H, K any](a *Lat[H], b *Lat[K], fn func(name string, x *H, y *K)) {
	fn("gompi_post_match_cycles", &a.PostMatch, &b.PostMatch)
	fn("gompi_unexpected_residency_cycles", &a.UnexRes, &b.UnexRes)
	fn("gompi_rendezvous_rtt_cycles", &a.RndvRTT, &b.RndvRTT)
	fn("gompi_request_lifetime_cycles", &a.ReqLife, &b.ReqLife)
	fn("gompi_wait_park_cycles", &a.WaitPark, &b.WaitPark)
	fn("gompi_handoff_rtt_cycles", &a.HandoffRTT, &b.HandoffRTT)
	fn("gompi_rma_epoch_flush_cycles", &a.EpochFlush, &b.EpochFlush)
	fn("gompi_rma_notify_wait_cycles", &a.NotifyWait, &b.NotifyWait)
}

// Rank is one rank's live registry. Writers note a path through its own
// Note and name any other counter through Add or Raise; readers take a
// Snapshot. The zero value is ready to use and single-writer: every
// method, Snapshot included, belongs to the rank's own goroutine
// (ParkClock and Flight's readers excepted) until Share.
type Rank struct {
	shared bool

	Counts[Path]

	// Per-algorithm collective counters, noted at the MPI layer with
	// the algorithm the selection logic chose and the per-rank payload
	// bytes of the call.
	CollCalls [NumCollAlgos]int64
	CollBytes [NumCollAlgos]int64

	// Latency decomposition: log2-bucketed histograms over virtual
	// cycles at the message lifecycle points the paper's Figure 2
	// attributes time to.
	Lat Latency

	// Flight is the rank's always-on flight recorder: a fixed ring of
	// recent protocol events for post-mortem dumps (abort, error
	// teardown, watchdog trip). Living in the registry threads it
	// through every transport without new interfaces.
	Flight flight.Ring

	// ParkClock is the rank's virtual clock as its owner last published
	// it (NotePark). The live clock is a single-writer ledger that only
	// the owner may read; diagnosis from any other goroutine reads this.
	ParkClock atomic.Int64
}

// Share marks the registry as written by several goroutines of its
// rank, before it runs: counters and histograms become atomic, the
// flight ring locked.
func (r *Rank) Share() {
	r.shared = true
	walk(&r.Counts, &r.Counts, func(p, _ *Path) { p.shared = true }, nil)
	walkLat(&r.Lat, &r.Lat, func(_ string, h, _ *hist.H) { h.Share() })
	r.Flight.Share()
}

// Add adds n to the registry's counter *p and returns the new value: a
// plain add until Share, atomic after.
func (r *Rank) Add(p *int64, n int64) int64 {
	if r.shared {
		return atomic.AddInt64(p, n)
	}
	*p += n
	return *p
}

// Raise lifts the registry's high water *p to n if it is below (a CAS
// loop once shared).
func (r *Rank) Raise(p *int64, n int64) {
	if !r.shared {
		if n > *p {
			*p = n
		}
		return
	}
	for {
		cur := atomic.LoadInt64(p)
		if n <= cur || atomic.CompareAndSwapInt64(p, cur, n) {
			return
		}
	}
}

func (r *Rank) load(p *int64) int64 {
	if r.shared {
		return atomic.LoadInt64(p)
	}
	return *p
}

// NotePark counts the park (waiting on peer, -1 for any, on interface
// vci), records it in the flight ring and publishes the ring and the
// owner's clock.
func (r *Rank) NotePark(now int64, peer, vci int) {
	r.Add(&r.Parks, 1)
	r.Flight.Record(flight.Park, now, peer, 0, vci)
	r.Publish(now)
}

// Publish makes the owner's clock and flight ring visible to other
// goroutines' dumps: at every park, its own dump, and rank exit.
func (r *Rank) Publish(now int64) {
	r.ParkClock.Store(now)
	r.Flight.Flush()
}

// NoteColl counts one collective call compiled to the given algorithm
// with n payload bytes on this rank.
func (r *Rank) NoteColl(algo int, n int64) {
	if algo < 0 || algo >= NumCollAlgos {
		return
	}
	r.Add(&r.CollCalls[algo], 1)
	r.Add(&r.CollBytes[algo], n)
}

// NotePeerState accounts the materialization of per-peer state: bytes
// of modeled state added (a connection slot, a shm ring), with newPeer
// set when this is the first state for that peer. Returns the rank's
// new per-peer state total so the caller can enforce a MaxPeerBytes
// ceiling without a second load.
func (r *Rank) NotePeerState(newPeer bool, bytes int64) int64 {
	if newPeer {
		r.Add(&r.Peers.Touched, 1)
	}
	total := r.Add(&r.Peers.StateBytes, bytes)
	r.Raise(&r.Peers.MaxStateBytes, total)
	return total
}

// Arrivals is the arrival-side half of a registry: what a message
// landing at one matching unit — or a receive meeting it there —
// observes, and (Flight) the last messages peers landed there. It has
// no synchronization of its own: every field is written, and AddTo
// called, under the lock of the interface embedding it, which a
// deposit or a posted receive already holds, whichever rank's
// goroutine that is. It keeps only the counters an arrival touches, so
// it folds by name rather than through walk.
type Arrivals struct {
	NetRecv, ShmRecv, Self PathStat
	// CopiesStaged counts unexpected-queue buffering; CopiesDirect the
	// final copies at match time.
	CopiesStaged, CopiesDirect PathStat
	UnexpectedMax              int64
	// Payload buffer pool, per size class, plus unpooled oversize gets.
	PoolHits, PoolMisses [NumPoolClasses]int64
	PoolOversize         int64
	PostMatch, UnexRes   hist.H
	Flight               flight.Lane
}

// AddTo folds a into s.
func (a *Arrivals) AddTo(s *Snapshot) {
	s.NetRecv.add(a.NetRecv)
	s.ShmRecv.add(a.ShmRecv)
	s.Self.add(a.Self)
	s.CopiesStaged.add(a.CopiesStaged)
	s.CopiesDirect.add(a.CopiesDirect)
	s.Match.UnexpectedMax = max(s.Match.UnexpectedMax, a.UnexpectedMax)
	for i := range a.PoolHits {
		s.Pool.Hits[i] += a.PoolHits[i]
		s.Pool.Misses[i] += a.PoolMisses[i]
	}
	s.Pool.Oversize += a.PoolOversize
	s.Lat.PostMatch.Merge(a.PostMatch.Snapshot())
	s.Lat.UnexRes.Merge(a.UnexRes.Snapshot())
}

// CollStat is one collective algorithm's aggregate: calls that
// compiled to it and their per-rank payload bytes.
type CollStat struct {
	Algo  string `json:"algo"`
	Calls int64  `json:"calls"`
	Bytes int64  `json:"bytes"`
}

// VCIStat is one virtual communication interface's receive-side
// traffic: tagged messages landed on it, their payload bytes, and the
// transport events (deposits, AMs, wakes) its event sequence counted.
// PostMatch is the per-VCI post→match latency distribution.
type VCIStat struct {
	Msgs      int64         `json:"msgs"`
	Bytes     int64         `json:"bytes"`
	Events    int64         `json:"events"`
	PostMatch hist.Snapshot `json:"post_match"`
}

// Snapshot is a frozen copy of a registry, grouped for JSON output. It
// carries no mode: a shared registry's snapshot equals a single-writer
// one's.
type Snapshot struct {
	Counts[PathStat]
	Lat LatSnapshot `json:"latency"`
	// VCIs is the per-virtual-interface receive-side split; empty on a
	// single-VCI endpoint snapshot only if the device never filled it.
	VCIs []VCIStat `json:"vcis,omitempty"`
	// Coll is the per-algorithm collective split, indexed by algorithm
	// id (CollAlgoNames order); empty when the rank ran no collectives.
	Coll []CollStat `json:"coll,omitempty"`
}

// Each calls lat for every latency histogram of s and then count for
// every counter, in walk order, with the series each is exported as.
func (s *Snapshot) Each(lat func(name string, h hist.Snapshot), count func(Series, int64)) {
	walkLat(&s.Lat, &s.Lat, func(name string, h, _ *hist.Snapshot) { lat(name, *h) })
	walk(&s.Counts, &s.Counts, nil, func(c Series, p, _ *int64) { count(c, *p) })
}

// Snapshot freezes the registry. Callers that maintain counters
// outside the registry (the devices' matching engines, the endpoint's
// per-VCI stats and Arrivals) fold them into the result.
func (r *Rank) Snapshot() Snapshot {
	var s Snapshot
	walk(&s.Counts, &r.Counts, nil, func(_ Series, d, p *int64) { *d = r.load(p) })
	walkLat(&s.Lat, &r.Lat, func(_ string, d *hist.Snapshot, h *hist.H) { *d = h.Snapshot() })
	for i := 0; i < NumCollAlgos; i++ {
		calls := r.load(&r.CollCalls[i])
		bytes := r.load(&r.CollBytes[i])
		if calls == 0 && bytes == 0 {
			continue
		}
		if s.Coll == nil {
			s.Coll = make([]CollStat, NumCollAlgos)
			for j := range s.Coll {
				s.Coll[j].Algo = CollAlgoNames[j]
			}
		}
		s.Coll[i].Calls = calls
		s.Coll[i].Bytes = bytes
	}
	return s
}

// Merge folds o into s: counters sum, high waters take the maximum.
// Per-VCI stats merge element-wise, padding to the longer of the two
// (ranks may run with different VCI counts only in principle, but the
// merge should not silently drop data if they do).
func (s Snapshot) Merge(o Snapshot) Snapshot {
	walk(&s.Counts, &o.Counts, nil, func(c Series, d, p *int64) {
		if c.Max {
			*d = max(*d, *p)
		} else {
			*d += *p
		}
	})
	walkLat(&s.Lat, &o.Lat, func(_ string, d, h *hist.Snapshot) { d.Merge(*h) })
	n := len(s.VCIs)
	if len(o.VCIs) > n {
		n = len(o.VCIs)
	}
	if n > 0 {
		vcis := make([]VCIStat, n)
		copy(vcis, s.VCIs)
		for i, v := range o.VCIs {
			vcis[i].Msgs += v.Msgs
			vcis[i].Bytes += v.Bytes
			vcis[i].Events += v.Events
			vcis[i].PostMatch.Merge(v.PostMatch)
		}
		s.VCIs = vcis
	}
	n = len(s.Coll)
	if len(o.Coll) > n {
		n = len(o.Coll)
	}
	if n > 0 {
		cs := make([]CollStat, n)
		copy(cs, s.Coll)
		for i, c := range o.Coll {
			if cs[i].Algo == "" {
				cs[i].Algo = c.Algo
			}
			cs[i].Calls += c.Calls
			cs[i].Bytes += c.Bytes
		}
		s.Coll = cs
	}
	return s
}
