// Package metrics is the per-rank observability registry: counters and
// high-water gauges updated by the transports, the matching engine, the
// pools, and the devices as traffic flows. The registry is
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

// snap returns a copy (atomically loaded once shared).
func (p *Path) snap() PathStat {
	if !p.shared {
		return p.PathStat
	}
	return PathStat{Msgs: atomic.LoadInt64(&p.Msgs), Bytes: atomic.LoadInt64(&p.Bytes)}
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

// Rank is one rank's live registry. Writers use the Note*/Max* methods;
// readers take a Snapshot. The zero value is ready to use and
// single-writer: every method, Snapshot included, belongs to the rank's
// own goroutine (ParkClock and Flight's readers excepted) until Share.
type Rank struct {
	shared bool

	// Transport paths. Self-loop traffic is counted once, at delivery.
	// Send-side counters accrue on the sending rank, receive-side
	// counters on the receiving rank, so summing a path's send bytes
	// across ranks must equal the sum of its receive bytes.
	Self    Path
	ShmSend Path
	ShmRecv Path
	NetSend Path
	NetRecv Path
	// Protocol split of netmod sends: eager vs rendezvous, decided by
	// the fabric profile's eager limit at injection.
	Eager Path
	Rndv  Path
	// Active messages (RMA fallback on ch4; everything on the CH3-style
	// baseline rides eager AM packets as well).
	AmSend Path
	AmRecv Path
	// Copy accounting for the tagged paths. CopiesStaged counts every
	// intermediate staging copy a payload crossed (shm cell copy-in,
	// ring reassembly, unexpected-queue pool buffering, a matched
	// probe's private copy of a lent view); CopiesDirect counts final
	// copies into the posted user buffer. An in-place reduction over a
	// lent view notes neither — the payload was folded where it lay.
	// ShmHandoff counts messages (and payload
	// bytes lent) that took the zero-copy handoff path; it is a subset
	// of ShmSend, noted on the sending rank.
	CopiesStaged Path
	CopiesDirect Path
	ShmHandoff   Path

	// Queue-depth high waters, updated as entries are enqueued (the
	// fabric keeps its unexpected high water in Arrivals).
	UnexpectedMax int64
	PostedMax     int64

	// Request-object recycling: total pool gets and how many reused a
	// freed request instead of allocating.
	ReqAllocs int64
	ReqReuses int64

	// One-sided operation counts, at the device ADI entry.
	RmaPuts    int64
	RmaGets    int64
	RmaAccs    int64
	RmaGetAccs int64
	// Flush-based passive-target synchronization: flushes (all Flush
	// variants), single-epoch LockAll opens, and notified-access
	// tokens sent (PutNotify).
	RmaFlushes  int64
	RmaLockAlls int64
	RmaNotifies int64

	// Lazy peer-state materialization (the on-demand connection model):
	// PeersTouched counts distinct peers whose per-peer state (fabric
	// connection slot, shm ring) this rank materialized on first use;
	// PeerStateBytes is the modeled bytes of per-peer state currently
	// attributed to this rank — the number the MaxPeerBytes ceiling is
	// enforced against.
	PeersTouched   int64
	PeerStateBytes int64

	// Per-algorithm collective counters, noted at the MPI layer with
	// the algorithm the selection logic chose and the per-rank payload
	// bytes of the call.
	CollCalls [NumCollAlgos]int64
	CollBytes [NumCollAlgos]int64

	// Declared-shape communication counters. SchedCacheHits/Misses
	// count the schedules a persistent collective keeps: a miss is an
	// Init compiling the schedule it will own, a hit a Start replaying
	// it (non-persistent collectives recompile in place and count
	// neither); PartitionsReady counts Pready publications on
	// partitioned sends.
	SchedCacheHits   int64
	SchedCacheMisses int64
	PartitionsReady  int64

	// Latency decomposition: log2-bucketed histograms over virtual
	// cycles at the message lifecycle points the paper's Figure 2
	// attributes time to.
	Lat Latency

	// Parks counts the times one of the rank's goroutines went to sleep
	// on a condition variable to wait: the fabric's event waits, where
	// every rank wait parks, once per wait (NotePark).
	Parks int64

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
	for _, p := range []*Path{&r.Self, &r.ShmSend, &r.ShmRecv, &r.NetSend, &r.NetRecv, &r.Eager, &r.Rndv,
		&r.AmSend, &r.AmRecv, &r.CopiesStaged, &r.CopiesDirect, &r.ShmHandoff} {
		p.shared = true
	}
	l := &r.Lat
	for _, h := range []*hist.H{&l.PostMatch, &l.UnexRes, &l.RndvRTT, &l.ReqLife, &l.WaitPark,
		&l.HandoffRTT, &l.EpochFlush, &l.NotifyWait} {
		h.Share()
	}
	r.Flight.Share()
}

// add and load are the counter accessors: plain until shared.
func (r *Rank) add(p *int64, n int64) int64 {
	if r.shared {
		return atomic.AddInt64(p, n)
	}
	*p += n
	return *p
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
	r.add(&r.Parks, 1)
	r.Flight.Record(flight.Park, now, peer, 0, vci)
	r.Publish(now)
}

// Publish makes the owner's clock and flight ring visible to other
// goroutines' dumps: at every park, its own dump, and rank exit.
func (r *Rank) Publish(now int64) {
	r.ParkClock.Store(now)
	r.Flight.Flush()
}

// Latency holds one rank's span histograms. Each span is a difference
// of virtual clocks (cycles), observed at the point where the span
// closes:
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
type Latency struct {
	PostMatch  hist.H
	UnexRes    hist.H
	RndvRTT    hist.H
	ReqLife    hist.H
	WaitPark   hist.H
	HandoffRTT hist.H
	EpochFlush hist.H
	NotifyWait hist.H
}

// raise lifts *p to n if it is below (a CAS loop once shared).
func (r *Rank) raise(p *int64, n int64) {
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

// MaxUnexpected raises the unexpected-queue high water to n.
func (r *Rank) MaxUnexpected(n int) { r.raise(&r.UnexpectedMax, int64(n)) }

// MaxPosted raises the posted-queue high water to n.
func (r *Rank) MaxPosted(n int) { r.raise(&r.PostedMax, int64(n)) }

// NoteReqAlloc counts a request get, a pool's or a box's; reused says
// whether it came off a freelist.
func (r *Rank) NoteReqAlloc(reused bool) {
	r.add(&r.ReqAllocs, 1)
	if reused {
		r.add(&r.ReqReuses, 1)
	}
}

// NoteColl counts one collective call compiled to the given algorithm
// with n payload bytes on this rank.
func (r *Rank) NoteColl(algo int, n int64) {
	if algo < 0 || algo >= NumCollAlgos {
		return
	}
	r.add(&r.CollCalls[algo], 1)
	r.add(&r.CollBytes[algo], n)
}

// NoteSchedCache counts one use of a kept schedule: hit is a
// persistent Start replaying the compiled schedule, miss the Init that
// compiled it.
func (r *Rank) NoteSchedCache(hit bool) {
	if hit {
		r.add(&r.SchedCacheHits, 1)
	} else {
		r.add(&r.SchedCacheMisses, 1)
	}
}

// NotePartitionsReady counts n partition-ready publications on a
// partitioned send.
func (r *Rank) NotePartitionsReady(n int) {
	r.add(&r.PartitionsReady, int64(n))
}

// NoteRmaPut / NoteRmaGet / NoteRmaAcc / NoteRmaGetAcc count one-sided
// operations at the device ADI entry.
func (r *Rank) NoteRmaPut()    { r.add(&r.RmaPuts, 1) }
func (r *Rank) NoteRmaGet()    { r.add(&r.RmaGets, 1) }
func (r *Rank) NoteRmaAcc()    { r.add(&r.RmaAccs, 1) }
func (r *Rank) NoteRmaGetAcc() { r.add(&r.RmaGetAccs, 1) }

// NoteRmaFlush / NoteRmaLockAll / NoteRmaNotify count the flush-based
// synchronization primitives: any Flush variant, a single-epoch
// LockAll open, a notified-access token sent.
func (r *Rank) NoteRmaFlush()   { r.add(&r.RmaFlushes, 1) }
func (r *Rank) NoteRmaLockAll() { r.add(&r.RmaLockAlls, 1) }
func (r *Rank) NoteRmaNotify()  { r.add(&r.RmaNotifies, 1) }

// NotePeerState accounts the materialization of per-peer state: bytes
// of modeled state added (a connection slot, a shm ring), with newPeer
// set when this is the first state for that peer. Returns the rank's
// new per-peer state total so the caller can enforce a MaxPeerBytes
// ceiling without a second load.
func (r *Rank) NotePeerState(newPeer bool, bytes int64) int64 {
	if newPeer {
		r.add(&r.PeersTouched, 1)
	}
	return r.add(&r.PeerStateBytes, bytes)
}

// Arrivals is the arrival-side half of a registry: what a message
// landing at one matching unit — or a receive meeting it there —
// observes, and (Flight) the last messages peers landed there. It has no synchronization of its own: every field is
// written, and AddTo called, under the lock of the interface embedding
// it, which a deposit or a posted receive already holds, whichever
// rank's goroutine that is.
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

// MatchStats is the snapshot of the matching-engine counters, which
// live on the engines: the device that owns them adds them in. BinHits
// are matches found through the per-(ctx,src) bin organization;
// WildHits are matches found on the wildcard/global walk (which is
// every match in Linear mode). The two high waters are updated as
// entries are enqueued.
type MatchStats struct {
	BinOps        int64 `json:"bin_ops"`
	Searches      int64 `json:"searches"`
	BinHits       int64 `json:"bin_hits"`
	WildHits      int64 `json:"wildcard_hits"`
	UnexpectedMax int64 `json:"unexpected_max"`
	PostedMax     int64 `json:"posted_max"`
}

// PoolStats is the snapshot of the payload buffer pool.
type PoolStats struct {
	Hits     [NumPoolClasses]int64 `json:"hits"`
	Misses   [NumPoolClasses]int64 `json:"misses"`
	Oversize int64                 `json:"oversize"`
}

// ReqStats is the snapshot of request-object recycling.
type ReqStats struct {
	Allocs int64 `json:"allocs"`
	Reuses int64 `json:"reuses"`
}

// RmaStats is the snapshot of one-sided operation counts.
type RmaStats struct {
	Puts     int64 `json:"puts"`
	Gets     int64 `json:"gets"`
	Accs     int64 `json:"accumulates"`
	GetAccs  int64 `json:"get_accumulates"`
	Flushes  int64 `json:"flushes"`
	LockAlls int64 `json:"lock_alls"`
	Notifies int64 `json:"notifies"`
}

// PeerStats is the snapshot of lazy peer-state materialization. On a
// single-rank snapshot StateBytes == MaxStateBytes; a merge sums
// Touched and StateBytes across ranks but takes the per-rank maximum
// for MaxStateBytes — the high-water bytes/rank the memory ceiling is
// judged against.
type PeerStats struct {
	Touched       int64 `json:"touched"`
	StateBytes    int64 `json:"state_bytes"`
	MaxStateBytes int64 `json:"max_state_bytes"`
}

// SchedStats is the snapshot of the declared-shape counters: persistent
// collective replays (hits) and compilations (misses), and partitions
// published ready.
type SchedStats struct {
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	PartitionsReady int64 `json:"partitions_ready"`
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

// LatSnapshot is the frozen latency decomposition of one rank (or an
// aggregate when merged).
type LatSnapshot struct {
	PostMatch  hist.Snapshot `json:"post_match"`
	UnexRes    hist.Snapshot `json:"unexpected_residency"`
	RndvRTT    hist.Snapshot `json:"rendezvous_rtt"`
	ReqLife    hist.Snapshot `json:"request_lifetime"`
	WaitPark   hist.Snapshot `json:"wait_park"`
	HandoffRTT hist.Snapshot `json:"handoff_rtt"`
	EpochFlush hist.Snapshot `json:"epoch_flush"`
	NotifyWait hist.Snapshot `json:"notify_wait"`
}

// Snapshot is a frozen copy of a registry, grouped for JSON output.
type Snapshot struct {
	Self    PathStat `json:"self"`
	ShmSend PathStat `json:"shm_send"`
	ShmRecv PathStat `json:"shm_recv"`
	NetSend PathStat `json:"net_send"`
	NetRecv PathStat `json:"net_recv"`
	Eager   PathStat `json:"eager"`
	Rndv    PathStat `json:"rendezvous"`
	AmSend  PathStat `json:"am_send"`
	AmRecv  PathStat `json:"am_recv"`
	// Copy accounting (see Rank): staging copies, direct final copies,
	// and the handoff path's message/byte split.
	CopiesStaged PathStat    `json:"copies_staged"`
	CopiesDirect PathStat    `json:"copies_direct"`
	ShmHandoff   PathStat    `json:"shm_handoff"`
	Match        MatchStats  `json:"match"`
	Pool         PoolStats   `json:"buffer_pool"`
	Req          ReqStats    `json:"request_pool"`
	Rma          RmaStats    `json:"rma"`
	Peers        PeerStats   `json:"peer_state"`
	Sched        SchedStats  `json:"sched_cache"`
	Lat          LatSnapshot `json:"latency"`
	// Parks is how many waits slept on a condition variable (see Rank).
	Parks int64 `json:"parks"`
	// VCIs is the per-virtual-interface receive-side split; empty on a
	// single-VCI endpoint snapshot only if the device never filled it.
	VCIs []VCIStat `json:"vcis,omitempty"`
	// Coll is the per-algorithm collective split, indexed by algorithm
	// id (CollAlgoNames order); empty when the rank ran no collectives.
	Coll []CollStat `json:"coll,omitempty"`
}

// Snapshot freezes the registry. Callers that maintain counters
// outside the registry (the devices' matching engines, the endpoint's
// per-VCI stats and Arrivals) fold them into the result.
func (r *Rank) Snapshot() Snapshot {
	s := Snapshot{
		Self:         r.Self.snap(),
		ShmSend:      r.ShmSend.snap(),
		ShmRecv:      r.ShmRecv.snap(),
		NetSend:      r.NetSend.snap(),
		NetRecv:      r.NetRecv.snap(),
		Eager:        r.Eager.snap(),
		Rndv:         r.Rndv.snap(),
		AmSend:       r.AmSend.snap(),
		AmRecv:       r.AmRecv.snap(),
		CopiesStaged: r.CopiesStaged.snap(),
		CopiesDirect: r.CopiesDirect.snap(),
		ShmHandoff:   r.ShmHandoff.snap(),
		Match: MatchStats{
			UnexpectedMax: r.load(&r.UnexpectedMax),
			PostedMax:     r.load(&r.PostedMax),
		},
		Req: ReqStats{
			Allocs: r.load(&r.ReqAllocs),
			Reuses: r.load(&r.ReqReuses),
		},
		Rma: RmaStats{
			Puts:     r.load(&r.RmaPuts),
			Gets:     r.load(&r.RmaGets),
			Accs:     r.load(&r.RmaAccs),
			GetAccs:  r.load(&r.RmaGetAccs),
			Flushes:  r.load(&r.RmaFlushes),
			LockAlls: r.load(&r.RmaLockAlls),
			Notifies: r.load(&r.RmaNotifies),
		},
		Parks: r.load(&r.Parks),
	}
	touched := r.load(&r.PeersTouched)
	stateBytes := r.load(&r.PeerStateBytes)
	s.Peers = PeerStats{Touched: touched, StateBytes: stateBytes, MaxStateBytes: stateBytes}
	s.Sched = SchedStats{
		CacheHits:       r.load(&r.SchedCacheHits),
		CacheMisses:     r.load(&r.SchedCacheMisses),
		PartitionsReady: r.load(&r.PartitionsReady),
	}
	s.Lat = LatSnapshot{
		PostMatch:  r.Lat.PostMatch.Snapshot(),
		UnexRes:    r.Lat.UnexRes.Snapshot(),
		RndvRTT:    r.Lat.RndvRTT.Snapshot(),
		ReqLife:    r.Lat.ReqLife.Snapshot(),
		WaitPark:   r.Lat.WaitPark.Snapshot(),
		HandoffRTT: r.Lat.HandoffRTT.Snapshot(),
		EpochFlush: r.Lat.EpochFlush.Snapshot(),
		NotifyWait: r.Lat.NotifyWait.Snapshot(),
	}
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

// Merge folds o into s: counters sum, high-water gauges take the
// maximum (summing per-rank high waters would overstate any one
// queue's depth). Per-VCI stats merge element-wise, padding to the
// longer of the two (ranks may run with different VCI counts only in
// principle, but the merge should not silently drop data if they do).
func (s Snapshot) Merge(o Snapshot) Snapshot {
	s.Self.add(o.Self)
	s.ShmSend.add(o.ShmSend)
	s.ShmRecv.add(o.ShmRecv)
	s.NetSend.add(o.NetSend)
	s.NetRecv.add(o.NetRecv)
	s.Eager.add(o.Eager)
	s.Rndv.add(o.Rndv)
	s.AmSend.add(o.AmSend)
	s.AmRecv.add(o.AmRecv)
	s.CopiesStaged.add(o.CopiesStaged)
	s.CopiesDirect.add(o.CopiesDirect)
	s.ShmHandoff.add(o.ShmHandoff)
	s.Match.BinOps += o.Match.BinOps
	s.Match.Searches += o.Match.Searches
	s.Match.BinHits += o.Match.BinHits
	s.Match.WildHits += o.Match.WildHits
	if o.Match.UnexpectedMax > s.Match.UnexpectedMax {
		s.Match.UnexpectedMax = o.Match.UnexpectedMax
	}
	if o.Match.PostedMax > s.Match.PostedMax {
		s.Match.PostedMax = o.Match.PostedMax
	}
	for i := range s.Pool.Hits {
		s.Pool.Hits[i] += o.Pool.Hits[i]
		s.Pool.Misses[i] += o.Pool.Misses[i]
	}
	s.Pool.Oversize += o.Pool.Oversize
	s.Req.Allocs += o.Req.Allocs
	s.Req.Reuses += o.Req.Reuses
	s.Rma.Puts += o.Rma.Puts
	s.Rma.Gets += o.Rma.Gets
	s.Rma.Accs += o.Rma.Accs
	s.Rma.GetAccs += o.Rma.GetAccs
	s.Rma.Flushes += o.Rma.Flushes
	s.Rma.LockAlls += o.Rma.LockAlls
	s.Rma.Notifies += o.Rma.Notifies
	s.Peers.Touched += o.Peers.Touched
	s.Peers.StateBytes += o.Peers.StateBytes
	s.Sched.CacheHits += o.Sched.CacheHits
	s.Sched.CacheMisses += o.Sched.CacheMisses
	s.Sched.PartitionsReady += o.Sched.PartitionsReady
	s.Parks += o.Parks
	if o.Peers.MaxStateBytes > s.Peers.MaxStateBytes {
		s.Peers.MaxStateBytes = o.Peers.MaxStateBytes
	}
	s.Lat.PostMatch.Merge(o.Lat.PostMatch)
	s.Lat.UnexRes.Merge(o.Lat.UnexRes)
	s.Lat.RndvRTT.Merge(o.Lat.RndvRTT)
	s.Lat.ReqLife.Merge(o.Lat.ReqLife)
	s.Lat.WaitPark.Merge(o.Lat.WaitPark)
	s.Lat.HandoffRTT.Merge(o.Lat.HandoffRTT)
	s.Lat.EpochFlush.Merge(o.Lat.EpochFlush)
	s.Lat.NotifyWait.Merge(o.Lat.NotifyWait)
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
