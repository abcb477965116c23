package fabric

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"gompi/internal/flight"
	"gompi/internal/instr"
	"gompi/internal/match"
	"gompi/internal/metrics"
	"gompi/internal/proc"
	"gompi/internal/vtime"
)

// AnyVCI names no interface: a wait on it (EventSeqVCI, WaitEventVCI)
// watches the endpoint aggregate, and a trace or flight event carrying
// it belongs to the whole endpoint. On a single-VCI endpoint every
// operation also takes it for VCI 0; on a multi-VCI one, a send,
// deposit, receive or probe on it panics, because each message rides
// the one lane its communicator's context names (Fabric.VCIForCtx).
const AnyVCI = -1

// RecvOp is an outstanding tagged receive. The owner posts it with
// PostRecv and completes it with RecvDone; the fabric fills in
// the result fields when a message matches. Ops must be fresh (or
// zeroed) when posted.
type RecvOp struct {
	Buf []byte // destination buffer (fabric copies into it)

	// Fold, when set, consumes the matched payload in place of the
	// final copy: Fold(dst, src) reduces src into dst element-wise
	// (both truncated to the shorter length). With a zero-copy handoff
	// view this makes the receive copy-free — the payload is folded
	// where the sender left it. Fold runs on whichever goroutine
	// delivers the match, under the VCI lock; the device keeps shm
	// deposits on the receiving rank's goroutine, so folds never race
	// the buffers they touch.
	Fold func(dst, src []byte)

	// Results, valid once the op completes.
	N         int        // bytes delivered
	Src       int        // sending rank (world address space)
	Tag       int        // sender's tag
	Truncated bool       // message was longer than Buf
	Arrival   vtime.Time // virtual arrival time at the target

	// done is the completion flag. The atomic store in completeRecv
	// publishes the result fields written just before it (Go memory
	// model: everything sequenced before the Store is visible after a
	// Load that observes true).
	done   atomic.Bool
	reaped bool // owner-goroutine only

	// vci is the interface the op was posted on.
	vci int
	// posted is the owner's virtual clock at PostRecv time; the
	// depositing peer reads it (under the VCI lock that also ordered
	// the engine insertion) to observe post→match latency.
	posted vtime.Time
}

// Reset clears a completed op for reuse (the device's receive-descriptor
// pooling). Only legal once the op has completed and been reaped: the
// op is consumed from its VCI's queue at match time, so nothing in the
// fabric still references it. Fields are cleared individually because
// the atomic is not assignable wholesale.
func (op *RecvOp) Reset() {
	op.Buf = nil
	op.Fold = nil
	op.N = 0
	op.Src = 0
	op.Tag = 0
	op.Truncated = false
	op.Arrival = 0
	op.done.Store(false)
	op.reaped = false
	op.vci = 0
	op.posted = 0
}

// VCI returns the interface the op was posted on. Valid after PostRecv.
func (op *RecvOp) VCI() int { return op.vci }

// AMHandler consumes an incoming active message on the progressing
// goroutine of the receiving endpoint. hdr and payload are owned by the
// handler. Handlers are not synchronized by the fabric: devices that
// use active messages (RMA, the CH3-style baseline) keep them on the
// owner goroutine.
type AMHandler func(src int, hdr, payload []byte, arrival vtime.Time)

// message is a buffered unexpected tagged message. Instances are
// recycled through the owning VCI's free list (chained via next); data
// is a pooled copy returned to that VCI's buffer pool when the message
// is consumed by a receive.
type message struct {
	src     int
	data    []byte
	arrival vtime.Time
	// rel is non-nil for a lent view parked unexpected (an shm handoff
	// or a netmod rendezvous, told apart by via): data is then the
	// sender's live buffer, valid until rel is released, and never
	// belongs to the pool.
	rel  ViewReleaser
	via  via
	next *message
}

// am is a queued active message.
type am struct {
	src     int
	handler uint8
	hdr     []byte
	payload []byte
	arrival vtime.Time
}

// event is what a rank waits on: seq counts the events (deposits and
// wakes), waiters the goroutines about to sleep on cond, raised under
// mu before their last check of seq. An event bumps seq, then loads
// waiters; a waiter raises waiters, then loads seq. One of the two sees
// the other, so signal takes mu to Broadcast only when somebody may
// sleep, and misses no sleeper. Each VCI has one, on the VCI lock; the
// endpoint has one more, the aggregate, on aggMu.
type event struct {
	seq     atomic.Uint64
	waiters atomic.Int32
	mu      *sync.Mutex
	cond    sync.Cond
}

func (ev *event) init(mu *sync.Mutex) { ev.mu, ev.cond.L = mu, mu }

// signal records one event and wakes whoever sleeps on ev. The caller
// does not hold ev.mu.
func (ev *event) signal() {
	ev.seq.Add(1)
	if ev.waiters.Load() != 0 {
		ev.mu.Lock()
		ev.cond.Broadcast()
		ev.mu.Unlock()
	}
}

// vci is one virtual communication interface: a private lock, matching
// engine, buffer pool, envelope free list, and event. Two goroutines of
// the same rank driving different VCIs never contend. Everything is
// under mu but the event's atomics.
type vci struct {
	mu      sync.Mutex
	ev      event
	eng     match.Engine
	pool    bufPool
	msgFree *message
	// arr is what arrivals at this interface observe — receive-side path
	// counters, copies, pool hits, post→match and unexpected-residency
	// latency, the matching unit's recent events — as plain fields
	// under mu, whichever rank's goroutine holds it.
	arr metrics.Arrivals
}

// getMessage pops a recycled message envelope (or allocates the first
// time). Caller holds the VCI lock.
func (s *vci) getMessage() *message {
	m := s.msgFree
	if m == nil {
		return new(message)
	}
	s.msgFree = m.next
	m.next = nil
	return m
}

// putMessage zeroes an envelope and chains it on the free list. Caller
// holds the VCI lock and has already dealt with m.data.
func (s *vci) putMessage(m *message) {
	*m = message{next: s.msgFree}
	s.msgFree = m
}

// releaseMessage recycles a consumed unexpected message: payload back
// to the VCI's buffer pool, envelope to its free list. Caller holds the
// VCI lock.
func (s *vci) releaseMessage(m *message) {
	s.pool.put(m.data)
	s.putMessage(m)
}

// consumeMessage recycles a consumed unexpected message and returns the
// view releaser the caller must fire once it drops the VCI lock (nil
// for pooled messages, which are recycled here). Releasing outside the
// lock matters: Release wakes the sending rank, which takes that rank's
// VCI lock — two ranks consuming each other's lent views under their
// own locks would otherwise deadlock.
func (s *vci) consumeMessage(m *message) ViewReleaser {
	rel := m.rel
	if rel != nil {
		m.data, m.rel = nil, nil
		s.putMessage(m)
		return rel
	}
	s.releaseMessage(m)
	return nil
}

// Endpoint is one rank's attachment to the fabric, split into N virtual
// communication interfaces. Each VCI owns a lock, match bins, buffer
// pool, and event — that is the "hardware" matching unit, replicated
// the way CH4's VCIs (Zambre et al.) replicate netmod contexts so
// concurrent goroutines of one rank stop convoying on a single endpoint
// lock. Remote ranks deposit messages under the target VCI's lock, and
// every receive, probe and matched probe searches one VCI under that
// VCI's lock alone: all traffic of one communicator rides the VCI its
// context names, so MPI's non-overtaking order is that VCI's queue
// order.
type Endpoint struct {
	f    *Fabric
	rank int
	vcis []*vci

	// agg is the aggregate event: it moves on every netmod or self
	// deposit, shm drain (Notify), active message, and wake anywhere on
	// the endpoint. Waits that cannot name a VCI sleep on it.
	agg   event
	aggMu sync.Mutex

	// Active messages ride a single endpoint-level queue (they are
	// rank-global control traffic: RMA, the baseline's packets), with an
	// atomic length so per-VCI waiters can poll it without the queue
	// lock.
	amMu   sync.Mutex
	amq    []am
	amqLen int32 // atomic, mutated under amMu

	handlers []AMHandler // by active-message id, as long as the largest registered
	meter    *proc.Rank
	// m caches meter.Metrics(), the owner's registry: only the owner's
	// goroutines write it (send-side counters, reaps, parks). A
	// depositing peer never touches it — what an arrival observes goes
	// to the VCI's arr, under the VCI lock.
	m *metrics.Rank

	// conns has one bit per world rank, set once this endpoint has
	// materialized send-side connection state toward it (the on-demand
	// connection model): first send to a new peer pays the profile's
	// ConnSetup cycles and ConnStateBytes of modeled memory, checked
	// against the fabric's MaxPeerBytes ceiling. Multiple VCI lanes of
	// one rank may race on the first touch: the one whose CAS sets the
	// bit pays for it, and every later send is one atomic load.
	// 8 B per 64 ranks per endpoint: 128 KiB over a 1024-rank world.
	conns []atomic.Uint64
}

// ConnStateBytes is the modeled per-connection state footprint (send
// queue descriptors, sequence/ack state — the address-vector entry plus
// QP-like state a real netmod keeps per connected peer).
const ConnStateBytes = 256

// via says which transport carried a deposited message, for
// receive-side path attribution.
type via uint8

const (
	viaNet via = iota
	viaShm
	viaSelf
)

func newEndpoint(f *Fabric, rank, nvci int) *Endpoint {
	ep := &Endpoint{f: f, rank: rank, vcis: make([]*vci, nvci), conns: make([]atomic.Uint64, (f.Size()+63)/64)}
	for i := range ep.vcis {
		s := new(vci)
		s.ev.init(&s.mu)
		ep.vcis[i] = s
	}
	ep.agg.init(&ep.aggMu)
	return ep
}

// norm maps AnyVCI to 0 on a single-VCI endpoint and bounds-checks
// every other index: on a multi-VCI endpoint only a wait may name
// AnyVCI (see event).
func (ep *Endpoint) norm(v int) int {
	if v == AnyVCI && len(ep.vcis) == 1 {
		return 0
	}
	if v < 0 || v >= len(ep.vcis) {
		panic(fmt.Sprintf("fabric: VCI %d out of range [0,%d)", v, len(ep.vcis)))
	}
	return v
}

// Bind attaches the owning rank, whose ledger the endpoint charges.
// Must be called before any operation that charges costs.
func (ep *Endpoint) Bind(m *proc.Rank) {
	ep.meter = m
	ep.m = m.Metrics()
}

// RegisterAM installs the handler for one active-message id. Handlers
// are installed at device init, before communication starts.
func (ep *Endpoint) RegisterAM(id uint8, h AMHandler) {
	if n := int(id) + 1; n > len(ep.handlers) {
		ep.handlers = append(ep.handlers, make([]AMHandler, n-len(ep.handlers))...)
	}
	ep.handlers[id] = h
}

// noteConn materializes send-side connection state toward dst if this
// is the first traffic that way: charge the profile's connection-setup
// cost, account the modeled state bytes, and enforce the per-rank
// ceiling. Steady-state cost is one atomic load of dst's bit.
func (ep *Endpoint) noteConn(dst int) {
	if dst == ep.rank {
		return
	}
	w, bit := &ep.conns[dst>>6], uint64(1)<<(dst&63)
	for {
		old := w.Load()
		if old&bit != 0 {
			return // touched before, or by another lane of this rank first
		}
		if w.CompareAndSwap(old, old|bit) {
			break
		}
	}
	if cs := ep.f.prof.ConnSetup; cs > 0 {
		ep.meter.ChargeCycles(instr.Transport, cs)
	}
	total := ep.m.NotePeerState(true, ConnStateBytes)
	ep.f.checkPeerCeiling(ep.rank, total)
}

// Conns returns the number of peers this endpoint holds connection
// state toward.
func (ep *Endpoint) Conns() int {
	n := 0
	for i := range ep.conns {
		n += bits.OnesCount64(ep.conns[i].Load())
	}
	return n
}

// EagerConnect materializes connection state toward every peer at once
// — the all-pairs setup the EagerPeers ablation restores, so the
// on-demand model has a measurable baseline. Called from the owner at
// endpoint open.
func (ep *Endpoint) EagerConnect() {
	for dst := 0; dst < ep.f.Size(); dst++ {
		ep.noteConn(dst)
	}
}

// bumpAgg publishes one endpoint-level event. Every path that can wake
// a parked waiter passes through here (deposit, wake, WakeVCI, Notify),
// so this is the single spot that proves liveness to the stall
// watchdog.
func (ep *Endpoint) bumpAgg() {
	ep.f.stall.Activity()
	ep.agg.signal()
}

// Notify publishes one endpoint-level event without touching any VCI's
// sequence: it wakes only the aggregate waiters, which is where a
// device parks for a send to complete. A lent send's releaser calls it
// from the consuming rank's goroutine, the ch4 device once per shm
// drain that deposited anything, and a creation collective's last
// depositor once per waiting peer (Device.Wake).
func (ep *Endpoint) Notify() { ep.bumpAgg() }

// TaggedSend injects a tagged send toward dst on the VCI its context
// names. The payload is always captured (copied by the receive or
// staged unexpected), so the caller may reuse data immediately.
func (ep *Endpoint) TaggedSend(dst int, bits match.Bits, data []byte) {
	ep.TaggedSendVCI(dst, bits, data, ep.f.VCIForCtx(bits.Context()), nil)
}

// TaggedSendVCI injects a tagged send toward dst's interface v, the
// one the device picked for the communicator.
// Messages up to the profile's eager limit are deposited directly;
// larger ones pay the rendezvous handshake in time (an RTS/CTS round
// trip before the data crosses) and extra control-message CPU on the
// sender — the latency cliff every MPI shows at its eager threshold.
// Matching happens at the destination as the message arrives — the
// hardware-offload model of PSM2 and UCX.
//
// rel, when non-nil, makes a rendezvous zero-copy: above the eager
// limit data is lent, not captured — a posted receive copies it once
// and releases at once, an unexpected arrival parks a view of data
// that the consuming receive copies (or folds) and then releases. The
// caller must keep data unchanged until rel.Release. Eager messages
// ignore rel (never released) and are captured like TaggedSend's;
// Rendezvous says which side of the limit a size falls on.
func (ep *Endpoint) TaggedSendVCI(dst int, bits match.Bits, data []byte, v int, rel ViewReleaser) {
	ep.noteConn(dst)
	p := &ep.f.prof
	ep.meter.ChargeCycles(instr.Transport, p.injectCost(p.SendInject, len(data)))
	ep.m.NetSend.Note(len(data))
	now := ep.meter.Now()
	if ep.f.Rendezvous(len(data)) {
		// RTS out, CTS back, then the payload: two extra wire
		// latencies plus the control processing.
		start := now
		ep.meter.ChargeCycles(instr.Transport, p.RndvInject)
		now = ep.meter.Now() + 2*vtime.Time(p.WireLatency)
		ep.m.Rndv.Note(len(data))
		// The handshake round-trip the sender paid before the payload
		// could cross: control processing plus two wire latencies.
		ep.m.Lat.RndvRTT.Observe(int64(now - start))
		ep.m.Flight.Record(flight.SendRndv, int64(now), dst, len(data), v)
	} else {
		ep.m.Eager.Note(len(data))
		ep.m.Flight.Record(flight.SendEager, int64(now), dst, len(data), v)
		rel = nil
	}
	arrival := p.arrivalAt(now, len(data))

	ep.f.Endpoint(dst).deposit(v, bits, ep.rank, data, arrival, viaNet, rel)
}

// ViewReleaser is the fabric's handle on a lent view — an shm handoff
// (*shm.Handoff) or a netmod rendezvous send (the device's send box):
// Release returns the lent buffer to its sender, with copied saying
// whether the consumer memcpy'd the payload out or folded it in place.
type ViewReleaser interface {
	Release(copied bool)
}

// deposit lands an incoming message at interface v of this endpoint:
// match against the posted queue or buffer as unexpected. Called from
// the sender's goroutine; data is borrowed from the caller for the
// duration of the call. A message that matches a posted receive copies
// straight into the receive buffer — no intermediate copy exists on the
// fast path; only an unexpected message pays for a (pooled) buffered
// copy. A non-nil rel marks data as a lent view (shm handoff or netmod
// rendezvous): it stays valid until rel is released, so the unexpected
// path parks it without a pooled copy and the matched path releases it
// (outside the VCI lock) once the receive consumed it.
func (ep *Endpoint) deposit(v int, bits match.Bits, src int, data []byte, arrival vtime.Time, via via, rel ViewReleaser) {
	v = ep.norm(v)
	s := ep.vcis[v]
	var fireRel ViewReleaser
	fireCopied := false
	s.mu.Lock()
	switch via {
	case viaShm:
		s.arr.ShmRecv.Note(len(data))
	case viaSelf:
		// Self-loop traffic is counted once, at delivery.
		s.arr.Self.Note(len(data))
	default:
		s.arr.NetRecv.Note(len(data))
	}
	m := s.getMessage()
	if entry, ok := s.eng.Arrive(bits, m); ok {
		s.putMessage(m)
		op := entry.Cookie.(*RecvOp)
		// Post→match: how long the receive sat posted before its
		// message arrived; op.posted is ordered by the engine
		// insertion under s.mu. A pre-posted match never touches the
		// unexpected queue: observe zero residency so the two
		// distributions stay message-count symmetric.
		s.arr.PostMatch.Observe(int64(arrival - op.posted))
		s.arr.UnexRes.Observe(0)
		s.arr.Flight.Record(flight.Deposit, int64(arrival), src, len(data), v)
		// Read op before completing it: once complete, its owner may
		// reap and Reset it without taking s.mu.
		if rel != nil {
			fireRel, fireCopied = rel, op.Fold == nil
		}
		s.completeRecv(op, bits, data, arrival)
	} else {
		m.src = src
		if rel != nil {
			// Lent view: park it as-is. No staging copy exists — the
			// payload waits in the sender's buffer.
			m.data, m.rel, m.via = data, rel, via
		} else {
			buf := s.pool.get(len(data), &s.arr)
			copy(buf, data)
			m.data = buf
			if len(data) > 0 {
				s.arr.CopiesStaged.Note(len(data))
			}
		}
		m.arrival = arrival
		s.arr.UnexpectedMax = max(s.arr.UnexpectedMax, int64(s.eng.UnexpectedLen()))
		s.arr.Flight.Record(flight.Unexpected, int64(arrival), src, len(data), v)
	}
	s.mu.Unlock()
	s.ev.signal()
	if via != viaShm {
		ep.bumpAgg() // shm: once per drain, by the device (Notify)
	}
	if fireRel != nil {
		fireRel.Release(fireCopied)
	}
}

// DepositShmVCI lands a message that arrived over the shared-memory
// rings on interface v (the sender's choice travels with the shm
// fragment), so that netmod and shmmod traffic share one
// matching context — which is what makes MPI_ANY_SOURCE receives work
// across transports in CH4. With rel nil, data is borrowed: the
// endpoint copies what it keeps, so the caller may reuse the slice as
// soon as the call returns. With rel set, data is a zero-copy handoff
// view that stays valid until rel is released: an unexpected view is
// parked as-is — no pooled copy — and consumed (one direct copy, or an
// in-place fold) whenever a receive claims it. An shm deposit moves its
// VCI's event sequence but not the aggregate one: the drain that
// delivers it runs on the receiving rank, which calls Notify once per
// drain that delivered anything.
func (ep *Endpoint) DepositShmVCI(bits match.Bits, src int, data []byte, arrival vtime.Time, v int, rel ViewReleaser) {
	ep.deposit(v, bits, src, data, arrival, viaShm, rel)
}

// DepositSelfVCI lands a self-loop message (the ch4-core self-send
// shortcut) on an explicitly named interface. data is borrowed, as by
// DepositShmVCI without a releaser.
func (ep *Endpoint) DepositSelfVCI(bits match.Bits, src int, data []byte, arrival vtime.Time, v int) {
	ep.deposit(v, bits, src, data, arrival, viaSelf, nil)
}

// wake nudges every waiter on the endpoint, on each interface and on
// the aggregate: an active message or an abort needs whichever
// goroutine is parked.
func (ep *Endpoint) wake() {
	for _, s := range ep.vcis {
		s.ev.signal()
	}
	ep.bumpAgg()
}

// WakeVCI nudges waiters on one interface (and aggregate waiters).
func (ep *Endpoint) WakeVCI(v int) {
	ep.vcis[ep.norm(v)].ev.signal()
	ep.bumpAgg()
}

// event returns what a wait on v watches, and the interface its park is
// recorded on: interface v's event, or the aggregate for AnyVCI.
func (ep *Endpoint) event(v int) (*event, int) {
	if v == AnyVCI {
		return &ep.agg, AnyVCI
	}
	v = ep.norm(v)
	return &ep.vcis[v].ev, v
}

// EventSeqVCI returns the event counter a wait on v watches. Interface
// v's moves only on that VCI's deposits and wakes (plus endpoint-wide
// wakes and active messages), so a waiter parked on it is not disturbed
// by unrelated traffic on other VCIs. AnyVCI's is the aggregate: it
// moves on every netmod or self deposit, shm drain (Notify), active
// message and wake anywhere on the endpoint.
func (ep *Endpoint) EventSeqVCI(v int) uint64 {
	ev, _ := ep.event(v)
	return ev.seq.Load()
}

// waitYields is how many times a waiting rank hands its processor to
// the other rank goroutines before it parks. With one P a yield runs
// every runnable rank once, so the peer a rank waits for has usually
// deposited by the time it runs again: the rank never sleeps, and the
// depositor's waiter gate skips the Broadcast. Swept on the benchmark's
// coll_mix and scale_halo (DESIGN.md §6a, "How a rank waits"): one
// yield got part of the gain, two saturated both (coll_mix 51.0 -> 44.4
// us/op, scale_halo 35.0 -> 24.2 ms/op, medians of three), four and
// eight were no better.
const waitYields = 2

// yieldFor reports whether seq has moved past last, or an active
// message is pending, within waitYields yields of the processor: the
// wait is then over without a park.
func (ep *Endpoint) yieldFor(seq *atomic.Uint64, last uint64) bool {
	for i := 0; ; i++ {
		if seq.Load() != last || atomic.LoadInt32(&ep.amqLen) != 0 {
			return true
		}
		if i == waitYields {
			return false
		}
		runtime.Gosched()
	}
}

// WaitEventVCI blocks until v's event counter (EventSeqVCI) moves past
// last, or active messages are pending, which any waiter must surface
// for progress, then returns the counter's new value. Devices that poll
// several transports use it to park between polls without losing
// wakeups. It is the fabric's one park site for rank waits: yield
// first, then sleep. Panics with abort.ErrWorldAborted once the fabric
// is aborted.
func (ep *Endpoint) WaitEventVCI(v int, last uint64) uint64 {
	ev, v := ep.event(v)
	if ep.yieldFor(&ev.seq, last) {
		return ev.seq.Load()
	}
	parked := false
	defer ep.unpark(&parked)
	ev.mu.Lock()
	ev.waiters.Add(1)
	for ev.seq.Load() == last && atomic.LoadInt32(&ep.amqLen) == 0 {
		ep.f.aborted.CheckLocked(ev.mu)
		ep.park(&parked, v)
		ev.cond.Wait()
	}
	ev.waiters.Add(-1)
	ev.mu.Unlock()
	return ev.seq.Load()
}

// park marks the calling goroutine blocked on interface v (whose lock
// it holds; AnyVCI for the endpoint-wide wait), once per wait: it tells
// the stall watchdog, and records and publishes the park (the owner's
// clock and flight ring, for dumps from other goroutines). unpark,
// deferred by the waiter, undoes the watchdog's half.
func (ep *Endpoint) park(parked *bool, v int) {
	if !*parked {
		*parked = true
		ep.f.stall.Park(ep.rank)
		ep.m.NotePark(int64(ep.meter.Now()), -1, v)
		if v >= 0 {
			ep.noteOwner(ep.vcis[v])
		}
	}
}

func (ep *Endpoint) unpark(parked *bool) {
	if *parked {
		ep.f.stall.Unpark(ep.rank)
	}
}

// completeRecv consumes a (borrowed) payload into the receive buffer —
// the final direct copy, or an in-place fold when the op carries one —
// and fills results. Caller holds the lock of s, the VCI delivering the
// message; the atomic done.Store publishes the result fields to
// whichever goroutine observes completion. The source reported is the
// MPI-level source the sender encoded in the match bits (its
// communicator rank), not the transport address.
func (s *vci) completeRecv(op *RecvOp, bits match.Bits, data []byte, arrival vtime.Time) {
	var n int
	if op.Fold != nil {
		n = len(data)
		if n > len(op.Buf) {
			n = len(op.Buf)
		}
		op.Fold(op.Buf[:n], data[:n])
	} else {
		n = copy(op.Buf, data)
		if n > 0 {
			s.arr.CopiesDirect.Note(n)
		}
	}
	op.N = n
	op.Truncated = n < len(data)
	op.Src = bits.Source()
	op.Tag = bits.Tag()
	op.Arrival = arrival
	op.done.Store(true)
}

// lookup is the receive side's one matching step, shared by
// PostRecvVCI, ProbeVCI and MProbeVCI: it locks interface v and finds
// the earliest buffered message satisfying (bits, mask). A post (op
// non-nil) is one engine PostRecv, which on a miss also inserts op; a
// take is ExtractUnexpected, a look Probe. lookup charges the matching
// work its engine counted; the caller consumes the hit under the lock,
// then calls endLookup.
func (ep *Endpoint) lookup(v int, bits, mask match.Bits, op *RecvOp, take bool) (hit match.Entry, ok bool) {
	s := ep.vcis[v]
	s.mu.Lock()
	bins, searches := s.eng.BinOps, s.eng.Searches
	switch {
	case op != nil:
		hit, ok = s.eng.PostRecv(bits, mask, op)
	case take:
		hit, ok = s.eng.ExtractUnexpected(bits, mask)
	default:
		hit, ok = s.eng.Probe(bits, mask)
	}
	ep.meter.ChargeCycles(instr.Transport, ep.f.prof.matchCost(s.eng.BinOps-bins, s.eng.Searches-searches))
	return hit, ok
}

// endLookup drops the lock lookup took on v, then fires rel, if any,
// outside it (see consumeMessage).
func (ep *Endpoint) endLookup(v int, rel ViewReleaser, copied bool) {
	ep.vcis[v].mu.Unlock()
	if rel != nil {
		rel.Release(copied)
	}
}

// PostRecv hands a receive to the matching unit of the VCI its context
// names. If an unexpected message already satisfies it the op completes
// immediately and its buffered copy returns to the pool. The matching
// unit's bin and search work is charged at the handoff, priced by the
// profile.
func (ep *Endpoint) PostRecv(op *RecvOp, bits match.Bits, mask match.Bits) {
	ep.PostRecvVCI(op, bits, mask, ep.f.VCIForCtx(bits.Context()))
}

// PostRecvVCI hands a receive to interface v's matching unit. The
// earliest buffered match completes it at once; failing that it is
// posted there.
func (ep *Endpoint) PostRecvVCI(op *RecvOp, bits match.Bits, mask match.Bits, v int) {
	ep.meter.ChargeCycles(instr.Transport, ep.f.prof.RecvPost)
	now := ep.meter.Now()
	v = ep.norm(v)
	op.posted, op.vci = now, v
	var rel ViewReleaser
	s := ep.vcis[v]
	if hit, ok := ep.lookup(v, bits, mask, op, true); ok {
		rel = ep.unexHit(s, op, hit, now, v)
	} else {
		ep.m.Raise(&ep.m.Match.PostedMax, int64(s.eng.PostedLen()))
		ep.m.Flight.Record(flight.PostRecv, int64(now), recvPeer(bits, mask), 0, v)
	}
	ep.noteOwner(s)
	ep.endLookup(v, rel, op.Fold == nil)
}

// unexHit completes op from the unexpected message entry holds, found
// on s: the message spent the span since its arrival on the unexpected
// queue; the receive itself waited zero. Caller is the owner, holds
// s.mu and fires the returned releaser after dropping it.
func (ep *Endpoint) unexHit(s *vci, op *RecvOp, entry match.Entry, now vtime.Time, v int) ViewReleaser {
	m := entry.Cookie.(*message)
	s.arr.UnexRes.Observe(int64(now - m.arrival))
	s.arr.PostMatch.Observe(0)
	ep.m.Flight.Record(flight.UnexHit, int64(now), m.src, len(m.data), v)
	s.completeRecv(op, entry.Bits, m.data, m.arrival)
	return s.consumeMessage(m)
}

// noteOwner stamps s's arrival lane with the owner's flight-ring
// position: whatever lands on s from here on follows every event the
// owner has recorded so far. Owner goroutines, holding s.mu.
func (ep *Endpoint) noteOwner(s *vci) { s.arr.Flight.After = ep.m.Flight.Pos() }

// recvPeer is the flight-recorder peer of a posted receive: the
// constrained source, or -1 under MPI_ANY_SOURCE.
func recvPeer(bits, mask match.Bits) int {
	if mask.SourceWild() {
		return -1
	}
	return bits.Source()
}

// RecvDone polls one receive for completion. On the completing poll it
// syncs the owner's clock to the message arrival and charges the
// completion-reap cost.
func (ep *Endpoint) RecvDone(op *RecvOp) bool {
	if !op.done.Load() {
		return false
	}
	ep.reap(op)
	return true
}

// reap accounts for a completed receive on the owner's clock, exactly
// once per op.
func (ep *Endpoint) reap(op *RecvOp) {
	if op.reaped {
		return
	}
	op.reaped = true
	// Wait park time: the virtual-time jump Sync is about to perform —
	// how far ahead of this rank's clock the completion arrived (zero
	// when the rank got there after the message).
	now := ep.meter.Now()
	ep.m.Lat.WaitPark.Observe(int64(op.Arrival - now))
	ep.meter.Sync(op.Arrival)
	ep.meter.ChargeCycles(instr.Transport, ep.f.prof.RecvComplete)
	ep.m.Flight.Record(flight.RecvDone, int64(ep.meter.Now()), op.Src, op.N, op.vci)
}

// ProbeVCI checks interface v for a buffered unexpected message matching (bits, mask) and returns its
// source, tag and size without consuming it. The matching unit's work
// is charged like any other search.
func (ep *Endpoint) ProbeVCI(bits, mask match.Bits, v int) (src, tag, size int, ok bool) {
	v = ep.norm(v)
	hit, ok := ep.lookup(v, bits, mask, nil, false)
	if ok {
		m := hit.Cookie.(*message)
		src, tag, size = m.src, hit.Bits.Tag(), len(m.data)
	}
	ep.endLookup(v, nil, false)
	return src, tag, size, ok
}

// MProbeVCI extracts a buffered unexpected message matching (bits,
// mask) from interface v: the matched-probe primitive. The returned payload is owned
// by the caller (it leaves the pool for good); the message can no
// longer match any posted receive.
func (ep *Endpoint) MProbeVCI(bits, mask match.Bits, v int) (src, tag int, data []byte, arrival vtime.Time, ok bool) {
	now := ep.meter.Now()
	v = ep.norm(v)
	hit, ok := ep.lookup(v, bits, mask, nil, true)
	var rel ViewReleaser
	if ok {
		s, m := ep.vcis[v], hit.Cookie.(*message)
		src, tag, arrival = hit.Bits.Source(), hit.Bits.Tag(), m.arrival
		s.arr.UnexRes.Observe(int64(now - m.arrival))
		data, rel = s.ownMProbeData(m)
		s.putMessage(m)
	}
	ep.endLookup(v, rel, true)
	return src, tag, data, arrival, ok
}

// ownMProbeData turns an extracted unexpected message's payload into a
// caller-owned buffer. A pooled payload already leaves the pool for
// good; a lent view (shm handoff or netmod rendezvous) cannot outlive
// its release, so it is copied into fresh storage (that staging copy is
// what a matched probe costs a lent send) and the view is released once
// the caller drops the VCI lock.
func (s *vci) ownMProbeData(m *message) ([]byte, ViewReleaser) {
	if m.rel == nil {
		return m.data, nil
	}
	buf := append([]byte(nil), m.data...)
	if len(buf) > 0 {
		// The copy's cycle cost is charged by the release below
		// (an shm Release with copied=true prices one per-byte pass;
		// the netmod priced its rendezvous at injection).
		s.arr.CopiesStaged.Note(len(buf))
	}
	rel := m.rel
	m.data, m.rel = nil, nil
	return buf, rel
}

// AMSend injects an active message toward dst. hdr and payload are
// copied. Every waiter on the target wakes: whichever goroutine is
// parked must surface to run the progress engine.
func (ep *Endpoint) AMSend(dst int, handler uint8, hdr, payload []byte) {
	ep.noteConn(dst)
	p := &ep.f.prof
	ep.meter.ChargeCycles(instr.Transport, p.injectCost(p.AMInject, len(hdr)+len(payload)))
	ep.m.AmSend.Note(len(hdr) + len(payload))
	arrival := p.arrival(ep.meter.Now(), len(hdr)+len(payload))

	h := append([]byte(nil), hdr...)
	pl := append([]byte(nil), payload...)
	tgt := ep.f.Endpoint(dst)
	tgt.amMu.Lock()
	tgt.amq = append(tgt.amq, am{src: ep.rank, handler: handler, hdr: h, payload: pl, arrival: arrival})
	atomic.AddInt32(&tgt.amqLen, 1)
	tgt.amMu.Unlock()
	ep.m.Flight.Record(flight.AMSend, int64(arrival), dst, len(hdr)+len(payload), AnyVCI)
	tgt.wake()
}

// Progress runs pending active-message handlers. It returns the number
// of messages handled. Handlers run on the calling goroutine; devices
// that use active messages keep progress on the owner goroutine. An
// empty queue costs one atomic load: the lock is taken only to drain.
func (ep *Endpoint) Progress() int {
	total := 0
	for atomic.LoadInt32(&ep.amqLen) != 0 {
		ep.amMu.Lock()
		batch := ep.amq
		ep.amq = nil
		atomic.AddInt32(&ep.amqLen, -int32(len(batch)))
		ep.amMu.Unlock()
		if len(batch) == 0 {
			break // a ThreadMultiple sibling drained it first
		}
		// AmRecv counts at delivery (when the handler runs), not at
		// enqueue, so a snapshot never reports still-queued messages
		// as received.
		for i := range batch {
			m := &batch[i]
			ep.m.AmRecv.Note(len(m.hdr) + len(m.payload))
			ep.m.Flight.Record(flight.AMRecv, int64(m.arrival), m.src, len(m.hdr)+len(m.payload), AnyVCI)
		}
		for i := range batch {
			// No clock sync here: the handler runs asynchronously to
			// the rank's logical timeline (a NIC/progress-thread
			// stand-in). Consumers fold m.arrival into the clock at
			// the point the message's effect is logically observed
			// (receive completion, ack wait, epoch close); syncing at
			// drain time would let real-goroutine scheduling races
			// leak future timestamps into the virtual clock.
			m := &batch[i]
			var h AMHandler
			if int(m.handler) < len(ep.handlers) {
				h = ep.handlers[m.handler]
			}
			if h == nil {
				panic("fabric: active message with unregistered handler")
			}
			h(m.src, m.hdr, m.payload, m.arrival)
		}
		total += len(batch)
	}
	return total
}

// SnapshotStats snapshots the bound rank's registry — owner
// goroutines only, like every write to it — and folds in what lives on
// the interfaces, taking the VCI locks one at a time: the per-VCI
// traffic split, the arrival-side counters peers write under those
// locks, and the matching engines' counters (all zero on a device that
// matches in software at the MPI layer, which adds its own engine's).
func (ep *Endpoint) SnapshotStats() metrics.Snapshot {
	snap := ep.m.Snapshot()
	snap.VCIs = make([]metrics.VCIStat, len(ep.vcis))
	for i, s := range ep.vcis {
		s.mu.Lock()
		// deposit notes each message on exactly one arrival path.
		a := &s.arr
		snap.VCIs[i] = metrics.VCIStat{
			Msgs:      a.NetRecv.Msgs + a.ShmRecv.Msgs + a.Self.Msgs,
			Bytes:     a.NetRecv.Bytes + a.ShmRecv.Bytes + a.Self.Bytes,
			Events:    int64(s.ev.seq.Load()),
			PostMatch: a.PostMatch.Snapshot(),
		}
		a.AddTo(&snap)
		snap.Match.BinOps += s.eng.BinOps
		snap.Match.Searches += s.eng.Searches
		snap.Match.BinHits += s.eng.BinHits
		snap.Match.WildHits += s.eng.WildHits
		s.mu.Unlock()
	}
	return snap
}
