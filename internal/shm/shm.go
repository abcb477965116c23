// Package shm is the shared-memory transport — the stand-in for CH4's
// POSIX shmmod. Ranks on the same node exchange messages through
// fixed-size cell rings: one single-producer/single-consumer ring per
// ordered on-node rank pair, allocated lazily. A message is fragmented
// into cells by the sender and reassembled by the receiver's progress
// loop (a one-cell message is not: it is read from its cell), which
// then hands the complete message to a delivery callback
// (the CH4 device wires this to the rank's matching engine so netmod
// and shmmod traffic share one matching context).
//
// The model and the host count a ring's bytes differently. The model
// reserves every cell's full payload capacity (RingStateBytes, which
// MaxPeerBytes and the peer-state metrics count), as a real shmmod
// maps its whole segment up front. The host stores a fragment of up to
// 64 bytes inline in its cell, next to the header, and allocates the
// ring's ringCells×cellSize payload slab only when the first longer
// fragment is sent: a ring that only ever carries small messages never
// pays for it.
//
// Above a configurable threshold (Config.EagerMax) the transport
// switches from the staged cell protocol to a zero-copy handoff: the
// sender publishes a borrowed read-only view of its user buffer as one
// header-only descriptor cell, the receiver consumes the view directly
// (a single copy into the posted buffer, or none at all when a
// reduction folds the view in place), and completion is signaled back
// to the sender as a header cell on the reverse ring so buffer-reuse
// semantics stay correct. See DESIGN.md §6e.
package shm

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"gompi/internal/flight"
	"gompi/internal/instr"
	"gompi/internal/match"
	"gompi/internal/proc"
	"gompi/internal/vtime"
)

// CellSize is the default payload capacity of one ring cell, the
// fragment size of the modelled protocol. Real shmmods use
// cache-line-multiple cells; 4 KiB amortizes header costs for the halo
// exchanges the applications do.
const CellSize = 4096

// RingCells is the default number of cells per ring: 256 KiB of
// modelled payload per ordered pair, which the host allocates only
// once a fragment longer than a cell's inline bytes is sent.
const RingCells = 64

// Config overrides the transport's geometry and protocol thresholds.
// The zero value selects the package defaults with the handoff
// protocol disabled, which reproduces the historical staged-only
// behavior exactly.
type Config struct {
	// CellSize is the payload capacity of one ring cell in bytes
	// (default CellSize). Smaller cells mean more fragments and more
	// per-cell header charges for the same payload — the knob the
	// eager/handoff crossover sweep turns.
	CellSize int
	// RingCells is the number of cells per ring (default RingCells).
	RingCells int
	// EagerMax is the staged/handoff protocol threshold in bytes:
	// payloads strictly larger than it are published as zero-copy
	// handoff descriptors. 0 (the default) disables the handoff path.
	EagerMax int
	// MaxPeerBytes is the hard per-rank ceiling on modeled per-peer
	// state bytes; ring materialization counts toward it (mirroring the
	// fabric's connection accounting) and exceeding it panics the
	// creating rank. 0 means unlimited.
	MaxPeerBytes int64
}

// Modeled fixed costs of one SPSC ring beyond its cell payloads: the
// per-cell header (sequence, match bits, length fields) and the ring's
// own head/tail/scratch bookkeeping.
const (
	cellHeaderBytes = 64
	ringFixedBytes  = 192
)

// inlineBytes is the payload a cell carries in place, next to its
// header: one cache line. A fragment no longer than it never touches
// the ring's slab.
const inlineBytes = 64

// Profile is the shared-memory cost model: on-node messaging costs an
// order of magnitude less than NIC injection, which is the reason CH4
// dispatches on locality at all (the locality ablation benchmark
// measures exactly this gap).
type Profile struct {
	SendOverhead vtime.Cycles // per-message sender bookkeeping
	CellOverhead vtime.Cycles // per-cell header write/read
	PerByte      float64      // copy cost per byte (each side)
	Latency      vtime.Cycles // cache-coherence delivery latency
	RecvOverhead vtime.Cycles // per-message receiver bookkeeping
	// HandoffOverhead is the extra descriptor bookkeeping a zero-copy
	// handoff pays at publish (pinning the view, writing the
	// descriptor) instead of the staged path's per-cell copy charges.
	HandoffOverhead vtime.Cycles
}

// DefaultProfile models a contemporary two-socket node.
var DefaultProfile = Profile{
	SendOverhead:    90,
	CellOverhead:    20,
	PerByte:         0.25,
	Latency:         180,
	RecvOverhead:    70,
	HandoffOverhead: 60,
}

// Deliver hands a complete message to the device on the receiving
// rank's goroutine. data is borrowed: it is the message's ring cell (a
// one-cell message) or the ring's reassembly scratch, and either is
// overwritten by a later message, so the callee must copy whatever it
// keeps before returning. vci is the
// sender-chosen virtual communication interface the message should land
// on (0 when the sender does not thread VCIs).
type Deliver func(dst int, bits match.Bits, src int, data []byte, arrival vtime.Time, vci int)

// Releaser is the receive side's handle on a lent handoff view: the
// consumer calls Release exactly once when it is finished reading the
// view, with copied saying whether it memcpy'd the payload out (true
// for a copy into a posted buffer, false for an in-place fold that
// never moved the bytes). After Release the view must not be touched —
// the sender is free to reuse its buffer.
type Releaser interface {
	Release(copied bool)
}

// DeliverView hands a zero-copy handoff view to the device on the
// receiving rank's goroutine. Unlike Deliver's scratch, view is the
// sender's live user buffer: it remains valid (read-only) until rel is
// released, so the device may park it unexpected without copying and
// consume it much later.
type DeliverView func(dst int, bits match.Bits, src int, view []byte, arrival vtime.Time, vci int, rel Releaser)

// Wake nudges a rank that may be parked waiting for transport events,
// naming the virtual interface the pending work belongs to.
type Wake func(dst, vci int)

// Wait blocks a goroutine of the rank it is bound to until ready
// reports true: the device's event loop, which serves the rank's
// transports (its own rings included) and parks between evaluations of
// ready. A Wake of the rank ends the park.
type Wait func(ready func() bool)

// Domain is one node's (or a whole job's) shared-memory segment: the
// set of rings between co-located ranks.
type Domain struct {
	prof        Profile
	deliver     Deliver
	deliverView DeliverView
	wake        Wake

	cellSize     int
	ringCells    int
	eagerMax     int
	maxPeerBytes int64

	meters []*proc.Rank
	waits  []Wait

	// mu is the ring-creation lock: taken on a pair's first message and
	// on no path a later message or a poll travels. lockTouches counts
	// its acquisitions, for the test that holds the steady state to it.
	mu          sync.Mutex
	lockTouches int64

	// out[src] is the table of rings src produces into, sorted by
	// destination; in[dst] is dst's feeder list, sorted by source. Both
	// are immutable snapshots (never nil), replaced copy-on-write under
	// mu and published before the creating sender writes its first
	// cell: a reader needs one atomic load, shares no written cache
	// line, and reads an empty table as "no rings", never "unknown".
	out, in []atomic.Pointer[[]link]
}

// link is one entry of a ring table: the rank at the other end of r.
type link struct {
	peer int
	r    *ring
}

// withLink returns tab with l placed at index i, built in the empty
// window into.
func withLink(into, tab []link, i int, l link) []link {
	return append(append(append(into, tab[:i]...), l), tab[i:]...)
}

// search returns the index in the peer-sorted tab at which peer is or
// would be inserted, and the ring tab holds for peer, if any.
func search(tab []link, peer int) (int, *ring) {
	lo, hi := 0, len(tab)
	for lo < hi {
		if mid := (lo + hi) / 2; tab[mid].peer < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(tab) && tab[lo].peer == peer {
		return lo, tab[lo].r
	}
	return lo, nil
}

// eachRing visits every ring in (src, dst) order.
func (d *Domain) eachRing(visit func(src, dst int, r *ring)) {
	for src := range d.out {
		for _, l := range *d.out[src].Load() {
			visit(src, l.peer, l.r)
		}
	}
}

// NewDomain creates a shared-memory domain for n ranks with the
// default geometry and the handoff protocol disabled.
func NewDomain(prof Profile, n int, deliver Deliver, wake Wake) *Domain {
	return NewDomainCfg(prof, Config{}, n, deliver, wake)
}

// NewDomainCfg is NewDomain with explicit geometry and protocol
// thresholds. Non-positive Config fields select the package defaults
// (EagerMax <= 0 disables the handoff path).
func NewDomainCfg(prof Profile, cfg Config, n int, deliver Deliver, wake Wake) *Domain {
	if deliver == nil {
		panic("shm: nil deliver callback")
	}
	if cfg.CellSize <= 0 {
		cfg.CellSize = CellSize
	}
	if cfg.RingCells <= 0 {
		cfg.RingCells = RingCells
	}
	if cfg.EagerMax < 0 {
		cfg.EagerMax = 0
	}
	if wake == nil {
		wake = func(int, int) {}
	}
	d := &Domain{
		prof:         prof,
		deliver:      deliver,
		wake:         wake,
		cellSize:     cfg.CellSize,
		ringCells:    cfg.RingCells,
		eagerMax:     cfg.EagerMax,
		maxPeerBytes: cfg.MaxPeerBytes,
		meters:       make([]*proc.Rank, n),
		waits:        make([]Wait, n),
		out:          make([]atomic.Pointer[[]link], n),
		in:           make([]atomic.Pointer[[]link], n),
	}
	none := new([]link)
	for i := 0; i < n; i++ {
		d.out[i].Store(none)
		d.in[i].Store(none)
	}
	return d
}

// Bind attaches rank's ledger. Must precede communication involving
// the rank.
func (d *Domain) Bind(rank int, m *proc.Rank) { d.meters[rank] = m }

// BindWait attaches the wait rank's producers block in on a full ring.
// Must precede the rank's first full ring.
func (d *Domain) BindWait(rank int, wait Wait) { d.waits[rank] = wait }

// SetDeliverView attaches the zero-copy view delivery callback. When
// unset, handoff views fall back to the staged Deliver callback (the
// view is handed over borrowed and released as a copy immediately
// after), so a Domain without device glue still moves handoff traffic
// correctly.
func (d *Domain) SetDeliverView(dv DeliverView) { d.deliverView = dv }

// Profile exposes the domain's cost model, so callers that move bytes
// through shared memory outside the ring protocol (zero-copy RMA on
// shm-backed windows) charge the same per-byte and per-cell costs.
func (d *Domain) Profile() Profile { return d.prof }

// EagerMax reports the staged/handoff threshold (0 when the handoff
// path is disabled).
func (d *Domain) EagerMax() int { return d.eagerMax }

// ring is a bounded lock-free SPSC queue of cells from src to dst, laid
// out the way a real shmmod lays out its shared segment: a fixed
// circular buffer of fixed-size cells written in place by the producer
// and read in place by the consumer, with no allocation per message.
//
// tail counts cells published and only the producer writes it; head
// counts cells retired and only the consumer does. The producer fills
// cell tail%N, then stores tail+1: that store publishes the cell to the
// consumer's load of tail. The consumer reads cell head%N, then stores
// head+1, which hands the slot back. A producer that finds the ring full
// waits in its rank's bound Wait, whose readiness check stores waiting
// and then reads head again; the consumer, after every store of head,
// loads waiting and only if it is set clears it and wakes the producer's
// rank. The atomics are sequentially consistent, so of "store waiting,
// load head" and "store head, load waiting" at least one load sees the
// other side's store: the producer sees the freed slot and does not
// park, or the consumer sees the flag and wakes it, once per wait. No
// wakeup is lost, and the two sides share no lock.
//
// "The producer" and "the consumer" are whoever holds prodMu and
// drainMu: they make one of each out of ThreadMultiple siblings, and
// with one goroutine per rank each has one taker and is never contended
// (skipping them there bought nothing end to end: CHANGES.md, PR 23).
//
// Field order is layout: the producer's words, a line of padding, the
// consumer's, which puts head a cache line or more past every
// producer-written word: wherever the allocator puts the ring, they
// share no line (TestRingLayout).
type ring struct {
	// Producer-written. lent counts handoff views published; hFree is the
	// descriptor freelist that keeps the handoff path allocation-free
	// after warmup, popped at publish and pushed at FinishHandoff.
	tail            atomic.Uint64
	waiting         atomic.Bool
	lent, lentBytes atomic.Int64
	hFree           *Handoff
	// slab backs the long-payload slots of every cell: nil until the
	// first fragment longer than inlineBytes, created by the producer
	// before it publishes that cell, and never replaced, so a consumer
	// reads it only for a cell whose publication ordered the store.
	slab []byte
	// prodMu serializes whole messages of sibling producers, whose
	// fragments would otherwise interleave. It is held across full-ring
	// waits too: the consumer needs no producer lock, so draining always
	// frees the blocked producer.
	prodMu sync.Mutex

	cells []cell // read-only after creation
	_     [64]byte

	// Consumer-written. released counts lent views given back, so
	// lent-released is what the wait graph prints.
	head                    atomic.Uint64
	released, releasedBytes atomic.Int64
	// drainMu serializes sibling consumers: the reassembly state below
	// is one goroutine's at a time. cur is a grow-only scratch, lent to
	// Deliver; its length is copied to mid, for dumps, only by a drain
	// that stops mid-message.
	drainMu sync.Mutex
	cur     []byte
	curBits match.Bits
	curVCI  int
	curLen  int
	arrival vtime.Time
	mid     atomic.Int64
}

// cell is one ring slot. vci and n (at most cellSize) are 32-bit so
// the header and the inline line fit in 104 B: eight cells plus the
// allocator's header of a pointerful object stay in one 896 B size
// class.
type cell struct {
	bits    match.Bits
	vci     int32 // sender-chosen VCI (repeated in every fragment)
	n       int32 // payload bytes in this fragment
	msgLen  int   // total message length (repeated in every fragment)
	arrival vtime.Time
	h       *Handoff // descriptor cell: lent view instead of payload
	inline  [inlineBytes]byte
}

// payload is cell i's n-byte fragment: its inline bytes when n fits
// there, else its slot of the slab. The three-index slice keeps a slot
// from reaching into its neighbour's.
func (r *ring) payload(i uint64, n, cellSize int) []byte {
	if n <= inlineBytes {
		return r.cells[i].inline[:n]
	}
	off := int(i) * cellSize
	return r.slab[off : off+n : off+cellSize]
}

// RingStateBytes reports the modeled memory footprint of one ring with
// the domain's geometry — the unit of shm per-peer state the
// MaxPeerBytes ceiling counts.
func (d *Domain) RingStateBytes() int64 {
	return int64(d.ringCells)*int64(d.cellSize+cellHeaderBytes) + ringFixedBytes
}

// ring returns the src→dst ring: after a pair's first message, one
// atomic load and a search of src's own table.
func (d *Domain) ring(src, dst int) *ring {
	if _, r := search(*d.out[src].Load(), dst); r != nil {
		return r
	}
	return d.createRing(src, dst)
}

// createRing is a pair's first touch. The ring is built before the
// creation lock is taken, without its payload slab; goroutines of one
// rank may race here under MPI_THREAD_MULTIPLE, and the loser discards
// its ring.
func (d *Domain) createRing(src, dst int) *ring {
	r := &ring{cells: make([]cell, d.ringCells)}

	d.mu.Lock()
	d.lockTouches++
	in, out := *d.in[dst].Load(), *d.out[src].Load()
	at, won := search(out, dst)
	if won != nil {
		d.mu.Unlock()
		return won
	}
	// One array backs both new snapshots and one object both headers.
	// Feeders first: dst is never sent a cell from a ring its list lacks.
	buf, hdr := make([]link, len(in)+len(out)+2), new([2][]link)
	cut := len(in) + 1
	feeds, _ := search(in, src)
	hdr[0] = withLink(buf[:0:cut], in, feeds, link{src, r})
	hdr[1] = withLink(buf[cut:cut], out, at, link{dst, r})
	d.in[dst].Store(&hdr[0])
	d.out[src].Store(&hdr[1])
	d.mu.Unlock()

	if m := d.meters[src]; m != nil {
		// Ring state is charged to its creator (the sender). The ring
		// is the first — and only — shm state toward that peer, so it
		// also counts as a peer touch.
		total := m.Metrics().NotePeerState(true, d.RingStateBytes())
		if d.maxPeerBytes > 0 && total > d.maxPeerBytes {
			panic(fmt.Sprintf("shm: rank %d per-peer state %d bytes exceeds MaxPeerBytes %d",
				src, total, d.maxPeerBytes))
		}
	}
	return r
}

// Preconnect materializes the src→dst ring eagerly — the all-pairs
// on-node setup the EagerPeers ablation restores at endpoint open.
func (d *Domain) Preconnect(src, dst int) {
	if src == dst {
		return
	}
	d.ring(src, dst)
}

// Handoff is one in-flight zero-copy transfer: the sender's view of
// the completion protocol. The sender must treat the lent buffer as
// immutable until Done reports true, then call the domain's
// FinishHandoff to charge the completion-ack read and recycle the
// descriptor. Handoffs come from a per-ring freelist, so the steady
// state allocates nothing.
type Handoff struct {
	d         *Domain
	r         *ring
	src, dst  int
	vci       int
	bytes     int
	view      []byte
	published vtime.Time
	ackAt     vtime.Time
	done      atomic.Bool
	next      *Handoff
}

// Done reports whether the receiver has released the lent view (the
// sender's buffer is reusable). The atomic load orders the receiver's
// ackAt write before the sender's FinishHandoff read.
func (h *Handoff) Done() bool { return h.done.Load() }

// Release returns the lent view to the sender: the consumer charges
// the single direct copy (when copied) and the completion-ack header
// cell it writes on the reverse ring, then wakes the sender. Runs on
// the receiving rank's goroutine, exactly once per handoff.
func (h *Handoff) Release(copied bool) {
	d := h.d
	m := d.meters[h.dst]
	p := &d.prof
	cost := p.CellOverhead // completion-ack header cell write
	if copied {
		cost += vtime.Cycles(p.PerByte * float64(h.bytes))
	}
	m.ChargeCycles(instr.Transport, cost)
	h.ackAt = m.Now() + vtime.Time(p.Latency)
	h.r.released.Add(1)
	h.r.releasedBytes.Add(int64(h.bytes))
	src, vci := h.src, h.vci // once done, the sender may reuse h
	h.done.Store(true)
	d.wake(src, vci)
}

// FinishHandoff completes the sender side of a released handoff: sync
// to the ack's arrival, charge the ack header read, record the
// publish→ack round trip, and recycle the descriptor. Call only after
// Done reports true, on the sending rank's goroutine.
func (d *Domain) FinishHandoff(h *Handoff) {
	m := d.meters[h.src]
	p := &d.prof
	m.Sync(h.ackAt)
	m.ChargeCycles(instr.Transport, p.CellOverhead) // completion-ack header read
	m.Metrics().Lat.HandoffRTT.Observe(int64(h.ackAt - h.published))
	m.Metrics().Flight.Record(flight.HandoffDone, int64(m.Now()), h.dst, h.bytes, h.vci)
	r := h.r
	h.view = nil
	h.bytes = 0
	h.done.Store(false)
	// A sibling mid-message holds the freelist, perhaps waiting on a full
	// ring: drop the descriptor rather than wait behind it.
	if r.prodMu.TryLock() {
		h.next, r.hFree = r.hFree, h
		r.prodMu.Unlock()
	}
}

// Send fragments data into cells and pushes them onto the (src→dst)
// ring, blocking whenever the ring is full (bounded eager protocol).
// Zero-length messages occupy one header-only cell. The message lands
// on the destination's VCI 0. Send always stages — callers that can
// track handoff completion use SendVCI.
func (d *Domain) Send(src, dst int, bits match.Bits, data []byte) {
	d.send(src, dst, bits, data, 0, false)
}

// SendStagedVCI is SendVCI restricted to the staged cell protocol:
// the payload is captured into ring cells before return, so the caller
// may reuse its buffer immediately. Used for requestless sends that
// have no way to observe a handoff completion.
func (d *Domain) SendStagedVCI(src, dst int, bits match.Bits, data []byte, vci int) {
	d.send(src, dst, bits, data, vci, false)
}

// SendVCI is Send with an explicit destination virtual interface: the
// sender's hint-refined VCI choice travels with every fragment so the
// receiving device deposits the reassembled message on the right
// matching context. Payloads above the configured EagerMax take the
// zero-copy handoff path and return a non-nil Handoff: the caller must
// keep data immutable until the handoff is Done, then FinishHandoff.
// A nil return means the payload was staged and the buffer is free.
func (d *Domain) SendVCI(src, dst int, bits match.Bits, data []byte, vci int) *Handoff {
	return d.send(src, dst, bits, data, vci, true)
}

func (d *Domain) send(src, dst int, bits match.Bits, data []byte, vci int, allowHandoff bool) *Handoff {
	m := d.meters[src]
	if m == nil {
		panic(fmt.Sprintf("shm: rank %d sent without a bound meter", src))
	}
	p := &d.prof
	m.ChargeCycles(instr.Transport, p.SendOverhead)
	// Receive-side accounting happens where the reassembled message is
	// delivered into the endpoint (DepositShm), on the receiving rank.
	m.Metrics().ShmSend.Note(len(data))
	r := d.ring(src, dst)
	r.prodMu.Lock()
	defer r.prodMu.Unlock() // also when the full-ring wait panics (an abort)
	if allowHandoff && d.eagerMax > 0 && len(data) > d.eagerMax {
		return d.publishHandoff(r, src, dst, bits, data, vci, m)
	}
	m.Metrics().Flight.Record(flight.ShmSend, int64(m.Now()), dst, len(data), vci)
	if len(data) > 0 {
		m.Metrics().CopiesStaged.Note(len(data)) // sender copy-in to cells
	}
	for off := 0; ; {
		n := len(data) - off
		if n > d.cellSize {
			n = d.cellSize
		}
		m.ChargeCycles(instr.Transport, p.CellOverhead+vtime.Cycles(p.PerByte*float64(n)))
		arrival := m.Now() + vtime.Time(p.Latency)

		i := d.claim(r, src, dst, vci, off > 0)
		if n > inlineBytes && r.slab == nil {
			r.slab = make([]byte, d.ringCells*d.cellSize)
		}
		c := &r.cells[i]
		c.bits, c.vci, c.n, c.msgLen, c.arrival, c.h = bits, int32(vci), int32(n), len(data), arrival, nil
		copy(r.payload(i, n, d.cellSize), data[off:off+n])
		r.publish()

		if off += n; off >= len(data) {
			break
		}
	}
	d.wake(dst, vci) // once per message, after its last cell
	return nil
}

// claim returns the index of the cell at r's tail, the producer's to
// fill until it publishes it. On a full ring it waits in src's bound
// Wait for a slot, by the handshake described at ring, after waking the
// receiver if the message is midway: its queued cells have had no wake
// yet, while every earlier message's have. The Wait serves src's own rings meanwhile:
// the receiver may itself be blocked on a full ring toward src.
func (d *Domain) claim(r *ring, src, dst, vci int, midway bool) uint64 {
	n, t := uint64(len(r.cells)), r.tail.Load()
	if t-r.head.Load() >= n {
		if midway {
			d.wake(dst, vci)
		}
		wait := d.waits[src]
		if wait == nil {
			panic(fmt.Sprintf("shm: rank %d found a full ring without a bound wait", src))
		}
		wait(func() bool {
			if t-r.head.Load() < n {
				return true
			}
			r.waiting.Store(true)
			return t-r.head.Load() < n
		})
		r.waiting.Store(false)
	}
	return t % n
}

// publish hands the claimed cell to the consumer.
func (r *ring) publish() { r.tail.Store(r.tail.Load() + 1) }

// publishHandoff pushes one descriptor cell lending data to dst. The
// descriptor occupies a normal ring slot (FIFO with staged traffic, so
// same-pair ordering is preserved) but carries no payload: the staged
// path's per-cell copy charges are replaced by one HandoffOverhead.
func (d *Domain) publishHandoff(r *ring, src, dst int, bits match.Bits, data []byte, vci int, m *proc.Rank) *Handoff {
	p := &d.prof
	m.ChargeCycles(instr.Transport, p.HandoffOverhead)
	m.Metrics().ShmHandoff.Note(len(data))
	m.Metrics().Flight.Record(flight.ShmHandoff, int64(m.Now()), dst, len(data), vci)
	arrival := m.Now() + vtime.Time(p.Latency)

	c := &r.cells[d.claim(r, src, dst, vci, false)]
	h := r.hFree
	if h == nil {
		h = &Handoff{}
	} else {
		r.hFree, h.next = h.next, nil
	}
	h.d, h.r, h.src, h.dst, h.vci = d, r, src, dst, vci
	h.view, h.bytes = data, len(data)
	h.published = m.Now()
	c.bits, c.vci, c.n, c.msgLen, c.arrival, c.h = bits, int32(vci), 0, len(data), arrival, h
	r.lent.Store(r.lent.Load() + 1)
	r.lentBytes.Store(r.lentBytes.Load() + int64(len(data)))
	r.publish()
	d.wake(dst, vci)
	return h
}

// Progress drains rank's incoming rings, reassembling messages and
// delivering completed ones. It returns the number of messages
// delivered. Rings are drained in ascending order of source rank, so
// the order one call delivers from several sources depends only on who
// feeds the rank, not on which ring was created first. No domain-wide
// lock is taken: one atomic load finds the feeder list, and a rank
// nobody feeds walks nothing. Runs on rank's goroutine only.
func (d *Domain) Progress(rank int) int {
	meter := d.meters[rank]
	delivered := 0
	for _, l := range *d.in[rank].Load() {
		delivered += d.drainRing(rank, l.peer, l.r, meter)
	}
	return delivered
}

// drainRing reads every published cell of one ring in place and under
// no lock — a cell is the consumer's from the load of tail that shows it
// to the store of head that retires it — delivering a one-cell message
// straight from its cell and reassembling a longer one into the ring's
// reusable scratch, with no allocation per message. Descriptor cells
// are handed over as zero-copy views.
func (d *Domain) drainRing(rank, src int, r *ring, meter *proc.Rank) int {
	if r.head.Load() == r.tail.Load() {
		return 0
	}
	r.drainMu.Lock()
	defer r.drainMu.Unlock()
	p := &d.prof
	delivered := 0
	for r.head.Load() != r.tail.Load() {
		i := r.head.Load() % uint64(len(r.cells))
		c := &r.cells[i]
		if h := c.h; h != nil {
			// Descriptor cell: capture the header (the slot is the producer's
			// again the moment head moves) and deliver the lent view.
			bits, vci, arrival := c.bits, int(c.vci), c.arrival
			d.retire(r, src, vci)

			meter.ChargeCycles(instr.Transport, p.CellOverhead+p.RecvOverhead)
			if d.deliverView != nil {
				d.deliverView(rank, bits, src, h.view, arrival, vci, h)
			} else {
				// No view-aware device: hand the view over borrowed and
				// release it as a copy, matching Deliver's contract.
				d.deliver(rank, bits, src, h.view, arrival, vci)
				h.Release(true)
			}
			delivered++
			continue
		}
		n, vci := int(c.n), int(c.vci)
		if len(r.cur) == 0 && n == c.msgLen {
			// A one-cell message is delivered from its cell: no
			// reassembly copy. The cell is retired once deliver has
			// copied what it keeps.
			meter.ChargeCycles(instr.Transport, p.CellOverhead+vtime.Cycles(p.PerByte*float64(n)))
			meter.ChargeCycles(instr.Transport, p.RecvOverhead)
			d.deliver(rank, c.bits, src, r.payload(i, n, d.cellSize), c.arrival, vci)
			d.retire(r, src, vci)
			delivered++
			continue
		}
		if len(r.cur) == 0 { // first fragment of a multi-cell message
			if cap(r.cur) < c.msgLen {
				r.cur = make([]byte, 0, c.msgLen)
			}
			r.curBits = c.bits
			r.curVCI = vci
			r.curLen = c.msgLen
			r.arrival = c.arrival
		}
		r.cur = append(r.cur, r.payload(i, n, d.cellSize)...)
		if c.arrival > r.arrival {
			r.arrival = c.arrival
		}
		d.retire(r, src, vci) // frees the cell for a blocked producer

		meter.ChargeCycles(instr.Transport, p.CellOverhead+vtime.Cycles(p.PerByte*float64(n)))

		if data := r.cur; len(data) >= r.curLen {
			meter.ChargeCycles(instr.Transport, p.RecvOverhead)
			if len(data) > 0 {
				meter.Metrics().CopiesStaged.Note(len(data)) // ring reassembly
			}
			r.cur = data[:0]
			d.deliver(rank, r.curBits, src, data, r.arrival, r.curVCI)
			delivered++
		}
	}
	if int64(len(r.cur)) != r.mid.Load() {
		r.mid.Store(int64(len(r.cur)))
	}
	return delivered
}

// retire hands the cell at head back to src, the producer, and wakes
// it if it is (or is about to be) waiting on a full ring: once per
// wait, not per cell of the drain, by clearing the flag before the wake.
func (d *Domain) retire(r *ring, src, vci int) {
	r.head.Store(r.head.Load() + 1)
	if r.waiting.Load() && r.waiting.Swap(false) {
		d.wake(src, vci)
	}
}

// PendingFrom reports whether any cells from src to rank are queued
// (used by tests).
func (d *Domain) PendingFrom(src, rank int) bool {
	_, r := search(*d.out[src].Load(), rank)
	return r != nil && (r.head.Load() != r.tail.Load() || r.mid.Load() > 0)
}

// WriteWaitGraph renders the domain's ring and handoff state for
// deadlock diagnosis, in (src, dst) order: queued cells per ring and,
// critically, every lent view whose sender may be parked awaiting the
// completion ack. Only atomics are read, each consumer-written count
// before the producer-written one it is subtracted from: safe while
// ranks run, exact while they are parked.
func (d *Domain) WriteWaitGraph(w io.Writer) {
	d.eachRing(func(src, dst int, r *ring) {
		head, rel, relBytes := r.head.Load(), r.released.Load(), r.releasedBytes.Load()
		count, filled := r.tail.Load()-head, r.mid.Load()
		hActive, hBytes := r.lent.Load()-rel, r.lentBytes.Load()-relBytes
		if count > 0 || filled > 0 {
			fmt.Fprintf(w, "shm ring %d->%d: %d queued cell(s), %d byte(s) mid-reassembly\n",
				src, dst, count, filled)
		}
		if hActive > 0 {
			fmt.Fprintf(w, "shm: rank %d awaits handoff ack from rank %d (%d handoff(s), %d byte(s) lent)\n",
				src, dst, hActive, hBytes)
		}
	})
}
