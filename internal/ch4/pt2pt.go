package ch4

import (
	"fmt"
	"sync/atomic"

	"gompi/internal/comm"
	"gompi/internal/core"
	"gompi/internal/datatype"
	"gompi/internal/fabric"
	"gompi/internal/instr"
	"gompi/internal/match"
	"gompi/internal/request"
	"gompi/internal/shm"
	"gompi/internal/vtime"
)

// Isend implements the ADI nonblocking send (the paper's MPI_ISEND fast
// path plus the Section 3 proposal variants selected by flags).
func (d *Device) Isend(buf []byte, count int, dt *datatype.Type, dest, tag int,
	c *comm.Comm, flags core.OpFlags) (*request.Request, error) {

	d.charge(instr.Call, cost(instr.Dispatch))
	issued := d.rank.Now()

	// MPI_PROC_NULL handling (Section 3.4): a comparison and branch
	// every send pays unless the caller promised not to use it.
	if !flags.Has(core.FlagNoProcNull) {
		d.charge(instr.Mandatory, cost(instr.ProcNull))
		if dest == core.ProcNull {
			return d.completedRequest(flags, c, request.Kind(request.KindSend)), nil
		}
	}

	// Communicator object reference (Section 3.3).
	if flags.Has(core.FlagPredefComm) {
		d.charge(instr.Mandatory, cost(instr.CommPredef))
	} else {
		d.charge(instr.Mandatory, cost(instr.CommDeref))
	}
	ctx := c.Ctx

	// Rank-to-network-address translation (Section 3.1).
	var world int
	if flags.Has(core.FlagGlobalRank) {
		world = dest // already an MPI_COMM_WORLD rank: zero translation
	} else {
		var err error
		world, err = d.translateRank(c, dest)
		if err != nil {
			return nil, err
		}
	}

	// Datatype resolution (Section 2.2 redundant checks).
	d.charge(instr.Redundant, cost(instr.RedundantMarshal)+cost(instr.RedundantReload))
	data, err := d.sendBytes(buf, count, dt)
	if err != nil {
		return nil, err
	}

	// Match-bits construction (Section 3.6). The MatchBits charge
	// includes the branch that dispatches between the full path, the
	// dedicated no-match function, and the info-hint special case.
	var bits match.Bits
	switch {
	case flags.Has(core.FlagNoMatch):
		d.charge(instr.Mandatory, cost(instr.MatchBitsNoMatch))
		bits = noMatchBits(c)
	case c.AssertNoMatch:
		// The Section 3.6 *alternative*: an info hint instead of a new
		// function. Same wire behavior as FlagNoMatch, but the hint
		// lookup costs an extra dereference into the communicator plus
		// a branch — or just the two branch instructions when the
		// communicator reference already collapsed to a predefined
		// global (Section 3.3), exactly as the paper analyzes.
		if flags.Has(core.FlagPredefComm) {
			d.charge(instr.Mandatory, cost(instr.MatchBitsHintPredef))
		} else {
			d.charge(instr.Mandatory, cost(instr.MatchBitsHint))
		}
		bits = noMatchBits(c)
	default:
		d.charge(instr.Mandatory, cost(instr.MatchBits))
		bits = match.MakeBits(ctx, c.MyRank, tag)
	}

	// Locality dispatch and injection (ch4 core -> netmod/shmmod). The
	// lane pick is part of the match-word arithmetic charged above.
	// Requestless sends must be captured: without a request there is
	// nothing to carry a lent buffer's reuse obligation to the caller.
	b := d.inject(world, bits, data, !flags.Has(core.FlagNoReq))

	// Completion (Section 3.5): request object or counter.
	d.charge(instr.Redundant, cost(instr.RedundantComplete))
	if b != nil {
		// The buffer is lent to the receiver (shm handoff or netmod
		// rendezvous), so the send completes only when the receiver has
		// consumed it — MPI standard mode. The request carries that
		// obligation.
		d.charge(instr.Mandatory, cost(instr.Request))
		b.req.Issued = int64(issued)
		if b.h == nil && b.done.Load() {
			b.finish() // a posted receive took the one copy inside the send
		}
		return &b.req, nil
	}
	r := d.completedRequest(flags, c, request.KindSend)
	// A captured send (eager or staged) is complete at return: its
	// request lifetime is the injection cost itself.
	d.rank.Metrics().Lat.ReqLife.Observe(int64(d.rank.Now() - issued))
	if r != nil {
		r.Issued = int64(issued)
	}
	return r, nil
}

// sendBytes resolves the user (buf, count, datatype) triple into wire
// bytes: a zero-copy view for contiguous layouts (the fast path) or a
// pack for derived ones (charged as real pack work).
func (d *Device) sendBytes(buf []byte, count int, dt *datatype.Type) ([]byte, error) {
	d.meter.ChargeType(dt, cost(instr.RedundantDatatype))
	d.charge(instr.Redundant, cost(instr.RedundantBufAddr))
	if view, ok := datatype.ContigView(dt, count, buf); ok {
		return view, nil
	}
	packed := make([]byte, datatype.PackedSize(dt, count))
	n, err := datatype.Pack(dt, count, buf, packed)
	if err != nil {
		return nil, err
	}
	// Pack is real per-byte work the fast path never does; it stays in
	// the instruction count so derived-type sends are visibly dearer.
	d.charge(instr.Mandatory, instr.PackCost(n))
	return packed, nil
}

// inject routes the message by locality: self-loopback, shmmod for
// on-node peers, netmod otherwise. All three transports deposit at the
// same destination interface, the lane of the message's communicator,
// so matching stays consistent across them. lend says a request will
// carry the send's completion; then the two lending branches — on-node
// above the shm handoff threshold, off-node above the eager limit —
// lend data instead of capturing it, and the returned box is the
// sender's buffer-reuse obligation, already released when a posted
// receive consumed the data inside the send. nil means data is
// captured (self, eager, staged): the buffer is free.
func (d *Device) inject(world int, bits match.Bits, data []byte, lend bool) *sendBox {
	d.charge(instr.Mandatory, cost(instr.Locality))
	vci := d.lane(bits)
	switch {
	case world == d.rank.ID():
		d.charge(instr.Mandatory, cost(instr.SelfLoop))
		d.ep.DepositSelfVCI(bits, world, data, d.rank.Now(), vci)
	case d.g.Shm != nil && d.g.World.SameNode(world, d.rank.ID()):
		d.charge(instr.Mandatory, cost(instr.ShmPrep))
		if !lend {
			d.g.Shm.SendStagedVCI(d.rank.ID(), world, bits, data, vci)
		} else if h := d.g.Shm.SendVCI(d.rank.ID(), world, bits, data, vci); h != nil {
			b := d.getSendBox()
			b.h = h
			return b
		}
	default:
		d.charge(instr.Mandatory, cost(instr.NetmodPrep))
		if !lend || !d.g.Fab.Rendezvous(len(data)) {
			d.ep.TaggedSendVCI(world, bits, data, vci, nil)
			break
		}
		b := d.getSendBox()
		d.ep.TaggedSendVCI(world, bits, data, vci, b)
		return b
	}
	return nil
}

// sendBox is a lent send and the request it drives, recycled together,
// on either transport: an shm handoff (h, done when the receiver's ack
// lands) or a netmod rendezvous view parked at its receiver (done, set
// by Release). Poll pumps progress so the rank's own incoming traffic
// keeps moving while it spins; Block parks on the endpoint's event
// aggregate, which the receiver's release wakes. Blocking here (never
// inside the transport send) is what keeps lending deadlock-free: a
// sender that blocked before returning could never receive the views
// its peers lend it.
type sendBox struct {
	req  request.Request
	d    *Device
	h    *shm.Handoff
	done atomic.Bool
}

// Release implements fabric.ViewReleaser for a netmod rendezvous: the
// receive consumed the view, on the receiver's goroutine (or on the
// sender's, inside the send, when the receive was posted). The
// handshake was priced at injection, so it charges nothing and syncs
// nothing; it flags the box and wakes the sender. After the flag only
// b.d, fixed for the box's life, is read: the sender may already be
// freeing the box.
func (b *sendBox) Release(bool) {
	b.done.Store(true)
	b.d.ep.Notify()
}

// released reports whether the receiver is done with the lent buffer.
func (b *sendBox) released() bool {
	if b.h != nil {
		return b.h.Done()
	}
	return b.done.Load()
}

// Poll, Block and Recycle make the box its request's driver.
func (b *sendBox) Poll(*request.Request) bool {
	if b.d.Progress(); !b.released() {
		return false
	}
	b.finish()
	return true
}

func (b *sendBox) Block(*request.Request) {
	b.d.waitUntil(b.released)
	b.finish()
}

func (b *sendBox) Recycle(*request.Request) {
	b.req.Reset()
	b.h = nil
	b.done.Store(false)
	b.d.sendFree.Put(b)
}

// getSendBox pops a recycled box or builds one bound to its request.
func (d *Device) getSendBox() *sendBox {
	b := d.sendFree.Get(d.rank.Metrics())
	if b == nil {
		b = &sendBox{d: d}
		b.req.Bind(request.KindSend, b)
	}
	return b
}

// finish completes a released send's request — an shm handoff syncs
// to and reads its ack (FinishHandoff), a netmod rendezvous pays
// nothing. Runs exactly once per activation, on the sender: Done/Wait
// latch completion before the driver could run again.
func (b *sendBox) finish() {
	d := b.d
	if b.h != nil {
		d.g.Shm.FinishHandoff(b.h)
	}
	d.rank.Metrics().Lat.ReqLife.Observe(int64(d.rank.Now()) - b.req.Issued)
	b.req.MarkComplete(request.Status{})
}

// completedRequest finishes an eagerly completed send: either a pooled
// request object or, under the no-request proposal, a counter bump.
func (d *Device) completedRequest(flags core.OpFlags, c *comm.Comm, kind request.Kind) *request.Request {
	if flags.Has(core.FlagNoReq) {
		d.charge(instr.Mandatory, cost(instr.Counter))
		c.NoReq.Add()
		c.NoReq.Done() // eager injection: locally complete already
		return nil
	}
	d.charge(instr.Mandatory, cost(instr.Request))
	r := d.pool.Get(kind)
	r.MarkComplete(request.Status{})
	return r
}

// noMatchBits is the match word of an arrival-order send on c. The
// receive's NoMatchMask ignores source and tag, so the tag is 0 and the
// source field carries the sender's rank in c, which the receiver
// reports as the status source.
func noMatchBits(c *comm.Comm) match.Bits { return match.MakeBits(c.Ctx, c.MyRank, 0) }

// IsendAllOpts is the dedicated MPI_ISEND_ALL_OPTS path of Section 3.7:
// every proposal applied at once, hand-minimized to ~16 instructions.
// The destination is a world rank, the communicator must come from the
// predefined table, matching is arrival-order, completion is counted,
// and the datatype is fixed to bytes (the inlined compile-time-constant
// case).
func (d *Device) IsendAllOpts(buf []byte, worldDest int, c *comm.Comm) error {
	// Context from the predefined-comm global: 1 load.
	d.charge(instr.Mandatory, cost(instr.CommPredef))
	bits := noMatchBits(c) // arrival-order bits: 1 load
	d.charge(instr.Mandatory, cost(instr.MatchBitsNoMatch))
	// Counter completion: ~3 instructions.
	d.charge(instr.Mandatory, cost(instr.Counter))
	c.NoReq.Add()
	c.NoReq.Done()
	// Buffer address + length registers: 2; fused netmod descriptor
	// write and doorbell: 9.
	d.charge(instr.Mandatory, cost(instr.AllOptsInject))
	d.ep.TaggedSendVCI(worldDest, bits, buf, d.lane(bits), nil)
	return nil
}

// Irecv implements the ADI nonblocking receive. The receive descriptor
// goes straight to the matching unit shared by netmod and shmmod.
func (d *Device) Irecv(buf []byte, count int, dt *datatype.Type, src, tag int,
	c *comm.Comm, flags core.OpFlags) (*request.Request, error) {

	d.charge(instr.Call, cost(instr.Dispatch))

	if !flags.Has(core.FlagNoProcNull) {
		d.charge(instr.Mandatory, cost(instr.ProcNull))
		if src == core.ProcNull {
			r := d.pool.Get(request.KindRecv)
			r.MarkComplete(request.Status{Source: core.ProcNull, Tag: core.AnyTag})
			return r, nil
		}
	}

	if flags.Has(core.FlagPredefComm) {
		d.charge(instr.Mandatory, cost(instr.CommPredef))
	} else {
		d.charge(instr.Mandatory, cost(instr.CommDeref))
	}

	// Build the match bits and wildcard mask. Receives match on the
	// sender's communicator rank, so no address translation is needed
	// here; wildcard bits replace it.
	var bits, mask match.Bits
	switch {
	case flags.Has(core.FlagNoMatch):
		d.charge(instr.Mandatory, cost(instr.MatchBitsNoMatch))
		bits = match.MakeBits(c.Ctx, 0, 0)
		mask = match.NoMatchMask
	default:
		d.charge(instr.Mandatory, cost(instr.MatchBits))
		bits, mask = match.RecvBits(c.Ctx, src, tag)
	}

	d.charge(instr.Redundant, cost(instr.RedundantMarshal)+cost(instr.RedundantReload)+
		cost(instr.RedundantBufAddr))
	d.meter.ChargeType(dt, cost(instr.RedundantDatatype))

	// Contiguous receives land in the user buffer; derived layouts
	// receive into a bounce buffer that completion unpacks.
	b := d.getRecvBox()
	if view, ok := datatype.ContigView(dt, count, buf); ok {
		b.op.Buf = view
	} else {
		b.op.Buf = make([]byte, datatype.PackedSize(dt, count))
		b.unpack = &unpackTo{buf, dt, count}
	}
	d.charge(instr.Mandatory, cost(instr.RecvPost)+cost(instr.Request))
	return d.postBox(b, bits, mask), nil
}

// recvBox is the device's one receive descriptor: a RecvOp and the
// request it drives (request.Driver), bound once at box creation and
// recycled together at Free, so a steady-state receive loop posts with
// zero heap traffic. Every receive posts through one — a fold receive
// (IrecvReduce) sets op.Fold, and a derived layout receives into a
// bounce buffer (op.Buf) that finish unpacks as unpack says and then
// drops.
type recvBox struct {
	req    request.Request
	op     fabric.RecvOp
	unpack *unpackTo
	d      *Device
}

// unpackTo is where a derived-layout receive lands: count elements of
// dt laid out in buf.
type unpackTo struct {
	buf   []byte
	dt    *datatype.Type
	count int
}

// postBox hands the box's descriptor to the matching unit of its
// communicator's lane and stamps its request.
func (d *Device) postBox(b *recvBox, bits, mask match.Bits) *request.Request {
	d.ep.PostRecvVCI(&b.op, bits, mask, d.lane(bits))
	b.req.Issued = int64(d.rank.Now())
	return &b.req
}

// getRecvBox pops a recycled box or builds one bound to its request.
func (d *Device) getRecvBox() *recvBox {
	b := d.recvFree.Get(d.rank.Metrics())
	if b == nil {
		b = &recvBox{d: d}
		b.req.Bind(request.KindRecv, b)
	}
	return b
}

// Poll, Block and Recycle make the box its request's driver. Block
// parks on the op's VCI event sequence, so traffic other goroutines
// drive over other VCIs never wakes it. A freed box's op was consumed
// from its lane's queue at match time: nothing in the fabric still
// references it.
func (b *recvBox) Poll(*request.Request) bool {
	if b.d.Progress(); !b.d.ep.RecvDone(&b.op) {
		return false
	}
	b.finish()
	return true
}

func (b *recvBox) Block(*request.Request) {
	d, v := b.d, b.op.VCI()
	for {
		seq := d.ep.EventSeqVCI(v)
		if d.Progress(); d.ep.RecvDone(&b.op) {
			break
		}
		d.ep.WaitEventVCI(v, seq)
	}
	b.finish()
}

func (b *recvBox) Recycle(*request.Request) {
	b.req.Reset()
	b.op.Reset()
	b.unpack = nil
	b.d.recvFree.Put(b)
}

// finish completes the box's request from its descriptor, once per
// activation (Done/Wait latch completion); a derived layout unpacks
// first, charged as real per-byte work.
func (b *recvBox) finish() {
	d := b.d
	if u := b.unpack; u != nil {
		if _, err := datatype.Unpack(u.dt, u.count, b.op.Buf[:b.op.N], u.buf); err != nil {
			b.req.MarkComplete(request.Status{Truncated: true})
			return
		}
		d.charge(instr.Mandatory, instr.PackCost(b.op.N))
	}
	// Request lifetime: post → completion on the owner's clock (the
	// reap already folded the message's arrival into it).
	d.rank.Metrics().Lat.ReqLife.Observe(int64(d.rank.Now()) - b.req.Issued)
	b.req.MarkComplete(request.Status{
		Source: b.op.Src, Tag: b.op.Tag, Count: b.op.N, Truncated: b.op.Truncated,
	})
}

// Iprobe checks for a matchable unexpected message (MPI_IPROBE). It
// runs a progress pass first so shm traffic is visible.
func (d *Device) Iprobe(src, tag int, c *comm.Comm) (request.Status, bool, error) {
	d.Progress()
	bits, mask := match.RecvBits(c.Ctx, src, tag)
	psrc, ptag, size, ok := d.ep.ProbeVCI(bits, mask, d.lane(bits))
	if !ok {
		return request.Status{}, false, nil
	}
	return request.Status{Source: psrc, Tag: ptag, Count: size}, true, nil
}

// Improbe extracts a matchable message (MPI_IMPROBE): hardware-matched
// at the endpoint, so extraction is a queue operation there.
func (d *Device) Improbe(src, tag int, c *comm.Comm) ([]byte, request.Status, vtime.Time, bool, error) {
	d.Progress()
	bits, mask := match.RecvBits(c.Ctx, src, tag)
	psrc, ptag, data, arrival, ok := d.ep.MProbeVCI(bits, mask, d.lane(bits))
	if !ok {
		return nil, request.Status{}, 0, false, nil
	}
	return data, request.Status{Source: psrc, Tag: ptag, Count: len(data)}, arrival, true, nil
}

// CommWaitall completes all requestless operations on the communicator
// (the MPI_COMM_WAITALL proposal). Eager injection means sends are
// locally complete at issue; the wait is a counter check plus progress.
func (d *Device) CommWaitall(c *comm.Comm) error {
	d.charge(instr.Mandatory, cost(instr.Counter))
	if c.NoReq.Pending() == 0 {
		return nil
	}
	d.waitUntil(func() bool { return c.NoReq.Pending() == 0 })
	return nil
}

// errString formats device errors uniformly.
func errString(op string, err error) error { return fmt.Errorf("ch4 %s: %w", op, err) }
