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
		return d.sendRequest(b, issued), nil
	}
	r := d.completedRequest(flags, c, request.KindSend)
	// A captured send (eager, staged, or a rendezvous its posted receive
	// already copied) is complete at return: its request lifetime is the
	// injection cost itself (plus the rendezvous handshake when the
	// message crossed the eager threshold).
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
// sender's outstanding buffer-reuse obligation. nil means data is
// captured (self, eager, staged) or already consumed by a posted
// receive: the buffer is free.
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
		if !b.done.Load() {
			return b
		}
		d.putSendBox(b) // a posted receive took the one copy
	}
	return nil
}

// sendBox carries a lent send's completion on either transport — an
// shm handoff (h, done when the receiver's ack lands) or a netmod
// rendezvous view parked at its receiver (done, set by Release) — with
// completion closures bound to it once, at box creation: recvBox's
// recycling on the send side, so a lent send allocates nothing but its
// public request. Poll pumps progress so the rank's own incoming
// traffic keeps moving while it spins; Block parks on the endpoint's
// event aggregate, which the receiver's release wakes. Blocking here
// (never inside the transport send) is what keeps lending
// deadlock-free: a sender that blocked before returning could never
// receive the views its peers lend it.
type sendBox struct {
	d     *Device
	h     *shm.Handoff
	done  atomic.Bool
	poll  func(*request.Request) bool
	block func(*request.Request)
	next  *sendBox // freelist link
}

// Release implements fabric.ViewReleaser for a netmod rendezvous: the
// receive consumed the view, on the receiver's goroutine (or on the
// sender's, inside the send, when the receive was posted). The
// handshake was priced at injection, so it charges nothing and syncs
// nothing; it flags the box and wakes the sender. After the flag only
// b.d, fixed for the box's life, is read: the sender may already be
// recycling the box.
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

// getSendBox pops a recycled box or builds one with its closures.
func (d *Device) getSendBox() *sendBox {
	if d.cfg.ThreadMultiple {
		d.boxMu.Lock()
		defer d.boxMu.Unlock()
	}
	if b := d.sendFree; b != nil {
		d.sendFree, b.next = b.next, nil
		return b
	}
	b := &sendBox{d: d}
	b.poll = func(r *request.Request) bool {
		d.Progress()
		if !b.released() {
			return false
		}
		d.finishSend(b, r)
		return true
	}
	b.block = func(r *request.Request) {
		d.waitUntil(b.released)
		d.finishSend(b, r)
	}
	return b
}

// putSendBox clears a box whose lend is over and recycles it.
func (d *Device) putSendBox(b *sendBox) {
	b.h = nil
	b.done.Store(false)
	if d.cfg.ThreadMultiple {
		d.boxMu.Lock()
		defer d.boxMu.Unlock()
	}
	b.next, d.sendFree = d.sendFree, b
}

// sendRequest wraps a lent send's box in its request.
func (d *Device) sendRequest(b *sendBox, issued vtime.Time) *request.Request {
	r := d.pool.Get(request.KindSend)
	r.Issued = int64(issued)
	r.Poll, r.Block = b.poll, b.block
	return r
}

// finishSend completes a released send's request — an shm handoff
// syncs to and reads its ack (FinishHandoff), a netmod rendezvous pays
// nothing — and recycles the box. Runs exactly once per activation, on
// the sender: Done/Wait latch completion before the closures could fire
// again.
func (d *Device) finishSend(b *sendBox, r *request.Request) {
	if b.h != nil {
		d.g.Shm.FinishHandoff(b.h)
	}
	d.rank.Metrics().Lat.ReqLife.Observe(int64(d.rank.Now()) - r.Issued)
	r.MarkComplete(request.Status{})
	d.putSendBox(b)
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

// recvBox is the device's one receive descriptor: a RecvOp with
// completion closures bound to it once, at box creation, so a
// steady-state receive loop posts with zero heap traffic. Every receive
// posts through one — a fold receive (IrecvReduce) sets op.Fold, and a
// derived layout receives into a bounce buffer (op.Buf) that finishBox
// unpacks as unpack says and then drops.
type recvBox struct {
	op     fabric.RecvOp
	unpack *unpackTo
	poll   func(*request.Request) bool
	block  func(*request.Request)
}

// unpackTo is where a derived-layout receive lands: count elements of
// dt laid out in buf.
type unpackTo struct {
	buf   []byte
	dt    *datatype.Type
	count int
}

// postBox hands the box's descriptor to the matching unit of its
// communicator's lane and wraps it in its request.
func (d *Device) postBox(b *recvBox, bits, mask match.Bits) *request.Request {
	d.ep.PostRecvVCI(&b.op, bits, mask, d.lane(bits))
	r := d.pool.Get(request.KindRecv)
	r.Issued = int64(d.rank.Now())
	r.Poll, r.Block = b.poll, b.block
	return r
}

// getRecvBox pops a recycled box or builds one with its closures.
func (d *Device) getRecvBox() *recvBox {
	if d.cfg.ThreadMultiple {
		d.boxMu.Lock()
		defer d.boxMu.Unlock()
	}
	if n := len(d.boxFree); n > 0 {
		b := d.boxFree[n-1]
		d.boxFree = d.boxFree[:n-1]
		return b
	}
	b := &recvBox{}
	b.poll = func(r *request.Request) bool {
		if !d.recvDone(&b.op) {
			return false
		}
		d.finishBox(b, r)
		return true
	}
	b.block = func(r *request.Request) {
		d.waitRecv(&b.op)
		d.finishBox(b, r)
	}
	return b
}

// finishBox completes the request from the box's descriptor — a derived
// layout unpacks first, charged as real per-byte work — and recycles
// the box. Runs exactly once per activation: Done/Wait latch completion
// before the closures could fire again.
func (d *Device) finishBox(b *recvBox, r *request.Request) {
	if u := b.unpack; u != nil {
		if _, err := datatype.Unpack(u.dt, u.count, b.op.Buf[:b.op.N], u.buf); err != nil {
			r.MarkComplete(request.Status{Truncated: true})
			d.putRecvBox(b)
			return
		}
		d.charge(instr.Mandatory, instr.PackCost(b.op.N))
	}
	// Request lifetime: post → completion on the owner's clock (the
	// reap already folded the message's arrival into it).
	d.rank.Metrics().Lat.ReqLife.Observe(int64(d.rank.Now()) - r.Issued)
	r.MarkComplete(request.Status{
		Source: b.op.Src, Tag: b.op.Tag, Count: b.op.N, Truncated: b.op.Truncated,
	})
	d.putRecvBox(b)
}

// putRecvBox clears a completed box and puts it back on the freelist.
// Its op was consumed from its lane's queue at match time, so nothing
// in the fabric still references it.
func (d *Device) putRecvBox(b *recvBox) {
	b.op.Reset()
	b.unpack = nil
	if d.cfg.ThreadMultiple {
		d.boxMu.Lock()
		defer d.boxMu.Unlock()
	}
	d.boxFree = append(d.boxFree, b)
}

// recvDone polls one receive, pumping progress so shm and AM traffic
// can complete it.
func (d *Device) recvDone(op *fabric.RecvOp) bool {
	d.Progress()
	return d.ep.RecvDone(op)
}

// waitRecv parks until the receive completes, pumping both transports.
// It parks on the op's VCI event sequence, so traffic other goroutines
// drive over other VCIs never wakes it (the spurious-wakeup storm a
// single per-rank sequence causes).
func (d *Device) waitRecv(op *fabric.RecvOp) {
	v := op.VCI()
	for {
		seq := d.ep.EventSeqVCI(v)
		d.Progress()
		if d.ep.RecvDone(op) {
			return
		}
		d.ep.WaitEventVCI(v, seq)
	}
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
