package original

import (
	"encoding/binary"

	"gompi/internal/coll"
	"gompi/internal/comm"
	"gompi/internal/core"
	"gompi/internal/datatype"
	"gompi/internal/instr"
	"gompi/internal/request"
	"gompi/internal/rma"
	"gompi/internal/vtime"
)

// WinCreate collectively creates a window: the memory is a fabric
// region, and the packets address it by the target's region key.
func (d *Device) WinCreate(mem []byte, dispUnit int, c *comm.Comm) (*rma.Win, error) {
	return core.WinCreate(d, d.g.Fab, d.rank.ID(), mem, dispUnit, c, false)
}

// WinCreateDynamic creates a window with no initial memory. The
// baseline device does not implement dynamic windows (CH3-era MPICH
// gated them behind the same packet path); windows must be created
// with memory.
func (d *Device) WinCreateDynamic(c *comm.Comm) (*rma.Win, error) {
	return nil, errf("dynamic windows not supported by the baseline device")
}

// WinAttach and WinDetach are refused for the same reason: no window on
// this device is dynamic.
func (d *Device) WinAttach(w *rma.Win, mem []byte) (rma.VAddr, error) {
	return 0, errf("device does not support dynamic windows")
}

func (d *Device) WinDetach(w *rma.Win, mem []byte, va rma.VAddr) error {
	return errf("device does not support dynamic windows")
}

// WinFree collectively releases the window. The critical section is
// dropped across the closing exchange, which runs the packet handlers
// while it waits (Progress takes the section itself); the region is
// revoked only after it, so straggler packets from slower ranks still
// find the window.
func (d *Device) WinFree(w *rma.Win) error {
	d.lock()
	d.flushAM()
	d.unlock()
	w.Comm.Exchange(d, nil)
	d.g.Fab.UnregisterRegion(d.rank.ID(), w.MyKey)
	return nil
}

// rmaHeader marshals the generic RMA packet header: the target's region
// key, offset, length, op code, element code, get sequence number.
func rmaHeader(key, off, n int, op coll.Op, elem int, seq uint32) []byte {
	b := make([]byte, 24)
	binary.LittleEndian.PutUint32(b, uint32(key))
	binary.LittleEndian.PutUint32(b[4:], uint32(off))
	binary.LittleEndian.PutUint32(b[8:], uint32(n))
	binary.LittleEndian.PutUint32(b[12:], uint32(op))
	binary.LittleEndian.PutUint32(b[16:], uint32(elem))
	binary.LittleEndian.PutUint32(b[20:], seq)
	return b
}

// chargePutPath charges the full CH3 one-sided origin path. The
// component rows plus validation and layering make the default MPI_PUT
// land at 1,342 instructions.
func (d *Device) chargePutPath(dt *datatype.Type) {
	d.charge(instr.Call, cost(instr.DispatchRMA))
	d.charge(instr.Redundant, cost(instr.RedundantMarshal)+cost(instr.RedundantReload)+
		cost(instr.RedundantBufAddr)+cost(instr.PacketGenericRMA)+cost(instr.RedundantRMA))
	d.meter.ChargeType(dt, cost(instr.RedundantDatatype))
	d.charge(instr.Mandatory, cost(instr.ProcNull))
	d.charge(instr.Mandatory, cost(instr.WinDeref))
	d.charge(instr.Mandatory, cost(instr.RMAOpAlloc)+cost(instr.RMAOpQueue))
	d.charge(instr.Mandatory, cost(instr.RMASegment))
	d.charge(instr.Mandatory, cost(instr.RMAHeaders))
	d.charge(instr.Mandatory, cost(instr.RMASendPath))
	d.charge(instr.Mandatory, cost(instr.RMARequest))
	d.charge(instr.Mandatory, cost(instr.EpochTrack))
	d.charge(instr.Mandatory, cost(instr.RMAAck))
}

// resolve translates (target, disp) to (world, offset), always paying
// the full translation (no virtual-address fast path here). The target
// range must hold reach bytes (datatype.Reach).
func (d *Device) resolve(target, disp, reach int, w *rma.Win) (world, off int, err error) {
	world, err = d.translateRank(w.Comm, target)
	if err != nil {
		return 0, 0, err
	}
	d.charge(instr.Mandatory, cost(instr.OffsetXlate))
	off, err = w.TargetOffset(target, disp, reach)
	if err != nil {
		return 0, 0, err
	}
	return world, off, nil
}

// Put emulates the one-sided put two-sided: queue an op, marshal the
// generic headers, ship it through the packet machinery, and track the
// acknowledgement.
func (d *Device) Put(origin []byte, count int, dt *datatype.Type, target, disp int,
	w *rma.Win, flags core.OpFlags) error {

	d.lock()
	defer d.unlock()
	d.rank.Metrics().NoteRmaPut()
	d.chargePutPath(dt)
	if target == core.ProcNull {
		return nil
	}
	data, err := d.sendBytes(origin, count, dt)
	if err != nil {
		return err
	}
	world, off, err := d.resolve(target, disp, datatype.Reach(dt, count), w)
	if err != nil {
		return errString("put", err)
	}
	// Queue then immediately issue (cost structure of the deferred
	// CH3 op list, synchronous semantics). The header always carries
	// the target layout, a zero word when contiguous.
	hdr := datatype.LayoutOf(dt, count).Append(rmaHeader(w.Shared.Keys[target], off, len(data), 0, 0, 0))
	d.issue(amPut, world, hdr, data)
	return nil
}

// issue ships one queued op and counts the pending ack.
func (d *Device) issue(kind uint8, world int, hdr, payload []byte) {
	d.amSent++
	d.ep.AMSend(world, kind, hdr, payload)
}

// target decodes an RMA packet header at the target: the addressed
// window memory from the offset on, the packed length, the op and
// element codes, the get sequence number and the target layout.
func (d *Device) target(hdr []byte) (mem []byte, n int, op coll.Op, elem int, seq uint32, l datatype.Layout) {
	u := func(i int) int { return int(binary.LittleEndian.Uint32(hdr[4*i:])) }
	l, _ = datatype.DecodeLayout(hdr[24:])
	return d.g.Fab.RegionMem(d.rank.ID(), u(0))[u(1):], u(2), coll.Op(u(3)), u(4), uint32(u(5)), l
}

// handlePut applies an incoming put packet.
func (d *Device) handlePut(src int, hdr, payload []byte, _ vtime.Time) {
	d.charge(instr.Mandatory, cost(instr.RMATargetSide))
	mem, _, _, _, _, l := d.target(hdr)
	l.Walk(len(payload), func(at, pos, n int) { copy(mem[at:at+n], payload[pos:pos+n]) })
	d.ep.AMSend(src, amAck, nil, nil)
}

// Get emulates the one-sided get with a request/response packet pair.
// The target must be inside the progress engine for the response to be
// produced — the CH3 passive-progress problem, faithfully reproduced.
func (d *Device) Get(origin []byte, count int, dt *datatype.Type, target, disp int,
	w *rma.Win, flags core.OpFlags) error {

	d.lock()
	defer d.unlock()
	d.rank.Metrics().NoteRmaGet()
	d.chargePutPath(dt)
	if target == core.ProcNull {
		return nil
	}
	nbytes := datatype.PackedSize(dt, count)
	world, off, err := d.resolve(target, disp, datatype.Reach(dt, count), w)
	if err != nil {
		return errString("get", err)
	}
	d.getSeq++
	seq := d.getSeq
	gs := &getState{buf: make([]byte, nbytes)}
	d.getWait[seq] = gs
	hdr := rmaHeader(w.Shared.Keys[target], off, nbytes, 0, 0, seq)
	if !dt.Contig() { // a contiguous get request carries no layout
		hdr = datatype.LayoutOf(dt, count).Append(hdr)
	}
	d.ep.AMSend(world, amGetReq, hdr, nil)
	d.waitUntil(func() bool { return gs.done })
	d.rank.Sync(gs.arrival) // the response's round-trip time
	delete(d.getWait, seq)

	if view, ok := datatype.ContigView(dt, count, origin); ok {
		copy(view, gs.buf)
		return nil
	}
	if _, err := datatype.Unpack(dt, count, gs.buf, origin); err != nil {
		return errString("get", err)
	}
	return nil
}

// handleGetReq serves a get request from window memory, gathering a
// derived layout into the packed response.
func (d *Device) handleGetReq(src int, hdr, _ []byte, _ vtime.Time) {
	d.charge(instr.Mandatory, cost(instr.RMATargetSide))
	mem, n, _, _, seq, l := d.target(hdr)
	data := mem[:n]
	if !l.Contig() {
		data = make([]byte, n)
		l.Walk(n, func(at, pos, k int) { copy(data[pos:pos+k], mem[at:at+k]) })
	}
	d.ep.AMSend(src, amGetResp, rmaHeader(0, 0, n, 0, 0, seq), data)
}

// handleGetResp completes a pending get.
func (d *Device) handleGetResp(_ int, hdr, payload []byte, arrival vtime.Time) {
	seq := binary.LittleEndian.Uint32(hdr[20:])
	gs := d.getWait[seq]
	if gs == nil {
		panic(errf("get response for unknown sequence %d", seq))
	}
	copy(gs.buf, payload)
	gs.arrival = arrival
	gs.done = true
}

// Accumulate ships the contribution as an accumulate packet applied by
// the target-side handler.
func (d *Device) Accumulate(origin []byte, count int, dt *datatype.Type, target, disp int,
	op coll.Op, w *rma.Win, flags core.OpFlags) error {

	d.lock()
	defer d.unlock()
	d.rank.Metrics().NoteRmaAcc()
	d.chargePutPath(dt)
	if target == core.ProcNull {
		return nil
	}
	elem := dt.BaseElem()
	if elem == nil {
		return errString("accumulate", coll.ErrBadOp)
	}
	data, err := d.sendBytes(origin, count, dt)
	if err != nil {
		return err
	}
	world, off, err := d.resolve(target, disp, datatype.Reach(dt, count), w)
	if err != nil {
		return errString("accumulate", err)
	}
	hdr := rmaHeader(w.Shared.Keys[target], off, len(data), op, coll.ElemCode(elem), 0)
	if !dt.Contig() { // a contiguous accumulate carries no layout
		hdr = datatype.LayoutOf(dt, count).Append(hdr)
	}
	d.issue(amAcc, world, hdr, data)
	return nil
}

// GetAccumulate is emulated as a locked get followed by accumulate;
// atomicity comes from the target applying packets serially in its
// progress engine — but only per-packet, so the fetch and the update
// ride one packet: the handler does both.
func (d *Device) GetAccumulate(origin, result []byte, count int, dt *datatype.Type,
	target, disp int, op coll.Op, w *rma.Win, flags core.OpFlags) error {

	if result == nil {
		return errString("get_accumulate", rma.ErrBadWinArg)
	}
	// The emulated path also bumps RmaGets/RmaAccs below: the baseline
	// really does issue a get and an accumulate.
	d.rank.Metrics().NoteRmaGetAcc()
	// Fetch first under the same packet ordering: target applies
	// packets in arrival order, and we are the only origin touching
	// this location under a proper epoch.
	if err := d.Get(result, count, dt, target, disp, w, flags); err != nil {
		return err
	}
	return d.Accumulate(origin, count, dt, target, disp, op, w, flags)
}

// handleAcc applies an accumulate packet.
func (d *Device) handleAcc(src int, hdr, payload []byte, _ vtime.Time) {
	mem, n, op, ec, _, l := d.target(hdr)
	d.charge(instr.Mandatory, cost(instr.RMATargetSide)+int64(n))
	elem := coll.ElemFromCode(ec)
	l.Walk(n, func(at, pos, k int) {
		if err := coll.Apply(op, elem, mem[at:at+k], payload[pos:pos+k]); err != nil {
			panic(errString("am accumulate", err))
		}
	})
	d.ep.AMSend(src, amAck, nil, nil)
}

// Fence flushes outstanding RMA packets, synchronizes, and opens the
// next epoch.
func (d *Device) Fence(w *rma.Win) error { return d.fence(w, true) }

// FenceEnd closes the fence epoch sequence (MPI_MODE_NOSUCCEED).
func (d *Device) FenceEnd(w *rma.Win) error { return d.fence(w, false) }

// fence flushes and barriers, then opens the next epoch (next) or
// closes the open one. The critical section covers only the flush: the
// barrier re-enters Isend/Irecv, which take it per operation.
func (d *Device) fence(w *rma.Win, next bool) error {
	d.lock()
	d.charge(instr.Mandatory, cost(instr.EpochTrack))
	d.flushAM()
	d.unlock()
	core.Barrier(d, w.Comm)
	if next {
		if err := w.OpenEpoch(rma.EpochFence, -1); err != nil {
			return err
		}
		w.OpenedAt = d.rank.Now()
	} else if w.InEpoch() {
		if _, err := w.CloseEpoch(); err != nil {
			return err
		}
	}
	return nil
}

// Lock opens a passive-target epoch.
func (d *Device) Lock(w *rma.Win, target int, exclusive bool) error {
	if err := w.OpenEpoch(rma.EpochLock, target); err != nil {
		return err
	}
	d.lock()
	d.charge(instr.Mandatory, cost(instr.LockProto))
	d.rank.ChargeCycles(instr.Transport, 2*d.g.Fab.Profile().WireLatency)
	w.Shared.AcquireLock(target, exclusive, d, d.waitUntil)
	d.unlock()
	w.OpenedAt = d.rank.Now()
	w.LockExclusive = exclusive
	return nil
}

// Unlock flushes and closes the passive epoch.
func (d *Device) Unlock(w *rma.Win, target int) error {
	if lr := w.LockedRank(); lr != target {
		return errf("locked %d, unlocking %d", lr, target)
	}
	if _, err := w.CloseEpoch(); err != nil {
		return err
	}
	if err := d.Flush(w, target); err != nil {
		return err
	}
	d.charge(instr.Mandatory, cost(instr.LockProto))
	w.Shared.ReleaseLock(target, w.LockExclusive)
	return nil
}

// Flush waits out all pending acknowledgements.
func (d *Device) Flush(w *rma.Win, target int) error {
	d.lock()
	defer d.unlock()
	d.charge(instr.Mandatory, cost(instr.FlushProto))
	d.flushAM()
	d.rank.ChargeCycles(instr.Transport, 2*d.g.Fab.Profile().WireLatency)
	core.ObserveFlush(d.rank, w, target)
	return nil
}

// FlushLocal completes operations locally. CH3 has no cheap
// local-completion path — the acknowledgement machinery is the only
// completion evidence — so the baseline pays the full remote flush.
func (d *Device) FlushLocal(w *rma.Win, target int) error {
	return d.Flush(w, target)
}

// FlushAll flushes every target. The baseline has no windowwide
// completion primitive, so it degenerates into a per-target flush loop:
// O(n) round trips, exactly the scaling the flush-based redesign in the
// ch4 device removes.
func (d *Device) FlushAll(w *rma.Win) error {
	for t := 0; t < w.Comm.Size(); t++ {
		if err := d.Flush(w, t); err != nil {
			return err
		}
	}
	return nil
}

// FlushRequest returns a request tracking remote completion. The
// baseline's flush is inherently blocking (the AM drain happens
// inline), so the request is born complete; only the request-allocation
// cost distinguishes it from Flush.
func (d *Device) FlushRequest(w *rma.Win, target int) (*request.Request, error) {
	if err := d.Flush(w, target); err != nil {
		return nil, err
	}
	r := d.g.pool.GetFor(request.KindRMA, d.rank.Metrics())
	r.Issued = int64(d.rank.Now())
	r.MarkComplete(request.Status{})
	return r, nil
}

// LockAll opens a passive epoch covering every rank. CH3 had no
// lock-all protocol: the baseline takes n individual locks, paying the
// per-target lock round trip each time — the O(n) cost the scalable
// rewrite collapses to one. The epoch state is still the single
// EpochLockAll object so the public API semantics match across devices.
func (d *Device) LockAll(w *rma.Win, exclusive bool) error {
	if err := w.OpenEpoch(rma.EpochLockAll, -1); err != nil {
		return err
	}
	w.OpenedAt = d.rank.Now()
	d.rank.Metrics().NoteRmaLockAll()
	for t := 0; t < w.Comm.Size(); t++ {
		d.lock()
		d.charge(instr.Mandatory, cost(instr.LockProto))
		d.rank.ChargeCycles(instr.Transport, 2*d.g.Fab.Profile().WireLatency)
		w.Shared.AcquireLock(t, exclusive, d, d.waitUntil)
		d.unlock()
	}
	w.LockExclusive = exclusive
	return nil
}

// UnlockAll flushes and releases every target, one at a time.
func (d *Device) UnlockAll(w *rma.Win) error {
	if w.Epoch != rma.EpochLockAll {
		return errString("unlock_all", rma.ErrNoEpoch)
	}
	for t := 0; t < w.Comm.Size(); t++ {
		if err := d.Flush(w, t); err != nil {
			return err
		}
	}
	if _, err := w.CloseEpoch(); err != nil {
		return err
	}
	d.charge(instr.Mandatory, cost(instr.LockProto))
	for t := w.Comm.Size() - 1; t >= 0; t-- {
		w.Shared.ReleaseLock(t, w.LockExclusive)
	}
	return nil
}

// PutAllOpts is the fused fast-path entry. The baseline has no fast
// path — every put walks the full packet machinery — so the option
// fusion buys nothing here and the call delegates to Put.
func (d *Device) PutAllOpts(origin []byte, worldTarget, disp int, w *rma.Win) error {
	return d.Put(origin, len(origin), datatype.Byte, worldTarget, disp, w, 0)
}
