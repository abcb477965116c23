package original

import (
	"gompi/internal/coll"
	"gompi/internal/comm"
	"gompi/internal/core"
	"gompi/internal/datatype"
	"gompi/internal/instr"
	"gompi/internal/request"
	"gompi/internal/rma"
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
	d.am.Flush()
	d.unlock()
	w.Comm.Exchange(d, nil)
	d.g.Fab.UnregisterRegion(d.rank.ID(), w.MyKey)
	return nil
}

// begin charges the full CH3 one-sided origin path: the component rows
// plus validation and layering make the default MPI_PUT land at 1,342
// instructions. It then translates (target, disp) to (world, region
// key, offset), always paying the full translation (no virtual-address
// fast path here); the range must hold count elements of dt. world is
// core.ProcNull when there is nothing to do; err is wrapped for the
// named call.
func (d *Device) begin(name string, count int, dt *datatype.Type, target, disp int, w *rma.Win) (world, key, off int, err error) {
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
	if target == core.ProcNull {
		return core.ProcNull, 0, 0, nil
	}
	world, err = d.translateRank(w.Comm, target)
	if err == nil {
		d.charge(instr.Mandatory, cost(instr.OffsetXlate))
		off, err = w.TargetOffset(target, disp, datatype.Reach(dt, count))
	}
	if err != nil {
		return 0, 0, 0, errString(name, err)
	}
	return world, w.Shared.Keys[target], off, nil
}

// Put emulates the one-sided put two-sided: queue an op, marshal the
// generic headers, ship it through the packet machinery, and track the
// acknowledgement (the cost structure of the deferred CH3 op list,
// issued at once).
func (d *Device) Put(origin []byte, count int, dt *datatype.Type, target, disp int,
	w *rma.Win, flags core.OpFlags) error {

	d.lock()
	defer d.unlock()
	d.rank.Metrics().NoteRmaPut()
	world, key, off, err := d.begin("put", count, dt, target, disp, w)
	if world == core.ProcNull || err != nil {
		return err
	}
	data, err := d.sendBytes(origin, count, dt)
	if err == nil {
		d.am.Put(world, key, off, count, dt, data)
	}
	return err
}

// Get emulates the one-sided get with a request/response packet pair.
// The target must be inside the progress engine for the response to be
// produced — the CH3 passive-progress problem, faithfully reproduced.
func (d *Device) Get(origin []byte, count int, dt *datatype.Type, target, disp int,
	w *rma.Win, flags core.OpFlags) error {

	d.lock()
	defer d.unlock()
	d.rank.Metrics().NoteRmaGet()
	world, key, off, err := d.begin("get", count, dt, target, disp, w)
	if world == core.ProcNull || err != nil {
		return err
	}
	return d.am.Get(world, key, off, count, dt, origin)
}

// Accumulate ships the contribution as an accumulate packet applied by
// the target-side handler.
func (d *Device) Accumulate(origin []byte, count int, dt *datatype.Type, target, disp int,
	op coll.Op, w *rma.Win, flags core.OpFlags) error {

	d.lock()
	defer d.unlock()
	d.rank.Metrics().NoteRmaAcc()
	return d.accumulate(origin, nil, count, dt, target, disp, op, w)
}

// GetAccumulate ships one packet whose handler fetches the prior
// contents and folds origin in, in one step: atomic against every other
// accumulate on the same bytes.
func (d *Device) GetAccumulate(origin, result []byte, count int, dt *datatype.Type,
	target, disp int, op coll.Op, w *rma.Win, flags core.OpFlags) error {

	if result == nil {
		return errString("get_accumulate", rma.ErrBadWinArg)
	}
	d.lock()
	defer d.unlock()
	d.rank.Metrics().NoteRmaGetAcc()
	return d.accumulate(origin, result, count, dt, target, disp, op, w)
}

// accumulate is Accumulate, and GetAccumulate when result is non-nil,
// inside the critical section.
func (d *Device) accumulate(origin, result []byte, count int, dt *datatype.Type,
	target, disp int, op coll.Op, w *rma.Win) error {

	world, key, off, err := d.begin("accumulate", count, dt, target, disp, w)
	if world == core.ProcNull || err != nil {
		return err
	}
	if dt.BaseElem() == nil {
		return errString("accumulate", coll.ErrBadOp)
	}
	data, err := d.sendBytes(origin, count, dt)
	switch {
	case err != nil:
		return err
	case result == nil:
		d.am.Accumulate(world, key, off, count, dt, op, data)
		return nil
	}
	return d.am.GetAccumulate(world, key, off, count, dt, op, data, result)
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
	d.am.Flush()
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
	d.am.Flush()
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
