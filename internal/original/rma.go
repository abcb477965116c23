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
// region, and the packets address it by the target's region key. The
// baseline device does not implement dynamic windows (CH3-era MPICH
// gated them behind the same packet path); windows must be created
// with memory.
func (d *Device) WinCreate(mem []byte, dispUnit int, c *comm.Comm, dynamic bool) (*rma.Win, error) {
	if dynamic {
		return nil, errf("dynamic windows not supported by the baseline device")
	}
	return core.WinCreate(d, d.g.Fab, d.rank.ID(), mem, dispUnit, c, false)
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
	m := d.rank.Metrics()
	m.Add(&m.Rma.Puts, 1)
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
	m := d.rank.Metrics()
	m.Add(&m.Rma.Gets, 1)
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
	m := d.rank.Metrics()
	m.Add(&m.Rma.Accs, 1)
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
	m := d.rank.Metrics()
	m.Add(&m.Rma.GetAccs, 1)
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

// Fence flushes outstanding RMA packets and barriers. The critical
// section covers only the flush: the barrier re-enters Isend/Irecv,
// which take it per operation.
func (d *Device) Fence(w *rma.Win) error {
	d.lock()
	d.charge(instr.Mandatory, cost(instr.EpochTrack))
	d.am.Flush()
	d.unlock()
	core.Barrier(d, w.Comm)
	return nil
}

// Lock takes the passive-target lock. CH3 had no lock-all protocol: on
// every rank (target -1) the baseline takes n individual locks, paying
// the per-target lock round trip each time — the O(n) cost the
// scalable rewrite collapses to one.
func (d *Device) Lock(w *rma.Win, target int, exclusive bool) error {
	lo, hi := core.Targets(w, target)
	for t := lo; t < hi; t++ {
		d.lock()
		d.charge(instr.Mandatory, cost(instr.LockProto))
		d.rank.ChargeCycles(instr.Transport, 2*d.g.Fab.Profile().WireLatency)
		w.Shared.AcquireLock(t, exclusive, d, d.waitUntil)
		d.unlock()
	}
	return nil
}

// Unlock flushes every covered target one at a time, then releases
// their locks.
func (d *Device) Unlock(w *rma.Win, target int) error {
	if err := d.Flush(w, target); err != nil {
		return err
	}
	d.charge(instr.Mandatory, cost(instr.LockProto))
	lo, hi := core.Targets(w, target)
	for t := hi - 1; t >= lo; t-- {
		w.Shared.ReleaseLock(t, w.LockExclusive)
	}
	return nil
}

// Flush waits out all pending acknowledgements. The baseline has no
// windowwide completion primitive, so a flush of every target
// degenerates into a per-target loop: O(n) round trips, exactly the
// scaling the flush-based redesign in the ch4 device removes.
func (d *Device) Flush(w *rma.Win, target int) error {
	lo, hi := core.Targets(w, target)
	for t := lo; t < hi; t++ {
		d.flush(w, t)
	}
	return nil
}

// flush is one target's flush: drain the acknowledgements and pay the
// completion round trip.
func (d *Device) flush(w *rma.Win, target int) {
	d.lock()
	defer d.unlock()
	d.charge(instr.Mandatory, cost(instr.FlushProto))
	d.am.Flush()
	d.rank.ChargeCycles(instr.Transport, 2*d.g.Fab.Profile().WireLatency)
	core.ObserveFlush(d.rank, w, target)
}

// FlushLocal completes operations locally. CH3 has no cheap
// local-completion path — the acknowledgement machinery is the only
// completion evidence — so the baseline pays one full remote flush,
// for every target (-1) too: the drain covers them all.
func (d *Device) FlushLocal(w *rma.Win, target int) error {
	d.flush(w, target)
	return nil
}

// FlushRequest returns a request tracking remote completion. The
// baseline's flush is inherently blocking (the AM drain happens
// inline), so the request is born complete; only the request-allocation
// cost distinguishes it from Flush.
func (d *Device) FlushRequest(w *rma.Win, target int) (*request.Request, error) {
	d.flush(w, target)
	r := d.g.pool.GetFor(request.KindRMA, nil, d.rank.Metrics())
	r.Issued = int64(d.rank.Now())
	r.MarkComplete(request.Status{})
	return r, nil
}

// PutAllOpts is the fused fast-path entry. The baseline has no fast
// path — every put walks the full packet machinery — so the option
// fusion buys nothing here and the call delegates to Put.
func (d *Device) PutAllOpts(origin []byte, worldTarget, disp int, w *rma.Win) error {
	return d.Put(origin, len(origin), datatype.Byte, worldTarget, disp, w, 0)
}
