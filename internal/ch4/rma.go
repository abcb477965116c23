package ch4

import (
	"fmt"

	"gompi/internal/coll"
	"gompi/internal/comm"
	"gompi/internal/core"
	"gompi/internal/datatype"
	"gompi/internal/flight"
	"gompi/internal/instr"
	"gompi/internal/request"
	"gompi/internal/rma"
)

// WinCreate collectively creates a window exposing mem, or a dynamic
// window with no initial memory.
func (d *Device) WinCreate(mem []byte, dispUnit int, c *comm.Comm, dynamic bool) (*rma.Win, error) {
	return core.WinCreate(d, d.g.Fab, d.rank.ID(), mem, dispUnit, c, dynamic)
}

// WinFree collectively releases the window: its static region, or every
// attachment of a dynamic window still live.
func (d *Device) WinFree(w *rma.Win) error {
	core.Barrier(d, w.Comm)
	if !w.Shared.Dynamic {
		d.g.Fab.UnregisterRegion(d.rank.ID(), w.MyKey)
	}
	for _, key := range w.DetachAll() {
		d.g.Fab.UnregisterRegion(d.rank.ID(), key)
	}
	return nil
}

// WinAttach exposes mem through a dynamic window and returns its
// virtual address, which the application distributes to origins (as it
// would distribute MPI_GET_ADDRESS results).
func (d *Device) WinAttach(w *rma.Win, mem []byte) (rma.VAddr, error) {
	if !w.Shared.Dynamic {
		return 0, errString("win_attach", rma.ErrBadWinArg)
	}
	key := d.g.Fab.RegisterRegion(d.rank.ID(), mem)
	if err := w.Attach(mem, key); err != nil {
		return 0, err
	}
	return rma.MakeDynAddr(key, 0), nil
}

// WinDetach revokes an attachment: the region key recorded when mem
// was attached, which va must name.
func (d *Device) WinDetach(w *rma.Win, mem []byte, va rma.VAddr) error {
	key, err := w.Detach(mem, va)
	if err != nil {
		return err
	}
	d.g.Fab.UnregisterRegion(d.rank.ID(), key)
	return nil
}

// begin charges the one-sided origin path up to the transport choice
// (dispatch, MPI_PROC_NULL, window and epoch, the redundant
// re-derivations, target translation, locality), records the flight
// event and resolves the target. world is core.ProcNull when there is
// nothing to do; err is wrapped for the named call.
func (d *Device) begin(name string, fk flight.Kind, redundant int64, count int, dt *datatype.Type,
	target, disp int, w *rma.Win, flags core.OpFlags) (world, key, off int, err error) {

	d.charge(instr.Call, cost(instr.DispatchRMA))
	if !flags.Has(core.FlagNoProcNull) {
		d.charge(instr.Mandatory, cost(instr.ProcNull))
		if target == core.ProcNull {
			return core.ProcNull, 0, 0, nil
		}
	}
	d.charge(instr.Mandatory, cost(instr.WinDeref)+cost(instr.EpochTrack))
	d.charge(instr.Redundant, redundant)
	d.meter.ChargeType(dt, cost(instr.RedundantDatatype))
	world, key, off, err = d.resolveTarget(target, disp, datatype.Reach(dt, count), w, flags)
	if err != nil {
		return 0, 0, 0, errString(name, err)
	}
	d.charge(instr.Mandatory, cost(instr.Locality))
	d.rank.Metrics().Flight.Record(fk, int64(d.rank.Now()), world, datatype.PackedSize(dt, count), -1)
	return world, key, off, nil
}

// moveRedundant is what a Put or Get re-derives that the design could
// keep: the accumulate path skips the buffer-address reload.
func moveRedundant() int64 {
	return cost(instr.RedundantMarshal) + cost(instr.RedundantReload) + cost(instr.RedundantBufAddr) + cost(instr.RedundantRMA)
}

// resolveTarget turns (target, disp, flags) into the fabric (rank,
// region key, byte offset) triple, charging the Section 3.2 costs. The
// target range must hold reach bytes (datatype.Reach): a dynamic
// window's address must lie inside a live attachment of the target, a
// memory-safety check that charges nothing.
func (d *Device) resolveTarget(target, disp, reach int, w *rma.Win, flags core.OpFlags) (world, key, off int, err error) {
	world, err = d.translateRank(w.Comm, target)
	if err != nil {
		return 0, 0, 0, err
	}
	if flags.Has(core.FlagVirtAddr) || w.Shared.Dynamic {
		// Virtual-address path: no displacement-unit scaling, no base
		// dereference — a single register use (§3.2 proposal; dynamic
		// windows already carry addresses).
		d.charge(instr.Mandatory, cost(instr.VirtAddr))
		va := rma.VAddr(disp)
		if w.Shared.Dynamic {
			key, off := va.DynKey(), va.DynOff()
			if n, ok := d.g.Fab.RegionLen(world, key); !ok || off+reach > n {
				return 0, 0, 0, fmt.Errorf("%w: va %#x + %d outside rank %d's attachments", rma.ErrBadDisp, va, reach, target)
			}
			return world, key, off, nil
		}
		if err := w.CheckVAddr(target, va, reach); err != nil {
			return 0, 0, 0, err
		}
		return world, w.Shared.Keys[target], int(va), nil
	}
	d.charge(instr.Mandatory, cost(instr.OffsetXlate))
	off, err = w.TargetOffset(target, disp, reach)
	if err != nil {
		return 0, 0, 0, err
	}
	return world, w.Shared.Keys[target], off, nil
}

// Put implements the ADI one-sided put: native RDMA for contiguous
// layouts, ch4-core active-message fallback for derived target
// layouts — exactly the netmod decision the paper walks through.
func (d *Device) Put(origin []byte, count int, dt *datatype.Type, target, disp int,
	w *rma.Win, flags core.OpFlags) error {

	m := d.rank.Metrics()
	m.Add(&m.Rma.Puts, 1)
	world, key, off, err := d.begin("put", flight.RmaPut, moveRedundant(), count, dt, target, disp, w, flags)
	if world == core.ProcNull || err != nil {
		return err
	}
	if view, ok := datatype.ContigView(dt, count, origin); ok {
		if d.shmWindowLocal(world) && !w.Shared.Dynamic {
			d.charge(instr.Mandatory, cost(instr.ShmPrep))
			d.chargeShmCopy(len(view))
			d.g.Fab.PutLocal(world, key, off, view, d.rank.Now())
			return nil
		}
		// Native netmod fast path: one RDMA write.
		d.charge(instr.Mandatory, cost(instr.RDMADesc))
		d.ep.Put(world, key, off, view)
		return nil
	}
	// Active-message fallback in the ch4 core: pack the origin data,
	// ship the flattened target layout, and let the target-side
	// handler scatter it.
	d.charge(instr.Mandatory, cost(instr.AMFallback))
	packed := make([]byte, datatype.PackedSize(dt, count))
	if _, err := datatype.Pack(dt, count, origin, packed); err != nil {
		return errString("put", err)
	}
	d.charge(instr.Mandatory, instr.PackCost(len(packed)))
	d.am.Put(world, key, off, count, dt, packed)
	return nil
}

// shmWindowLocal reports whether world's window memory sits in this
// node's shared address space, so direct loads and stores (not wire
// injections) can move the bytes.
func (d *Device) shmWindowLocal(world int) bool {
	return d.g.Shm != nil && d.g.World.SameNode(world, d.rank.ID())
}

// chargeShmCopy prices an intra-node window write or read of n bytes.
// It is zero-copy: ranks share the address space, so the bytes move
// between the origin buffer and the target's window in a single direct
// copy — no staging, exactly the PiP-style ownership the paper's
// shared-address ranks enable.
func (d *Device) chargeShmCopy(n int) {
	p := d.g.Shm.Profile()
	d.rank.ChargeCycles(instr.Transport, int64(p.Latency)+int64(float64(n)*p.PerByte))
	d.rank.Metrics().CopiesDirect.Note(n)
}

// Get implements the ADI one-sided get: RDMA reads, per-segment for
// derived layouts.
func (d *Device) Get(origin []byte, count int, dt *datatype.Type, target, disp int,
	w *rma.Win, flags core.OpFlags) error {

	m := d.rank.Metrics()
	m.Add(&m.Rma.Gets, 1)
	world, key, off, err := d.begin("get", flight.RmaGet, moveRedundant(), count, dt, target, disp, w, flags)
	if world == core.ProcNull || err != nil {
		return err
	}
	if view, ok := datatype.ContigView(dt, count, origin); ok {
		if d.shmWindowLocal(world) && !w.Shared.Dynamic {
			d.charge(instr.Mandatory, cost(instr.ShmPrep))
			d.chargeShmCopy(len(view))
			d.g.Fab.GetLocal(world, key, off, view)
			return nil
		}
		d.charge(instr.Mandatory, cost(instr.RDMADesc))
		d.ep.Get(world, key, off, view)
		return nil
	}
	// Derived layout: one RDMA read per run, landing directly in the
	// laid-out origin buffer.
	datatype.LayoutOf(dt, count).Walk(datatype.PackedSize(dt, count), func(at, _, n int) {
		d.charge(instr.Mandatory, cost(instr.RDMADesc))
		d.ep.Get(world, key, off+at, origin[at:at+n])
	})
	return nil
}

// Accumulate folds origin into the target window. Predefined element
// types ride the fabric's atomic read-modify-write (the NIC atomic);
// derived layouts fall back to active messages.
func (d *Device) Accumulate(origin []byte, count int, dt *datatype.Type, target, disp int,
	op coll.Op, w *rma.Win, flags core.OpFlags) error {
	m := d.rank.Metrics()
	m.Add(&m.Rma.Accs, 1)
	return d.accumulate(origin, nil, count, dt, target, disp, op, w, flags)
}

// GetAccumulate atomically fetches the prior contents into result and
// folds origin in.
func (d *Device) GetAccumulate(origin, result []byte, count int, dt *datatype.Type,
	target, disp int, op coll.Op, w *rma.Win, flags core.OpFlags) error {
	if result == nil {
		return errString("get_accumulate", rma.ErrBadWinArg)
	}
	m := d.rank.Metrics()
	m.Add(&m.Rma.GetAccs, 1)
	return d.accumulate(origin, result, count, dt, target, disp, op, w, flags)
}

func (d *Device) accumulate(origin, result []byte, count int, dt *datatype.Type,
	target, disp int, op coll.Op, w *rma.Win, flags core.OpFlags) error {

	world, key, off, err := d.begin("accumulate", flight.RmaAcc,
		cost(instr.RedundantMarshal)+cost(instr.RedundantReload)+cost(instr.RedundantRMA), count, dt, target, disp, w, flags)
	if world == core.ProcNull || err != nil {
		return err
	}
	elem := dt.BaseElem()
	if elem == nil {
		return errString("accumulate", coll.ErrBadOp)
	}
	nbytes := datatype.PackedSize(dt, count)
	view, contig := datatype.ContigView(dt, count, origin)
	if !contig {
		// Derived layouts take the AM fallback: the target folds the
		// packed bytes under the region's atomicity lock, and a
		// GetAccumulate's one packet brings the prior bytes back.
		d.charge(instr.Mandatory, cost(instr.AMFallback))
		packed := make([]byte, nbytes)
		if _, err := datatype.Pack(dt, count, origin, packed); err != nil {
			return errString("accumulate", err)
		}
		if result == nil {
			d.am.Accumulate(world, key, off, count, dt, op, packed)
			return nil
		}
		return d.am.GetAccumulate(world, key, off, count, dt, op, packed, result)
	}

	if d.shmWindowLocal(world) && !w.Shared.Dynamic {
		// Intra-node lent-view fold: the origin mutates the target
		// bytes where they lie, under the region's atomicity lock —
		// zero staged, zero direct copies (the GetAccumulate result
		// fetch still lands one direct copy into the caller's buffer).
		d.charge(instr.Mandatory, cost(instr.ShmPrep))
		p := d.g.Shm.Profile()
		d.rank.ChargeCycles(instr.Transport, int64(p.Latency)+int64(2*float64(nbytes)*p.PerByte))
		var applyErr error
		d.g.Fab.RMWLocal(world, key, off, nbytes, func(tgt []byte) {
			if result != nil {
				copy(result, tgt)
				d.rank.Metrics().CopiesDirect.Note(nbytes)
			}
			applyErr = coll.Apply(op, elem, tgt, view)
		}, d.rank.Now())
		if applyErr != nil {
			return errString("accumulate", applyErr)
		}
		return nil
	}

	d.charge(instr.Mandatory, cost(instr.RDMADesc))
	var applyErr error
	d.ep.RMW(world, key, off, nbytes, func(tgt []byte) {
		if result != nil {
			copy(result, tgt)
		}
		applyErr = coll.Apply(op, elem, tgt, view)
	})
	if applyErr != nil {
		return errString("accumulate", applyErr)
	}
	return nil
}

// Fence waits out the AM fallback acknowledgements, barriers, and
// folds remote-write arrival times into the local clock.
func (d *Device) Fence(w *rma.Win) error {
	d.charge(instr.Mandatory, cost(instr.EpochTrack))
	d.am.Flush()
	core.Barrier(d, w.Comm)
	if !w.Shared.Dynamic {
		d.rank.Sync(d.g.Fab.RegionArrival(d.rank.ID(), w.MyKey))
	}
	return nil
}

// Lock takes the passive-target lock (MPI_WIN_LOCK) in one protocol
// round trip, on every rank included (MPI_WIN_LOCK_ALL): one round, not
// n Lock calls — the scalable flush-based design. The lock table is
// still honored per target (shared mode admits concurrent origins;
// exclusive serializes against everyone), acquired in rank order so
// concurrent exclusive LockAlls cannot deadlock.
func (d *Device) Lock(w *rma.Win, target int, exclusive bool) error {
	proto := cost(instr.LockProto)
	if target == -1 {
		proto += cost(instr.EpochTrack)
	}
	d.charge(instr.Mandatory, proto)
	d.rank.ChargeCycles(instr.Transport, 2*d.g.Fab.Profile().WireLatency)
	lo, hi := core.Targets(w, target)
	for t := lo; t < hi; t++ {
		w.Shared.AcquireLock(t, exclusive, d, d.waitUntil)
	}
	return nil
}

// Unlock flushes and releases the lock in one more protocol round
// (MPI_WIN_UNLOCK, MPI_WIN_UNLOCK_ALL).
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

// Flush completes all outstanding operations to target
// (MPI_WIN_FLUSH). Our RDMA is synchronous at injection, so this waits
// out AM fallback acks and charges the completion round trip.
// Completion tracking is per-endpoint, so one AM drain and one round
// trip cover every target too (MPI_WIN_FLUSH_ALL) — the point of the
// flush-based design.
func (d *Device) Flush(w *rma.Win, target int) error {
	d.charge(instr.Mandatory, cost(instr.FlushProto))
	d.am.Flush()
	d.rank.ChargeCycles(instr.Transport, 2*d.g.Fab.Profile().WireLatency)
	core.ObserveFlush(d.rank, w, target)
	return nil
}

// FlushLocal completes outstanding operations to target locally
// (MPI_WIN_FLUSH_LOCAL): origin buffers
// become reusable, remote completion is not implied. On this device
// every op is locally complete at issue, so the call is pure
// bookkeeping — no AM wait, no wire round trip.
func (d *Device) FlushLocal(w *rma.Win, target int) error {
	d.charge(instr.Mandatory, cost(instr.FlushLocal))
	core.ObserveFlush(d.rank, w, target)
	return nil
}

// FlushRequest returns a request completing when every operation
// issued so far to target is remotely
// complete — the substrate under Rput/Rget/Raccumulate. Pure-RDMA
// epochs complete immediately, with a pooled request; with AM fallback
// traffic in flight the request polls the ack counter off the progress
// engine like any two-sided request.
func (d *Device) FlushRequest(w *rma.Win, target int) (*request.Request, error) {
	d.charge(instr.Mandatory, cost(instr.FlushProto)+cost(instr.Request))
	mark := d.am.Sent()
	if d.am.Acked() >= mark {
		r := d.pool.Get(request.KindRMA)
		r.Issued = int64(d.rank.Now())
		d.finishFlush(w, target, mark, r)
		return r, nil
	}
	m := d.rank.Metrics()
	m.Add(&m.Req.Allocs, 1)
	f := &flushOp{d: d, w: w, target: target, mark: mark}
	f.req.Bind(request.KindRMA, f)
	f.req.Issued = int64(d.rank.Now())
	return &f.req, nil
}

// finishFlush waits for the acks up to mark (FlushTo), then charges the
// completion round trip, records the flush and completes r.
func (d *Device) finishFlush(w *rma.Win, target int, mark int64, r *request.Request) {
	d.am.FlushTo(mark)
	d.rank.ChargeCycles(instr.Transport, 2*d.g.Fab.Profile().WireLatency)
	core.ObserveFlush(d.rank, w, target)
	d.rank.Metrics().Lat.ReqLife.Observe(int64(d.rank.Now()) - r.Issued)
	r.MarkComplete(request.Status{})
}

// flushOp drives a flush request issued while acks were outstanding,
// which only AM fallback traffic leaves (request.Driver): the ack mark
// to reach, and the window and target the flush is recorded against.
// It is not recycled.
type flushOp struct {
	req    request.Request
	d      *Device
	w      *rma.Win
	target int
	mark   int64
}

func (f *flushOp) Poll(r *request.Request) bool {
	if f.d.Progress(); f.d.am.Acked() < f.mark {
		return false
	}
	f.Block(r)
	return true
}

func (f *flushOp) Block(r *request.Request) { f.d.finishFlush(f.w, f.target, f.mark, r) }
func (f *flushOp) Recycle(*request.Request) {}

// PutAllOpts is the hand-minimized fused one-sided path, the RMA
// analogue of IsendAllOpts: a contiguous byte payload to a world
// target rank on a world-communicator window with a uniform
// displacement unit, inside an already-open epoch. Validation,
// call-frame, and dispatch charges are elided by the caller's
// contract; with the inlined build this is the 16-instruction put.
func (d *Device) PutAllOpts(origin []byte, worldTarget, disp int, w *rma.Win) error {
	m := d.rank.Metrics()
	m.Add(&m.Rma.Puts, 1)
	d.charge(instr.Mandatory, cost(instr.PutAllOpts))
	off := disp * w.DispUnit
	key := w.Shared.Keys[worldTarget]
	if d.shmWindowLocal(worldTarget) {
		d.chargeShmCopy(len(origin))
		d.g.Fab.PutLocal(worldTarget, key, off, origin, d.rank.Now())
		return nil
	}
	d.ep.Put(worldTarget, key, off, origin)
	return nil
}
