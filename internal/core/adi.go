package core

import (
	"fmt"

	"gompi/internal/coll"
	"gompi/internal/comm"
	"gompi/internal/datatype"
	"gompi/internal/fabric"
	"gompi/internal/flight"
	"gompi/internal/metrics"
	"gompi/internal/proc"
	"gompi/internal/request"
	"gompi/internal/rma"
	"gompi/internal/vtime"
)

// Device is the abstract device interface (ADI): the boundary between
// the machine-independent MPI layer and a machine-specific
// implementation. Both devices (ch4 and original) implement it. MPI
// semantics flow through unreduced — the device sees the user's
// buffers, datatypes, communicator, and per-call extension flags.
//
// A Device instance belongs to one rank; only that rank's goroutine may
// call its methods.
//
// This list is the whole contract: every device answers every method,
// and a capability a device lacks is an answer (VCIOf -1, ShmHandoffMax
// 0, IsendNoCopy "not sent", an error), never a missing method the MPI
// layer would have to discover.
//
// The window synchronization methods (Fence, Lock, Unlock, Flush,
// FlushLocal, FlushRequest) are the device's protocols only: the MPI
// layer owns the epochs — which call opens or closes which, the locked
// rank, the lock mode, the open stamp. Their target -1 means every
// rank of the window.
type Device interface {
	// Stats snapshots the rank's metrics registry, folding in any
	// counters kept on device-internal structures (matching engines).
	Stats() metrics.Snapshot

	// Isend starts a nonblocking send of count elements of dt from buf
	// to dest (a communicator rank, or a world rank under
	// FlagGlobalRank, or ProcNull) with the given tag. Under FlagNoReq
	// it returns a nil request and counts completion on the
	// communicator.
	Isend(buf []byte, count int, dt *datatype.Type, dest, tag int, c *comm.Comm, flags OpFlags) (*request.Request, error)
	// Irecv starts a nonblocking receive. src may be AnySource; tag
	// may be AnyTag.
	Irecv(buf []byte, count int, dt *datatype.Type, src, tag int, c *comm.Comm, flags OpFlags) (*request.Request, error)
	// IsendAllOpts is the dedicated hand-minimized path of Section
	// 3.7: world-rank destination, predefined-communicator context,
	// counter completion, arrival-order matching, no PROC_NULL.
	IsendAllOpts(buf []byte, worldDest int, c *comm.Comm) error
	// Iprobe checks for a matchable incoming message without receiving
	// it.
	Iprobe(src, tag int, c *comm.Comm) (request.Status, bool, error)
	// Improbe extracts a matchable incoming message (MPI_IMPROBE): on
	// success the message is removed from matching and its payload,
	// envelope, and virtual arrival time are returned for a later
	// matched receive.
	Improbe(src, tag int, c *comm.Comm) (data []byte, st request.Status, arrival vtime.Time, ok bool, err error)
	// CommWaitall completes every outstanding requestless operation on
	// the communicator (the MPI_COMM_WAITALL proposal).
	CommWaitall(c *comm.Comm) error
	// Progress advances the device's engines (active messages,
	// shared-memory rings).
	Progress()
	// EventSeq returns an opaque counter that increases whenever new
	// transport events arrive for this rank; WaitEvent parks the rank
	// until the counter moves past the given value. Together they let
	// blocking MPI-layer loops (MPI_PROBE, the creation collectives'
	// rendezvous) sleep instead of spin. Wake moves the counter from
	// any goroutine: a rendezvous's last depositor ends its peers' waits.
	EventSeq() uint64
	WaitEvent(seq uint64)
	Wake()

	// WinCreate collectively exposes mem with the given displacement
	// unit over c; a dynamic window starts with no memory, and
	// WinAttach exposes regions later.
	WinCreate(mem []byte, dispUnit int, c *comm.Comm, dynamic bool) (*rma.Win, error)
	// WinFree collectively releases the window.
	WinFree(w *rma.Win) error
	// Put transfers count elements of dt from origin into the target
	// window at displacement disp. Under FlagVirtAddr, disp is a
	// rma.VAddr and translation is skipped.
	Put(origin []byte, count int, dt *datatype.Type, target, disp int, w *rma.Win, flags OpFlags) error
	// Get transfers from the target window into origin.
	Get(origin []byte, count int, dt *datatype.Type, target, disp int, w *rma.Win, flags OpFlags) error
	// Accumulate folds origin into the target window with op.
	Accumulate(origin []byte, count int, dt *datatype.Type, target, disp int, op coll.Op, w *rma.Win, flags OpFlags) error
	// GetAccumulate fetches the prior target contents into result and
	// folds origin in, atomically per element.
	GetAccumulate(origin, result []byte, count int, dt *datatype.Type, target, disp int, op coll.Op, w *rma.Win, flags OpFlags) error

	// Fence completes outstanding operations and synchronizes the
	// window's ranks (the protocol under MPI_WIN_FENCE).
	Fence(w *rma.Win) error
	// Lock takes the passive-target lock on target.
	Lock(w *rma.Win, target int, exclusive bool) error
	// Unlock completes outstanding operations to target and releases
	// its lock in the mode w.LockExclusive records.
	Unlock(w *rma.Win, target int) error
	// Flush completes all outstanding operations to target at origin
	// and target.
	Flush(w *rma.Win, target int) error
	// FlushLocal completes outstanding operations to target locally
	// (MPI_WIN_FLUSH_LOCAL): origin buffers are reusable, remote
	// completion is not implied.
	FlushLocal(w *rma.Win, target int) error
	// FlushRequest returns a request that completes when every
	// operation issued to target so far is remotely complete — the
	// completion substrate of request-based Rput/Rget/Raccumulate,
	// progressed off the request engine like any two-sided request.
	FlushRequest(w *rma.Win, target int) (*request.Request, error)
	// PutAllOpts is the hand-minimized fused one-sided path, the RMA
	// analogue of IsendAllOpts: a contiguous byte payload to a world
	// target rank inside an already-open epoch, with validation and
	// call-frame charges elided by the caller's contract.
	PutAllOpts(origin []byte, worldTarget, disp int, w *rma.Win) error
	// WinAttach exposes mem through a dynamic window (MPI_WIN_ATTACH)
	// and returns its remote virtual address.
	WinAttach(w *rma.Win, mem []byte) (rma.VAddr, error)
	// WinDetach revokes an attachment (MPI_WIN_DETACH).
	WinDetach(w *rma.Win, mem []byte, va rma.VAddr) error

	// VCIOf names the virtual communication interface every send,
	// receive and probe on c rides (the communicator's lane), for trace
	// and profiler events; -1 for a device without VCIs.
	VCIOf(c *comm.Comm) int
	// ShmHandoffMax is the shared-memory staged/handoff threshold in
	// bytes; 0 when the device has no zero-copy handoff path.
	ShmHandoffMax() int
	// IsendNoCopy lends buf to dest (a communicator rank) over the
	// zero-copy handoff path when it applies: on-node peer, payload
	// above ShmHandoffMax. sent=false means nothing was sent and the
	// caller sends normally; on sent=true the request (nil when the
	// payload was staged after all) completes when the receiver has
	// released buf.
	IsendNoCopy(buf []byte, dest, tag int, c *comm.Comm) (r *request.Request, sent bool, err error)
	// IrecvReduce posts a receive from src that folds the incoming
	// payload into acc with fold(acc, incoming) instead of copying it —
	// in place over a lent handoff view. Only a device with a handoff
	// path offers it; collectives ask for it only when ShmHandoffMax > 0.
	IrecvReduce(acc []byte, src, tag int, c *comm.Comm, fold func(dst, incoming []byte)) (*request.Request, error)
}

// barrierTagBase is the first tag of Barrier's reserved tag block.
const barrierTagBase = 1 << 20

// Barrier is the device-internal dissemination barrier that epoch
// synchronization and window teardown use: ceil(log2 n) rounds of d's
// own pt2pt on c's collective context, tagged from a reserved block.
// A device error is a broken invariant, so it panics.
func Barrier(d Device, c *comm.Comm) {
	cv := c.CollView()
	rank, size := cv.MyRank, cv.Size()
	var token [1]byte
	for round, dist := 0, 1; dist < size; round, dist = round+1, dist*2 {
		to := (rank + dist) % size
		from := (rank - dist + size) % size
		tag := barrierTagBase + round
		if _, err := d.Isend(token[:], 1, datatype.Byte, to, tag, cv, FlagNoProcNull|FlagNoReq); err != nil {
			panic(fmt.Errorf("device barrier send: %w", err))
		}
		req, err := d.Irecv(token[:], 1, datatype.Byte, from, tag, cv, FlagNoProcNull)
		if err != nil {
			panic(fmt.Errorf("device barrier recv: %w", err))
		}
		req.Wait()
		req.Free()
	}
}

// winInfo is the per-rank record exchanged during window creation.
type winInfo struct{ key, size, dispUnit int }

// WinCreate is window creation for both devices: rank registers mem as
// a region of fab (unless the window is dynamic), then c's ranks learn
// every rank's region key, size and displacement unit — the real
// implementation's allgather — and rank 0 distributes the completed
// shared table and its lock instances. Both exchanges wait on d, the
// rank's device. Every region is registered before its key is
// exchanged, so no operation can reach an unregistered window.
func WinCreate(d Device, fab *fabric.Fabric, rank int, mem []byte, dispUnit int, c *comm.Comm, dynamic bool) (*rma.Win, error) {
	if dispUnit <= 0 {
		return nil, fmt.Errorf("win_create: %w", rma.ErrBadWinArg)
	}
	myKey := 0
	if !dynamic {
		myKey = fab.RegisterRegion(rank, mem)
	}
	vals := c.Exchange(d, winInfo{myKey, len(mem), dispUnit})
	var sh *rma.Shared
	if c.MyRank == 0 {
		sh = rma.NewShared(c.Size(), dynamic)
		for r, v := range vals {
			wi := v.(winInfo)
			sh.Keys[r], sh.Sizes[r], sh.DispUnits[r] = wi.key, wi.size, wi.dispUnit
		}
	}
	sh = c.Exchange(d, sh)[0].(*rma.Shared)
	return rma.NewWin(c, mem, dispUnit, myKey, sh), nil
}

// Targets is the rank range [lo, hi) a synchronization call on target
// covers: every rank of w for -1, target alone otherwise.
func Targets(w *rma.Win, target int) (lo, hi int) {
	if target == -1 {
		return 0, w.Comm.Size()
	}
	return target, target + 1
}

// ObserveFlush threads one completed flush on w through r's
// observability layers: the op counter, the epoch-open→flush histogram
// (only while an epoch is open — Unlock's internal flush runs after the
// close and records the counter alone), and the flight recorder.
func ObserveFlush(r *proc.Rank, w *rma.Win, target int) {
	m := r.Metrics()
	m.Add(&m.Rma.Flushes, 1)
	if w.InEpoch() {
		m.Lat.EpochFlush.Observe(int64(r.Now() - w.OpenedAt))
	}
	m.Flight.Record(flight.RmaFlush, int64(r.Now()), target, 0, -1)
}
