package gompi

import (
	"gompi/internal/core"
	"gompi/internal/flight"
	"gompi/internal/rma"
)

// Win is a one-sided communication window (MPI_Win).
type Win struct {
	p *Proc
	w *rma.Win
}

// WinOptions carries window-creation assertions, mirroring the
// MPI_WIN_CREATE info keys the paper's Section 3 fast paths rely on.
// The zero value asserts nothing.
type WinOptions struct {
	// NoLocks asserts the window will never be locked (the no_locks
	// info key): passive-target synchronization is rejected, and the
	// implementation skips lock-state maintenance.
	NoLocks bool
	// SameDispUnit asserts every rank passed the same displacement unit
	// (the same_disp_unit info key), so target-offset scaling reads the
	// local unit instead of dereferencing the exchanged per-rank table.
	SameDispUnit bool
}

// VAddr is a remote virtual address for the MPI_PUT_VIRTUAL_ADDR
// proposal and dynamic windows.
type VAddr = rma.VAddr

// WinCreate collectively exposes mem over the communicator with the
// given displacement unit (MPI_WIN_CREATE).
func (c *Comm) WinCreate(mem []byte, dispUnit int) (*Win, error) {
	return c.winCreate(mem, dispUnit, false)
}

// winCreate is WinCreate, or WinCreateDynamic when dynamic.
func (c *Comm) winCreate(mem []byte, dispUnit int, dynamic bool) (*Win, error) {
	if err := c.p.checkComm(c); err != nil {
		return nil, err
	}
	w, err := c.p.dev.WinCreate(mem, dispUnit, c.c, dynamic)
	if err != nil {
		return nil, errc(ErrWin, "%v", err)
	}
	return &Win{p: c.p, w: w}, nil
}

// WinAllocate allocates size bytes and exposes them
// (MPI_WIN_ALLOCATE). Returns the window and the local memory. On
// co-located ranks the allocation is shm-backed, so intra-node Put/Get
// take the zero-copy direct path (see DESIGN.md §6f).
func (c *Comm) WinAllocate(size, dispUnit int) (*Win, []byte, error) {
	mem := make([]byte, size)
	w, err := c.WinCreate(mem, dispUnit)
	if err != nil {
		return nil, nil, err
	}
	return w, mem, nil
}

// WinCreateOpt is WinCreate with creation-time assertions.
func (c *Comm) WinCreateOpt(mem []byte, dispUnit int, o WinOptions) (*Win, error) {
	w, err := c.WinCreate(mem, dispUnit)
	if err != nil {
		return nil, err
	}
	w.w.NoLocks = o.NoLocks
	w.w.SameDispUnit = o.SameDispUnit
	return w, nil
}

// WinAllocateOpt is WinAllocate with creation-time assertions.
func (c *Comm) WinAllocateOpt(size, dispUnit int, o WinOptions) (*Win, []byte, error) {
	w, mem, err := c.WinAllocate(size, dispUnit)
	if err != nil {
		return nil, nil, err
	}
	w.w.NoLocks = o.NoLocks
	w.w.SameDispUnit = o.SameDispUnit
	return w, mem, nil
}

// WinCreateDynamic collectively creates a window with no initial memory
// (MPI_WIN_CREATE_DYNAMIC); Attach exposes regions.
func (c *Comm) WinCreateDynamic() (*Win, error) { return c.winCreate(nil, 1, true) }

// Attach exposes mem through a dynamic window (MPI_WIN_ATTACH) and
// returns its remote virtual address (what MPI_GET_ADDRESS would hand
// the application to distribute).
func (w *Win) Attach(mem []byte) (VAddr, error) {
	va, err := w.p.dev.WinAttach(w.w, mem)
	return va, devErr(ErrWin, err)
}

// Detach revokes an attachment (MPI_WIN_DETACH).
func (w *Win) Detach(mem []byte, va VAddr) error {
	return devErr(ErrWin, w.p.dev.WinDetach(w.w, mem, va))
}

// Free collectively releases the window (MPI_WIN_FREE).
func (w *Win) Free() error { return devErr(ErrWin, w.p.dev.WinFree(w.w)) }

// Mem returns the locally exposed memory.
func (w *Win) Mem() []byte { return w.w.Mem }

// BaseAddr returns the virtual address of byte 0 of target's window,
// for applications adopting the virtual-address proposal.
func (w *Win) BaseAddr(target int) VAddr { return w.w.BaseAddr(target) }

// rmaEnter is the MPI-layer entry of every one-sided data call: it
// opens the span, charges the call frame and the window thread check
// (a window call takes no critical section: there is nothing to
// unlock), and checks the arguments in an error-checking build. The
// span's closer is nil when the call is neither traced nor profiled;
// the caller defers it only when set, so Put makes no indirect call.
func (w *Win) rmaEnter(kind flight.Kind, origin []byte, count int, dt *Datatype, target, disp int) (end func(), err error) {
	p := w.p
	if p.observed() {
		end = p.span(kind, target, traceBytes(count, dt))
	}
	p.chargeCall()
	p.chargeThread(nil, true)
	if p.bc.ErrorChecking {
		err = p.checkRMAArgs(origin, count, dt, target, disp, w)
	}
	return end, err
}

// Put transfers count elements of dt from origin into target's window
// at displacement disp (MPI_PUT).
func (w *Win) Put(origin []byte, count int, dt *Datatype, target, disp int) error {
	end, err := w.rmaEnter(TracePut, origin, count, dt, target, disp)
	if end != nil {
		defer end()
	}
	if err != nil {
		return err
	}
	return devErr(ErrWin, w.p.dev.Put(origin, count, dt, target, disp, w.w, 0))
}

// PutOptions carries the per-call assertions of the fused one-sided
// fast path, mirroring SendOptions on the two-sided side.
type PutOptions struct {
	// GlobalRank asserts target is a world rank on a world-spanning
	// window, skipping communicator rank translation.
	GlobalRank bool
	// NoProcNull asserts target is not MPI_PROC_NULL, skipping the
	// check.
	NoProcNull bool
}

// AllPutOptions asserts every PutOptions fast-path condition at once —
// the one-sided analogue of AllSendOptions.
var AllPutOptions = PutOptions{GlobalRank: true, NoProcNull: true}

// PutOpt is Put with caller assertions. When every option is asserted
// and the transfer is a plain byte blob, the call collapses into the
// fused device entry (MPI_PUT_ALL_OPTS in the paper's terms): one
// constant instruction budget covering window load, epoch bump,
// displacement scaling, locality check, and descriptor injection —
// validation and rank translation are skipped entirely, and so is the
// MPI-layer entry: only the span is opened.
func (w *Win) PutOpt(origin []byte, count int, dt *Datatype, target, disp int, o PutOptions) error {
	if o == AllPutOptions && dt == Byte && count == len(origin) {
		if w.p.observed() {
			defer w.p.span(TracePut, target, len(origin))()
		}
		return devErr(ErrWin, w.p.dev.PutAllOpts(origin, target, disp, w.w))
	}
	// Partial assertions buy nothing on the one-sided path (the paper's
	// point: only full fusion collapses the layering); fall back.
	return w.Put(origin, count, dt, target, disp)
}

// PutVirtualAddr is the MPI_PUT_VIRTUAL_ADDR proposal (Section 3.2):
// the target location is a virtual address the application tracked, so
// the displacement-unit scaling and base dereference are skipped. Works
// on every window flavor, removing the dynamic-window disadvantages the
// paper describes.
func (w *Win) PutVirtualAddr(origin []byte, count int, dt *Datatype, target int, addr VAddr) error {
	end, err := w.rmaEnter(TracePut, origin, count, dt, target, int(addr))
	if end != nil {
		defer end()
	}
	if err != nil {
		return err
	}
	return devErr(ErrWin, w.p.dev.Put(origin, count, dt, target, int(addr), w.w, core.FlagVirtAddr))
}

// Get transfers from the target window into origin (MPI_GET).
func (w *Win) Get(origin []byte, count int, dt *Datatype, target, disp int) error {
	end, err := w.rmaEnter(TraceGet, origin, count, dt, target, disp)
	if end != nil {
		defer end()
	}
	if err != nil {
		return err
	}
	return devErr(ErrWin, w.p.dev.Get(origin, count, dt, target, disp, w.w, 0))
}

// GetVirtualAddr is the get-side virtual-address fast path.
func (w *Win) GetVirtualAddr(origin []byte, count int, dt *Datatype, target int, addr VAddr) error {
	end, err := w.rmaEnter(TraceGet, origin, count, dt, target, int(addr))
	if end != nil {
		defer end()
	}
	if err != nil {
		return err
	}
	return devErr(ErrWin, w.p.dev.Get(origin, count, dt, target, int(addr), w.w, core.FlagVirtAddr))
}

// Accumulate folds origin into the target window with op
// (MPI_ACCUMULATE). Elementwise atomicity matches MPI semantics.
func (w *Win) Accumulate(origin []byte, count int, dt *Datatype, target, disp int, op Op) error {
	end, err := w.rmaEnter(TraceAcc, origin, count, dt, target, disp)
	if end != nil {
		defer end()
	}
	if err != nil {
		return err
	}
	return devErr(ErrWin, w.p.dev.Accumulate(origin, count, dt, target, disp, op, w.w, 0))
}

// GetAccumulate atomically fetches the prior target contents into
// result and folds origin in (MPI_GET_ACCUMULATE).
func (w *Win) GetAccumulate(origin, result []byte, count int, dt *Datatype, target, disp int, op Op) error {
	end, err := w.rmaEnter(TraceAcc, origin, count, dt, target, disp)
	if end != nil {
		defer end()
	}
	if err != nil {
		return err
	}
	return devErr(ErrWin, w.p.dev.GetAccumulate(origin, result, count, dt, target, disp, op, w.w, 0))
}

// FetchAndOp is the single-element MPI_FETCH_AND_OP convenience.
func (w *Win) FetchAndOp(origin, result []byte, dt *Datatype, target, disp int, op Op) error {
	return w.GetAccumulate(origin, result, 1, dt, target, disp, op)
}

// The epoch rules live here, once, for both devices: each
// synchronization call opens or closes the window's epoch around the
// device's protocol (DESIGN.md §6f).

// syncEnter is the MPI-layer entry of every synchronization call: it
// opens the call's span on peer (-1 for every rank) and charges the
// call frame. The caller defers the returned closer, a no-op when the
// call is neither traced nor profiled.
func (w *Win) syncEnter(kind flight.Kind, peer int) func() {
	end := nop
	if w.p.observed() {
		end = w.p.span(kind, peer, 0)
	}
	w.p.chargeCall()
	return end
}

// nop is syncEnter's closer for a call that is not observed.
func nop() {}

// checkTarget rejects a passive-target call's rank outside the window's
// communicator, in every build and before the call enters: a bad rank is
// charged nothing and reaches no device protocol, flight event or sample.
func (w *Win) checkTarget(op string, target int) error {
	if n := w.w.Comm.Size(); target < 0 || target >= n {
		return errc(ErrRank, "%s target %d outside [0,%d)", op, target, n)
	}
	return nil
}

// Fence closes the current epoch and opens the next (MPI_WIN_FENCE).
func (w *Win) Fence() error { return w.fence(true) }

// FenceEnd closes the fence epoch sequence without opening another
// (MPI_WIN_FENCE with MPI_MODE_NOSUCCEED); required before switching
// to passive-target synchronization.
func (w *Win) FenceEnd() error { return w.fence(false) }

// fence runs the device's fence protocol, then opens the next fence
// epoch (next) or closes the open one. Of the synchronization calls
// only fence pays the window thread check.
func (w *Win) fence(next bool) error {
	defer w.syncEnter(TraceSync, -1)()
	w.p.chargeThread(nil, true)
	if err := w.p.dev.Fence(w.w); err != nil {
		return errc(ErrRMASync, "%v", err)
	}
	if next {
		return devErr(ErrRMASync, w.w.OpenEpoch(rma.EpochFence, -1, w.p.rank.Now()))
	}
	if w.w.InEpoch() {
		_, _ = w.w.CloseEpoch() // cannot fail: an epoch is open
	}
	return nil
}

// Lock opens a passive-target epoch on target (MPI_WIN_LOCK).
func (w *Win) Lock(target int, exclusive bool) error {
	if err := w.checkTarget("lock", target); err != nil {
		return err
	}
	return w.lock(target, exclusive)
}

// LockAll opens a shared passive-target epoch on every rank
// (MPI_WIN_LOCK_ALL): the window becomes accessible everywhere until
// UnlockAll, the MPI-3 idiom for long-lived one-sided phases. It is one
// epoch object — not n stacked Locks — so Flush keeps working against
// any target while the epoch stays open; the ch4 device opens it in a
// single round trip, the baseline pays the legacy per-target loop.
func (w *Win) LockAll() error { return w.lock(-1, false) }

// LockAllExclusive opens the epoch with exclusive locks on every rank —
// the whole window becomes this origin's private property until
// UnlockAll. (MPI_WIN_LOCK_ALL is shared by definition; the exclusive
// flavor is the natural extension the flush redesign makes cheap.)
func (w *Win) LockAllExclusive() error { return w.lock(-1, true) }

// lock opens the passive epoch on target, or the LockAll epoch for -1,
// stamps its open time, and runs the device's lock protocol.
func (w *Win) lock(target int, exclusive bool) error {
	defer w.syncEnter(TraceSync, target)()
	if w.w.NoLocks {
		return errc(ErrRMASync, "window created with NoLocks")
	}
	kind := rma.EpochLock
	if target == -1 {
		kind = rma.EpochLockAll
	}
	if err := w.w.OpenEpoch(kind, target, w.p.rank.Now()); err != nil {
		return errc(ErrRMASync, "%v", err)
	}
	if kind == rma.EpochLockAll {
		m := w.p.rank.Metrics()
		m.Add(&m.Rma.LockAlls, 1)
	}
	if err := w.p.dev.Lock(w.w, target, exclusive); err != nil {
		return errc(ErrRMASync, "%v", err)
	}
	w.w.LockExclusive = exclusive
	return nil
}

// UnlockAll flushes and closes the LockAll epoch (MPI_WIN_UNLOCK_ALL).
// The epoch closes after the flush, so the flush records its
// epoch-open→flush sample.
func (w *Win) UnlockAll() error {
	defer w.syncEnter(TraceSync, -1)()
	if w.w.Epoch != rma.EpochLockAll {
		return errc(ErrRMASync, "unlock_all: %v", rma.ErrNoEpoch)
	}
	if err := w.p.dev.Unlock(w.w, -1); err != nil {
		return errc(ErrRMASync, "%v", err)
	}
	_, _ = w.w.CloseEpoch() // cannot fail: the LockAll epoch is open
	return nil
}

// Unlock flushes and closes the passive epoch (MPI_WIN_UNLOCK). The
// epoch closes before the flush, so the flush records no
// epoch-open→flush sample.
func (w *Win) Unlock(target int) error {
	defer w.syncEnter(TraceSync, target)()
	if lr := w.w.LockedRank(); lr != target || lr < 0 {
		return errc(ErrRMASync, "unlock: locked %d, unlocking %d", lr, target)
	}
	_, _ = w.w.CloseEpoch() // cannot fail: the Lock epoch is open
	return devErr(ErrRMASync, w.p.dev.Unlock(w.w, target))
}

// Flush completes all outstanding operations to target at both origin
// and target without closing the epoch (MPI_WIN_FLUSH) — the primitive
// the foMPI-style passive-target redesign is built around: synchronize
// data, not epochs.
func (w *Win) Flush(target int) error {
	if err := w.checkTarget("flush", target); err != nil {
		return err
	}
	return w.flush(target, false)
}

// FlushLocal completes outstanding operations to target locally
// (MPI_WIN_FLUSH_LOCAL): the origin buffers are reusable, remote
// completion is not implied.
func (w *Win) FlushLocal(target int) error {
	if err := w.checkTarget("flush_local", target); err != nil {
		return err
	}
	return w.flush(target, true)
}

// FlushAll completes outstanding operations to every target
// (MPI_WIN_FLUSH_ALL). On the ch4 device this is one completion wait —
// not a per-target loop — so its cost is independent of world size.
func (w *Win) FlushAll() error { return w.flush(-1, false) }

// FlushLocalAll locally completes outstanding operations to every
// target (MPI_WIN_FLUSH_LOCAL_ALL).
func (w *Win) FlushLocalAll() error { return w.flush(-1, true) }

// flush runs the device's remote (or, when local, local) completion
// protocol for target, or for every target when target is -1.
func (w *Win) flush(target int, local bool) error {
	defer w.syncEnter(TraceFlush, target)()
	if local {
		return devErr(ErrRMASync, w.p.dev.FlushLocal(w.w, target))
	}
	return devErr(ErrRMASync, w.p.dev.Flush(w.w, target))
}

// Rput is the request-based MPI_RPUT: the put is issued immediately and
// the returned request completes when the transfer is remotely
// complete, progressed off the same request engine as two-sided
// traffic. Only valid inside a passive-target epoch.
func (w *Win) Rput(origin []byte, count int, dt *Datatype, target, disp int) (*Request, error) {
	end, err := w.rmaEnter(TracePut, origin, count, dt, target, disp)
	if end != nil {
		defer end()
	}
	if err != nil {
		return nil, err
	}
	if err := w.p.dev.Put(origin, count, dt, target, disp, w.w, 0); err != nil {
		return nil, errc(ErrWin, "%v", err)
	}
	return w.flushRequest(target)
}

// Rget is the request-based MPI_RGET.
func (w *Win) Rget(origin []byte, count int, dt *Datatype, target, disp int) (*Request, error) {
	end, err := w.rmaEnter(TraceGet, origin, count, dt, target, disp)
	if end != nil {
		defer end()
	}
	if err != nil {
		return nil, err
	}
	if err := w.p.dev.Get(origin, count, dt, target, disp, w.w, 0); err != nil {
		return nil, errc(ErrWin, "%v", err)
	}
	return w.flushRequest(target)
}

// Raccumulate is the request-based MPI_RACCUMULATE.
func (w *Win) Raccumulate(origin []byte, count int, dt *Datatype, target, disp int, op Op) (*Request, error) {
	end, err := w.rmaEnter(TraceAcc, origin, count, dt, target, disp)
	if end != nil {
		defer end()
	}
	if err != nil {
		return nil, err
	}
	if err := w.p.dev.Accumulate(origin, count, dt, target, disp, op, w.w, 0); err != nil {
		return nil, errc(ErrWin, "%v", err)
	}
	return w.flushRequest(target)
}

// flushRequest wraps the device's completion request for the public
// request machinery (Wait/Test/Waitall compose with two-sided
// requests).
func (w *Win) flushRequest(target int) (*Request, error) {
	r, err := w.p.dev.FlushRequest(w.w, target)
	if err != nil {
		return nil, errc(ErrWin, "%v", err)
	}
	req := w.p.newRequest()
	*req = Request{r: r, p: w.p}
	return req, nil
}

// tagWinNotify is the reserved collective-context tag notified access
// rides on (post/complete tokens use 700/701).
const tagWinNotify = 704

// PutNotify transfers like Put, then delivers a notification the
// target can await with WaitNotify — the foMPI-style notified access
// that replaces "put + fence" or "put + send flag" idioms with one
// call. The notification orders after the data: the put is flushed
// before the token is sent, so a target returning from WaitNotify reads
// the new window contents.
func (w *Win) PutNotify(origin []byte, count int, dt *Datatype, target, disp int) error {
	end, err := w.rmaEnter(TraceNotify, origin, count, dt, target, disp)
	if end != nil {
		defer end()
	}
	if err != nil {
		return err
	}
	if err := w.p.dev.Put(origin, count, dt, target, disp, w.w, 0); err != nil {
		return errc(ErrWin, "%v", err)
	}
	if err := w.p.dev.Flush(w.w, target); err != nil {
		return errc(ErrRMASync, "%v", err)
	}
	m := w.p.rank.Metrics()
	m.Add(&m.Rma.Notifies, 1)
	return w.sendToken(target, tagWinNotify)
}

// WaitNotify blocks until a notification from origin arrives
// (origin = AnySource accepts any rank) and returns the notifying rank.
// The rank parks in the request engine while waiting, so a lost
// notification is diagnosed by the stall watchdog's wait graph like any
// unmatched receive.
func (w *Win) WaitNotify(origin int) (int, error) {
	defer w.syncEnter(TraceNotify, origin)()
	m := w.p.rank.Metrics()
	start := w.p.rank.Now()
	m.Flight.Record(flight.NotifyWait, int64(start), origin, 0, -1)
	src, err := w.recvToken(origin, tagWinNotify)
	if err != nil {
		return -1, err
	}
	m.Add(&m.Rma.Notifies, 1)
	m.Lat.NotifyWait.Observe(int64(w.p.rank.Now() - start))
	return src, nil
}

// sendToken sends a zero-byte synchronization token — a post, complete
// or notify token, by its tag — to rank to on the window's collective
// context, without a request.
func (w *Win) sendToken(to, tag int) error {
	if _, err := w.p.dev.Isend(nil, 0, Byte, to, tag, w.w.Comm.CollView(), core.FlagNoReq|core.FlagNoProcNull); err != nil {
		return errc(ErrRMASync, "token (tag %d) to %d: %v", tag, to, err)
	}
	return nil
}

// recvToken waits for the token of that tag from rank from (AnySource
// for any rank) and returns its sender.
func (w *Win) recvToken(from, tag int) (int, error) {
	req, err := w.p.dev.Irecv(nil, 0, Byte, from, tag, w.w.Comm.CollView(), core.FlagNoProcNull)
	if err != nil {
		return -1, errc(ErrRMASync, "token (tag %d) from %d: %v", tag, from, err)
	}
	req.Wait()
	src := req.Status.Source
	req.Free()
	return src, nil
}
