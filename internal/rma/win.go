// Package rma holds the MPI one-sided communication state: window
// objects (created, allocated, dynamic), the offset-to-virtual-address
// translation the paper's Section 3.2 analyzes, epoch tracking for
// fence / lock / PSCW synchronization, and the virtual-address fast
// path of the MPI_PUT_VIRTUAL_ADDR proposal. Data movement and the
// synchronization protocols are the device's job; the MPI layer owns
// the epochs, and this package is the passive window bookkeeping both
// manipulate.
package rma

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"gompi/internal/comm"
	"gompi/internal/vtime"
)

// Errors returned by window operations.
var (
	ErrBadDisp   = errors.New("rma: target displacement out of window")
	ErrNoEpoch   = errors.New("rma: RMA call outside an access epoch")
	ErrEpochOpen = errors.New("rma: synchronization call with epoch already open")
	ErrBadWinArg = errors.New("rma: bad window argument")
)

// EpochKind tracks the active synchronization regime on a window.
type EpochKind uint8

// Epoch kinds.
const (
	EpochNone EpochKind = iota
	EpochFence
	EpochLock
	EpochPSCW
	// EpochLockAll is the single passive epoch MPI_WIN_LOCK_ALL opens
	// over every rank at once: one epoch object, one state transition,
	// however many targets the window spans — the foMPI-style design,
	// in contrast to the CH3-era n-Lock loop.
	EpochLockAll
)

// VAddr is a "remote virtual address" in the simulated address space.
// For static windows it is a byte offset into the target's registered
// window region; for dynamic windows it also carries the attachment's
// region key in the high bits, the way a real virtual address carries
// the mapping. The MPI_PUT_VIRTUAL_ADDR proposal lets applications
// store these directly, skipping the per-operation displacement-unit
// scaling and base-address dereference.
type VAddr uint64

// dynShift splits a dynamic VAddr into (region key, offset).
const dynShift = 40

// MakeDynAddr builds the virtual address of byte off inside the dynamic
// attachment registered under key.
func MakeDynAddr(key, off int) VAddr { return VAddr(key)<<dynShift | VAddr(off) }

// DynKey extracts the region key of a dynamic virtual address.
func (v VAddr) DynKey() int { return int(v >> dynShift) }

// DynOff extracts the byte offset of a dynamic virtual address.
func (v VAddr) DynOff() int { return int(v & (1<<dynShift - 1)) }

// Shared is the window state common to all ranks: established once at
// creation (the collective key exchange) and immutable afterward,
// except for the passive-target lock table.
type Shared struct {
	Keys      []int // fabric region key per comm rank
	Sizes     []int // window size in bytes per rank
	DispUnits []int // displacement unit per rank
	Dynamic   bool

	// locks serializes passive-target access per rank: exclusive locks
	// write-lock, shared locks read-lock. A real implementation runs a
	// lock protocol over the network; with one address space an
	// RWMutex models the same serialization, and the device charges
	// the protocol's cycles.
	locks []sync.RWMutex

	// waiters are the devices waiting for a lock of this window that a
	// failed attempt found held: every release takes them all, under
	// wmu, and wakes them to try again.
	wmu     sync.Mutex
	waiters []Waker
}

// Waker is what a lock waiter registers: Wake ends its current wait
// for a transport event (core.Device satisfies it).
type Waker interface{ Wake() }

// NewShared builds the shared table for a window over n ranks.
func NewShared(n int, dynamic bool) *Shared {
	return &Shared{
		Keys:      make([]int, n),
		Sizes:     make([]int, n),
		DispUnits: make([]int, n),
		Dynamic:   dynamic,
		locks:     make([]sync.RWMutex, n),
	}
}

// TryAcquireLock attempts the passive-target lock without blocking. A
// non-nil waker is registered before the attempt, and the next
// ReleaseLock wakes it: a release that lands between a failed attempt
// and the waker's park is not lost. AcquireLock waits for a lock in
// the device's event loop this way, so a rank waiting for a lock still
// services incoming active messages (a blocking acquire would deadlock
// AM-based RMA).
func (s *Shared) TryAcquireLock(rank int, exclusive bool, waker Waker) bool {
	if waker != nil {
		s.wmu.Lock()
		if !slices.Contains(s.waiters, waker) {
			s.waiters = append(s.waiters, waker)
		}
		s.wmu.Unlock()
	}
	if exclusive {
		return s.locks[rank].TryLock()
	}
	return s.locks[rank].TryRLock()
}

// AcquireLock takes the passive-target lock for rank. A lock held
// elsewhere is waited for in wait, the device's event loop, which
// serves the rank's transports and parks between attempts: each
// attempt registers waker, and the next release wakes it. The first
// attempt registers nothing, so an uncontended acquire is one TryLock.
func (s *Shared) AcquireLock(rank int, exclusive bool, waker Waker, wait func(ready func() bool)) {
	if !s.TryAcquireLock(rank, exclusive, nil) {
		wait(func() bool { return s.TryAcquireLock(rank, exclusive, waker) })
	}
}

// ReleaseLock releases the passive-target lock for rank and wakes
// every registered waiter.
func (s *Shared) ReleaseLock(rank int, exclusive bool) {
	if exclusive {
		s.locks[rank].Unlock()
	} else {
		s.locks[rank].RUnlock()
	}
	s.wmu.Lock()
	waiters := s.waiters
	s.waiters = nil
	s.wmu.Unlock()
	for _, w := range waiters {
		w.Wake()
	}
}

// Win is one rank's view of a window.
type Win struct {
	Comm     *comm.Comm
	Mem      []byte // locally exposed memory (nil for dynamic windows until attach)
	DispUnit int
	MyKey    int
	Shared   *Shared

	// Epoch state, owned by the rank's MPI layer.
	Epoch      EpochKind
	lockedRank int // target locked in a passive epoch, or -1
	// LockExclusive records the mode of the open passive epoch, so the
	// device's Unlock releases the right lock flavor.
	LockExclusive bool
	// OpenedAt is the rank's virtual clock when the current access
	// epoch opened; the MPI layer stamps it at every epoch open and
	// the devices' flush paths observe now−OpenedAt into the
	// epoch-open→flush histogram.
	OpenedAt vtime.Time

	// NoLocks asserts (MPI info key no_locks) that no passive-target
	// lock will ever be taken on this window; Lock/LockAll reject.
	NoLocks bool
	// SameDispUnit asserts every rank passed the same displacement
	// unit, so target translation reuses the local unit instead of
	// dereferencing the per-rank table.
	SameDispUnit bool

	// PSCW generalized-active-target state. Exposure (post/wait) and
	// access (start/complete) are independent: MPI allows a window to
	// be exposed and accessing at the same time, so exposure is not
	// part of the single access-epoch field above.
	exposed       bool
	exposureGroup []int // comm ranks allowed to access (post's group)
	accessGroup   []int // comm ranks being accessed (start's group)

	attached []segment // dynamic window attachments
}

// Expose opens the exposure epoch (MPI_WIN_POST bookkeeping).
func (w *Win) Expose(group []int) error {
	if w.exposed {
		return fmt.Errorf("%w: exposure epoch already open", ErrEpochOpen)
	}
	w.exposed = true
	w.exposureGroup = append([]int(nil), group...)
	return nil
}

// Unexpose closes the exposure epoch (MPI_WIN_WAIT bookkeeping) and
// returns the origin group.
func (w *Win) Unexpose() ([]int, error) {
	if !w.exposed {
		return nil, fmt.Errorf("%w: no exposure epoch", ErrNoEpoch)
	}
	g := w.exposureGroup
	w.exposed = false
	w.exposureGroup = nil
	return g, nil
}

// Exposed reports whether an exposure epoch is open.
func (w *Win) Exposed() bool { return w.exposed }

// ExposureGroupPeek returns the open exposure epoch's origin group
// without closing it (MPI_WIN_TEST needs it).
func (w *Win) ExposureGroupPeek() []int { return w.exposureGroup }

// SetAccessGroup records the start group for the open PSCW access
// epoch.
func (w *Win) SetAccessGroup(group []int) { w.accessGroup = append([]int(nil), group...) }

// AccessGroup returns the group recorded by SetAccessGroup.
func (w *Win) AccessGroup() []int { return w.accessGroup }

type segment struct {
	mem []byte
	key int // the attachment's fabric region key
}

// NewWin builds one rank's view after the collective exchange.
func NewWin(c *comm.Comm, mem []byte, dispUnit, myKey int, shared *Shared) *Win {
	return &Win{
		Comm: c, Mem: mem, DispUnit: dispUnit, MyKey: myKey,
		Shared: shared, lockedRank: -1,
	}
}

// TargetOffset translates (targetRank, disp) to a byte offset in the
// target's region — the translation of Section 3.2: one dereference for
// the target's displacement unit plus the scaling arithmetic. It
// validates count bytes fit when the window size is known.
func (w *Win) TargetOffset(targetRank, disp, nbytes int) (int, error) {
	du := w.DispUnit
	if !w.SameDispUnit {
		du = w.Shared.DispUnits[targetRank]
	}
	off := disp * du
	if off < 0 {
		return 0, fmt.Errorf("%w: disp %d", ErrBadDisp, disp)
	}
	if size := w.Shared.Sizes[targetRank]; !w.Shared.Dynamic && off+nbytes > size {
		return 0, fmt.Errorf("%w: [%d,%d) beyond size %d", ErrBadDisp, off, off+nbytes, size)
	}
	return off, nil
}

// CheckVAddr validates a virtual-address target on a static window
// (the fast path skips translation entirely; only bounds are
// confirmed). A dynamic window's target is checked by the device
// against the target's live attachments.
func (w *Win) CheckVAddr(targetRank int, va VAddr, nbytes int) error {
	if int(va)+nbytes > w.Shared.Sizes[targetRank] {
		return fmt.Errorf("%w: va %d + %d beyond size %d", ErrBadDisp, va, nbytes, w.Shared.Sizes[targetRank])
	}
	return nil
}

// BaseAddr returns the virtual address of byte 0 of targetRank's
// window, for applications adopting the virtual-address proposal.
func (w *Win) BaseAddr(targetRank int) VAddr { return 0 }

// OpenEpoch transitions into an access epoch.
func (w *Win) OpenEpoch(kind EpochKind, target int) error {
	if w.Epoch != EpochNone && !(w.Epoch == kind && kind == EpochFence) {
		return fmt.Errorf("%w: %d open", ErrEpochOpen, w.Epoch)
	}
	w.Epoch = kind
	w.lockedRank = target
	return nil
}

// CloseEpoch leaves the current epoch.
func (w *Win) CloseEpoch() (lockedRank int, err error) {
	if w.Epoch == EpochNone {
		return -1, ErrNoEpoch
	}
	lr := w.lockedRank
	w.Epoch = EpochNone
	w.lockedRank = -1
	return lr, nil
}

// InEpoch reports whether RMA operations are currently legal.
func (w *Win) InEpoch() bool { return w.Epoch != EpochNone }

// LockedRank returns the passive-epoch target, or -1.
func (w *Win) LockedRank() int { return w.lockedRank }

// Attach records mem as attached to a dynamic window under its region
// key (MPI_WIN_ATTACH). The device has already registered the region.
func (w *Win) Attach(mem []byte, key int) error {
	if !w.Shared.Dynamic {
		return fmt.Errorf("%w: attach to a static window", ErrBadWinArg)
	}
	w.attached = append(w.attached, segment{mem, key})
	return nil
}

// Detach removes the attachment of mem (MPI_WIN_DETACH) and returns
// its region key for the device to revoke; va must be the address the
// attachment was published under.
func (w *Win) Detach(mem []byte, va VAddr) (key int, err error) {
	for i, s := range w.attached {
		if len(s.mem) > 0 && len(mem) > 0 && &s.mem[0] == &mem[0] {
			if at := MakeDynAddr(s.key, 0); va != at {
				return 0, fmt.Errorf("%w: detach at %#x of memory attached at %#x", ErrBadWinArg, va, at)
			}
			w.attached = slices.Delete(w.attached, i, i+1)
			return s.key, nil
		}
	}
	return 0, fmt.Errorf("%w: detach of unattached memory", ErrBadWinArg)
}

// DetachAll removes every attachment still live and returns their region
// keys for the device to revoke (MPI_WIN_FREE of a dynamic window).
func (w *Win) DetachAll() []int {
	keys := make([]int, len(w.attached))
	for i, s := range w.attached {
		keys[i] = s.key
	}
	w.attached = nil
	return keys
}
