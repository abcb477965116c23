package rma

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"gompi/internal/comm"
)

func testWin(sizes, dispUnits []int, dynamic bool) *Win {
	n := len(sizes)
	sh := NewShared(n, dynamic)
	copy(sh.Sizes, sizes)
	copy(sh.DispUnits, dispUnits)
	c := comm.NewWorld(comm.NewRegistry(), n, 0)
	return NewWin(c, make([]byte, sizes[0]), dispUnits[0], 1, sh)
}

func TestTargetOffset(t *testing.T) {
	w := testWin([]int{64, 128}, []int{8, 4}, false)
	off, err := w.TargetOffset(1, 3, 4)
	if err != nil || off != 12 {
		t.Fatalf("TargetOffset = (%d,%v), want 12", off, err)
	}
	off, err = w.TargetOffset(0, 7, 8)
	if err != nil || off != 56 {
		t.Fatalf("TargetOffset = (%d,%v), want 56", off, err)
	}
}

func TestTargetOffsetBounds(t *testing.T) {
	w := testWin([]int{64}, []int{8}, false)
	if _, err := w.TargetOffset(0, 8, 1); err == nil {
		t.Error("offset past window accepted")
	}
	if _, err := w.TargetOffset(0, 7, 9); err == nil {
		t.Error("length past window accepted")
	}
	if _, err := w.TargetOffset(0, -1, 1); err == nil {
		t.Error("negative displacement accepted")
	}
}

func TestDynamicWindowSkipsBounds(t *testing.T) {
	w := testWin([]int{0}, []int{1}, true)
	if _, err := w.TargetOffset(0, 4096, 64); err != nil {
		t.Errorf("dynamic window bounds-checked: %v", err)
	}
}

func TestCheckVAddr(t *testing.T) {
	w := testWin([]int{32}, []int{1}, false)
	if err := w.CheckVAddr(0, 0, 32); err != nil {
		t.Errorf("full-window vaddr rejected: %v", err)
	}
	if err := w.CheckVAddr(0, 16, 17); err == nil {
		t.Error("overflowing vaddr accepted")
	}
	if w.BaseAddr(0) != 0 {
		t.Error("base address should be 0")
	}
}

func TestEpochLifecycle(t *testing.T) {
	w := testWin([]int{8}, []int{1}, false)
	if w.InEpoch() {
		t.Fatal("fresh window in epoch")
	}
	if _, err := w.CloseEpoch(); err != ErrNoEpoch {
		t.Fatal("close without open accepted")
	}
	if err := w.OpenEpoch(EpochLock, 0); err != nil {
		t.Fatal(err)
	}
	if !w.InEpoch() || w.LockedRank() != 0 {
		t.Error("epoch state wrong")
	}
	if err := w.OpenEpoch(EpochPSCW, 1); err == nil {
		t.Error("nested epoch of different kind accepted")
	}
	lr, err := w.CloseEpoch()
	if err != nil || lr != 0 {
		t.Fatalf("CloseEpoch = (%d,%v)", lr, err)
	}
	if w.InEpoch() {
		t.Error("epoch still open after close")
	}
}

func TestFenceEpochReentrant(t *testing.T) {
	// Fence-to-fence transitions keep the epoch kind; opening a fence
	// epoch while one is active is the normal steady state.
	w := testWin([]int{8}, []int{1}, false)
	if err := w.OpenEpoch(EpochFence, -1); err != nil {
		t.Fatal(err)
	}
	if err := w.OpenEpoch(EpochFence, -1); err != nil {
		t.Fatalf("fence-to-fence rejected: %v", err)
	}
}

func TestSharedLockSerializes(t *testing.T) {
	sh := NewShared(2, false)
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				for !sh.TryAcquireLock(1, true, nil) {
					runtime.Gosched()
				}
				counter++
				sh.ReleaseLock(1, true)
			}
		}()
	}
	wg.Wait()
	if counter != 800 {
		t.Fatalf("counter = %d, want 800 (lost updates)", counter)
	}
}

func TestDynamicAttachDetach(t *testing.T) {
	w := testWin([]int{0}, []int{1}, true)
	mem := make([]byte, 128)
	if err := w.Attach(mem, 7); err != nil {
		t.Fatal(err)
	}
	if len(w.attached) != 1 {
		t.Fatal("attachment not recorded")
	}
	if _, err := w.Detach(make([]byte, 4), MakeDynAddr(7, 0)); err == nil {
		t.Error("detach of unattached memory accepted")
	}
	if _, err := w.Detach(mem, MakeDynAddr(8, 0)); err == nil {
		t.Error("detach at another attachment's address accepted")
	}
	if key, err := w.Detach(mem, MakeDynAddr(7, 0)); err != nil || key != 7 {
		t.Fatalf("Detach = (%d, %v), want (7, nil)", key, err)
	}
	if len(w.attached) != 0 {
		t.Error("detach did not remove segment")
	}
}

func TestAttachToStaticWindowRejected(t *testing.T) {
	w := testWin([]int{8}, []int{1}, false)
	if err := w.Attach(make([]byte, 8), 0); err == nil {
		t.Error("attach to static window accepted")
	}
}

// Property: offset translation is linear in disp with slope = target's
// displacement unit, and in-bounds offsets are always accepted.
func TestTargetOffsetProperty(t *testing.T) {
	f := func(duRaw, dispRaw uint8) bool {
		du := int(duRaw%16) + 1
		size := 1 << 12
		w := testWin([]int{size, size}, []int{1, du}, false)
		disp := int(dispRaw)
		off, err := w.TargetOffset(1, disp, 1)
		if disp*du+1 <= size {
			return err == nil && off == disp*du
		}
		return err != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDynAddrRoundTrip(t *testing.T) {
	for _, c := range []struct{ key, off int }{{0, 0}, {1, 4096}, {900, 1<<30 + 5}} {
		va := MakeDynAddr(c.key, c.off)
		if va.DynKey() != c.key || va.DynOff() != c.off {
			t.Errorf("dyn addr (%d,%d) -> (%d,%d)", c.key, c.off, va.DynKey(), va.DynOff())
		}
	}
}

func TestDynAddrProperty(t *testing.T) {
	f := func(key uint16, off uint32) bool {
		va := MakeDynAddr(int(key), int(off))
		return va.DynKey() == int(key) && va.DynOff() == int(off)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSharedAndExclusiveLocks(t *testing.T) {
	sh := NewShared(2, false)
	// Two shared locks coexist.
	if !sh.TryAcquireLock(0, false, nil) || !sh.TryAcquireLock(0, false, nil) {
		t.Fatal("second shared lock refused")
	}
	// Exclusive must be refused while shared held.
	if sh.TryAcquireLock(0, true, nil) {
		t.Fatal("exclusive granted under shared locks")
	}
	sh.ReleaseLock(0, false)
	sh.ReleaseLock(0, false)
	// Now exclusive succeeds; shared refused.
	if !sh.TryAcquireLock(0, true, nil) {
		t.Fatal("exclusive refused when free")
	}
	if sh.TryAcquireLock(0, false, nil) {
		t.Fatal("shared granted under exclusive")
	}
	sh.ReleaseLock(0, true)
}

// countWaker counts its wakes.
type countWaker struct{ n int }

func (c *countWaker) Wake() { c.n++ }

// TestReleaseWakesLockWaiters: an attempt with a waker registers it
// once however often it retries, the next release wakes it exactly
// once, and a later release finds nobody to wake.
func TestReleaseWakesLockWaiters(t *testing.T) {
	sh := NewShared(2, false)
	var w countWaker
	if !sh.TryAcquireLock(1, true, nil) {
		t.Fatal("exclusive refused when free")
	}
	for i := 0; i < 3; i++ {
		if sh.TryAcquireLock(1, false, &w) {
			t.Fatal("shared granted under exclusive")
		}
	}
	sh.ReleaseLock(1, true)
	if w.n != 1 {
		t.Fatalf("release woke the waiter %d times, want 1", w.n)
	}
	if !sh.TryAcquireLock(1, false, nil) {
		t.Fatal("shared refused after release")
	}
	sh.ReleaseLock(1, false)
	if w.n != 1 {
		t.Errorf("a release after the wake woke the waiter again (%d wakes)", w.n)
	}
}

func TestExposureEpochState(t *testing.T) {
	w := testWin([]int{8}, []int{1}, false)
	if w.Exposed() {
		t.Fatal("fresh window exposed")
	}
	if _, err := w.Unexpose(); err == nil {
		t.Fatal("unexpose without post accepted")
	}
	if err := w.Expose([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if !w.Exposed() {
		t.Fatal("not exposed after Expose")
	}
	if err := w.Expose([]int{3}); err == nil {
		t.Fatal("double expose accepted")
	}
	peek := w.ExposureGroupPeek()
	if len(peek) != 2 || peek[0] != 1 {
		t.Fatalf("peek %v", peek)
	}
	g, err := w.Unexpose()
	if err != nil || len(g) != 2 || g[1] != 2 {
		t.Fatalf("unexpose (%v,%v)", g, err)
	}
	if w.Exposed() {
		t.Fatal("still exposed after Unexpose")
	}
	// Access group is independent bookkeeping.
	w.SetAccessGroup([]int{0})
	if ag := w.AccessGroup(); len(ag) != 1 || ag[0] != 0 {
		t.Fatalf("access group %v", ag)
	}
}
