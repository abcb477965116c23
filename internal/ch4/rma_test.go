package ch4

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"gompi/internal/coll"
	"gompi/internal/core"
	"gompi/internal/datatype"
	"gompi/internal/fabric"
	"gompi/internal/instr"
	"gompi/internal/rma"
)

func TestWinCreateAndFence(t *testing.T) {
	runWorld(t, 4, 1, fabric.OFI, core.Default, func(e *env) error {
		mem := make([]byte, 64)
		w, err := e.d.WinCreate(mem, 1, e.c, false)
		if err != nil {
			return err
		}
		if len(w.Shared.Keys) != 4 || w.Shared.Sizes[e.c.Rank()] != 64 {
			return fmt.Errorf("shared table wrong: %+v", w.Shared)
		}
		if err := e.d.Fence(w); err != nil {
			return err
		}
		if w.InEpoch() {
			return errors.New("device fence opened an epoch: epochs are the MPI layer's")
		}
		if err := e.d.Fence(w); err != nil {
			return err
		}
		return e.d.WinFree(w)
	})
}

func TestPutContiguous(t *testing.T) {
	runWorld(t, 2, 1, fabric.OFI, core.Default, func(e *env) error {
		mem := make([]byte, 32)
		w, err := e.d.WinCreate(mem, 1, e.c, false)
		if err != nil {
			return err
		}
		if err := e.d.Fence(w); err != nil {
			return err
		}
		if e.c.Rank() == 0 {
			if err := e.d.Put([]byte{1, 2, 3, 4}, 4, datatype.Byte, 1, 8, w, 0); err != nil {
				return err
			}
		}
		if err := e.d.Fence(w); err != nil {
			return err
		}
		if e.c.Rank() == 1 && !bytes.Equal(mem[8:12], []byte{1, 2, 3, 4}) {
			return fmt.Errorf("window after put: %v", mem[8:12])
		}
		return e.d.WinFree(w)
	})
}

func TestPutDispUnitScaling(t *testing.T) {
	runWorld(t, 2, 1, fabric.INF, core.Default, func(e *env) error {
		mem := make([]byte, 64)
		w, err := e.d.WinCreate(mem, 8, e.c, false) // disp unit = 8 bytes
		if err != nil {
			return err
		}
		e.d.Fence(w)
		if e.c.Rank() == 0 {
			if err := e.d.Put([]byte{0xEE}, 1, datatype.Byte, 1, 3, w, 0); err != nil {
				return err
			}
		}
		e.d.Fence(w)
		if e.c.Rank() == 1 && mem[24] != 0xEE {
			return fmt.Errorf("disp-unit scaling: byte landed at %v", mem[:32])
		}
		return e.d.WinFree(w)
	})
}

// TestPutBoundsChecked: a target range that passes the end of an
// 8-byte window is an ErrBadDisp at the origin, on ch4 off-node and
// on-node. The derived rows reach a byte past their packed size: a
// vector(2,1,2,byte) at displacement 6 packs 2 bytes but touches
// bytes 6 and 8.
func TestPutBoundsChecked(t *testing.T) {
	vec, _ := datatype.NewVector(2, 1, 2, datatype.Byte)
	if err := vec.Commit(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	cases := []struct {
		name string
		op   func(d *Device, w *rma.Win) error
	}{
		{"put/contig", func(d *Device, w *rma.Win) error { return d.Put(buf, 4, datatype.Byte, 1, 6, w, 0) }},
		{"put/derived", func(d *Device, w *rma.Win) error { return d.Put(buf, 1, vec, 1, 6, w, 0) }},
		{"get/derived", func(d *Device, w *rma.Win) error { return d.Get(buf, 1, vec, 1, 6, w, 0) }},
		{"acc/derived", func(d *Device, w *rma.Win) error { return d.Accumulate(buf, 1, vec, 1, 6, coll.OpSum, w, 0) }},
	}
	for _, rpn := range []int{1, 2} {
		for _, c := range cases {
			runWorld(t, 2, rpn, fabric.INF, core.Default, func(e *env) error {
				w, err := e.d.WinCreate(make([]byte, 8), 1, e.c, false)
				if err != nil {
					return err
				}
				e.d.Fence(w)
				if e.c.Rank() == 0 {
					if err := c.op(e.d, w); !errors.Is(err, rma.ErrBadDisp) {
						return fmt.Errorf("%s, %d rank(s) per node: out-of-window error %v", c.name, rpn, err)
					}
				}
				e.d.Fence(w)
				return e.d.WinFree(w)
			})
		}
	}
}

func TestGet(t *testing.T) {
	runWorld(t, 2, 1, fabric.OFI, core.Default, func(e *env) error {
		mem := make([]byte, 16)
		if e.c.Rank() == 1 {
			copy(mem, "remote-data!")
		}
		w, err := e.d.WinCreate(mem, 1, e.c, false)
		if err != nil {
			return err
		}
		e.d.Fence(w)
		if e.c.Rank() == 0 {
			buf := make([]byte, 6)
			if err := e.d.Get(buf, 6, datatype.Byte, 1, 0, w, 0); err != nil {
				return err
			}
			if string(buf) != "remote" {
				return fmt.Errorf("get returned %q", buf)
			}
		}
		e.d.Fence(w)
		return e.d.WinFree(w)
	})
}

func TestPutProcNull(t *testing.T) {
	runWorld(t, 1, 1, fabric.INF, core.Default, func(e *env) error {
		w, err := e.d.WinCreate(make([]byte, 8), 1, e.c, false)
		if err != nil {
			return err
		}
		e.d.Fence(w)
		return e.d.Put([]byte{1}, 1, datatype.Byte, core.ProcNull, 0, w, 0)
	})
}

func TestAccumulateSum(t *testing.T) {
	const n = 4
	runWorld(t, n, 1, fabric.OFI, core.Default, func(e *env) error {
		mem := make([]byte, 8)
		w, err := e.d.WinCreate(mem, 1, e.c, false)
		if err != nil {
			return err
		}
		e.d.Fence(w)
		// Everyone (including rank 0) adds its rank+1 into rank 0's
		// counter: NIC atomics must not lose updates.
		contrib := make([]byte, 8)
		binary.LittleEndian.PutUint64(contrib, uint64(e.c.Rank()+1))
		if err := e.d.Accumulate(contrib, 1, datatype.Long, 0, 0, coll.OpSum, w, 0); err != nil {
			return err
		}
		e.d.Fence(w)
		if e.c.Rank() == 0 {
			got := int64(binary.LittleEndian.Uint64(mem))
			if got != n*(n+1)/2 {
				return fmt.Errorf("accumulated %d, want %d", got, n*(n+1)/2)
			}
		}
		return e.d.WinFree(w)
	})
}

func TestGetAccumulateFetchesOld(t *testing.T) {
	runWorld(t, 2, 1, fabric.INF, core.Default, func(e *env) error {
		mem := make([]byte, 8)
		if e.c.Rank() == 1 {
			binary.LittleEndian.PutUint64(mem, 100)
		}
		w, err := e.d.WinCreate(mem, 1, e.c, false)
		if err != nil {
			return err
		}
		e.d.Fence(w)
		if e.c.Rank() == 0 {
			contrib := make([]byte, 8)
			binary.LittleEndian.PutUint64(contrib, 5)
			old := make([]byte, 8)
			if err := e.d.GetAccumulate(contrib, old, 1, datatype.Long, 1, 0, coll.OpSum, w, 0); err != nil {
				return err
			}
			if got := binary.LittleEndian.Uint64(old); got != 100 {
				return fmt.Errorf("fetched %d, want 100", got)
			}
		}
		e.d.Fence(w)
		if e.c.Rank() == 1 {
			if got := binary.LittleEndian.Uint64(mem); got != 105 {
				return fmt.Errorf("target now %d, want 105", got)
			}
		}
		return e.d.WinFree(w)
	})
}

func TestDerivedPutAMFallback(t *testing.T) {
	vec, _ := datatype.NewVector(3, 1, 2, datatype.Byte) // bytes 0,2,4
	if err := vec.Commit(); err != nil {
		t.Fatal(err)
	}
	runWorld(t, 2, 1, fabric.OFI, core.Default, func(e *env) error {
		mem := bytes.Repeat([]byte{'.'}, 8)
		w, err := e.d.WinCreate(mem, 1, e.c, false)
		if err != nil {
			return err
		}
		e.d.Fence(w)
		if e.c.Rank() == 0 {
			src := []byte{'A', 'x', 'B', 'y', 'C', 'z'}
			if err := e.d.Put(src, 1, vec, 1, 0, w, 0); err != nil {
				return err
			}
		}
		e.d.Fence(w)
		if e.c.Rank() == 1 && string(mem[:6]) != "A.B.C." {
			return fmt.Errorf("derived put landed %q", mem[:6])
		}
		return e.d.WinFree(w)
	})
}

// TestFlushRequestCountsItsRequest: a flush request is one request get
// in the rank's registry (request.reuse_ratio's base) whether it pends
// on an AM fallback ack, as here while the target stays out of the
// library, or completes at issue from the device's pool.
func TestFlushRequestCountsItsRequest(t *testing.T) {
	vec, _ := datatype.NewVector(3, 1, 2, datatype.Byte)
	if err := vec.Commit(); err != nil {
		t.Fatal(err)
	}
	away, back := make(chan struct{}), make(chan struct{})
	runWorld(t, 2, 1, fabric.OFI, core.Default, func(e *env) error {
		w, err := e.d.WinCreate(make([]byte, 8), 1, e.c, false)
		if err != nil {
			return err
		}
		e.d.Fence(w)
		if e.c.Rank() == 1 {
			away <- struct{}{} // no progress until rank 0 has flushed
			<-back
			e.d.Fence(w)
			return e.d.WinFree(w)
		}
		<-away
		// Failures are collected, not returned, so rank 1 is never left
		// waiting for a fence rank 0 skipped.
		errs := []error{e.d.Put(make([]byte, 6), 1, vec, 1, 0, w, 0)}
		m := e.d.rank.Metrics()
		for _, pend := range []bool{true, false} {
			gets := m.Req.Allocs
			r, err := e.d.FlushRequest(w, 1)
			if pend {
				close(back)
			}
			if err != nil {
				errs = append(errs, err)
				continue
			}
			if _, ok := r.Driver().(*flushOp); ok != pend {
				errs = append(errs, fmt.Errorf("flush request pending %v, want %v", ok, pend))
			}
			if n := m.Req.Allocs - gets; n != 1 {
				errs = append(errs, fmt.Errorf("flush request (pending %v) noted %d request gets, want 1", pend, n))
			}
			r.Wait()
			r.Free()
		}
		e.d.Fence(w)
		return errors.Join(append(errs, e.d.WinFree(w))...)
	})
}

func TestDerivedGetPerSegment(t *testing.T) {
	vec, _ := datatype.NewVector(2, 1, 2, datatype.Byte)
	vec.Commit()
	runWorld(t, 2, 1, fabric.INF, core.Default, func(e *env) error {
		mem := []byte{'p', 'q', 'r', 's'}
		w, err := e.d.WinCreate(mem, 1, e.c, false)
		if err != nil {
			return err
		}
		e.d.Fence(w)
		if e.c.Rank() == 0 {
			dst := bytes.Repeat([]byte{'.'}, 4)
			if err := e.d.Get(dst, 1, vec, 1, 0, w, 0); err != nil {
				return err
			}
			if string(dst) != "p.r." {
				return fmt.Errorf("derived get %q", dst)
			}
		}
		e.d.Fence(w)
		return e.d.WinFree(w)
	})
}

func TestLockUnlockPassiveTarget(t *testing.T) {
	const n = 4
	runWorld(t, n, 1, fabric.OFI, core.Default, func(e *env) error {
		mem := make([]byte, 8)
		w, err := e.d.WinCreate(mem, 1, e.c, false)
		if err != nil {
			return err
		}
		// Passive target: everyone locks rank 0 exclusively and does a
		// read-modify-write via Get+Put. Exclusive locks must make the
		// sequence atomic.
		for i := 0; i < 10; i++ {
			if err := e.d.Lock(w, 0, true); err != nil {
				return err
			}
			w.LockExclusive = true // the MPI layer records the mode Unlock releases
			buf := make([]byte, 8)
			if err := e.d.Get(buf, 8, datatype.Byte, 0, 0, w, 0); err != nil {
				return err
			}
			v := binary.LittleEndian.Uint64(buf)
			binary.LittleEndian.PutUint64(buf, v+1)
			if err := e.d.Put(buf, 8, datatype.Byte, 0, 0, w, 0); err != nil {
				return err
			}
			if err := e.d.Unlock(w, 0); err != nil {
				return err
			}
		}
		core.Barrier(e.d, e.c)
		if e.c.Rank() == 0 {
			if got := binary.LittleEndian.Uint64(mem); got != n*10 {
				return fmt.Errorf("lock-protected counter = %d, want %d", got, n*10)
			}
		}
		return e.d.WinFree(w)
	})
}

func TestDynamicWindowVirtualAddress(t *testing.T) {
	runWorld(t, 2, 1, fabric.OFI, core.Default, func(e *env) error {
		w, err := e.d.WinCreate(nil, 1, e.c, true)
		if err != nil {
			return err
		}
		// Rank 1 attaches memory and publishes its address.
		var va rma.VAddr
		mem := make([]byte, 32)
		if e.c.Rank() == 1 {
			va, err = e.d.WinAttach(w, mem)
			if err != nil {
				return err
			}
		}
		// Exchange the address (the app would send it; the registry
		// rendezvous stands in).
		vals := e.c.Exchange(e.d, va)
		va = vals[1].(rma.VAddr)

		e.d.Fence(w)
		if e.c.Rank() == 0 {
			if err := e.d.Put([]byte("dyn!"), 4, datatype.Byte, 1, int(va)+4, w, core.FlagVirtAddr); err != nil {
				return err
			}
		}
		e.d.Fence(w)
		if e.c.Rank() == 1 {
			if string(mem[4:8]) != "dyn!" {
				return fmt.Errorf("dynamic put landed %q", mem[:8])
			}
			if err := e.d.WinDetach(w, mem, va); err != nil {
				return err
			}
		}
		core.Barrier(e.d, e.c)
		return e.d.WinFree(w)
	})
}

// TestWinFreeRevokesAttachments frees a dynamic window with an
// attachment still live on every rank: the fabric must hold no region
// under any attachment's key afterwards, so a stale address cannot reach
// the memory.
func TestWinFreeRevokesAttachments(t *testing.T) {
	runWorld(t, 2, 1, fabric.INF, core.Default, func(e *env) error {
		w, err := e.d.WinCreate(nil, 1, e.c, true)
		if err != nil {
			return err
		}
		va, err := e.d.WinAttach(w, make([]byte, 16))
		if err != nil {
			return err
		}
		vas := e.c.Exchange(e.d, va)
		if err := e.d.WinFree(w); err != nil {
			return err
		}
		core.Barrier(e.d, e.c)
		fab := e.d.g.Fab
		for rank, v := range vas {
			key := v.(rma.VAddr).DynKey()
			if n, ok := fab.RegionLen(rank, key); ok {
				return fmt.Errorf("attachment of rank %d: key %d still registered (%d bytes) after WinFree", rank, key, n)
			}
			if !regionMemPanics(fab, rank, key) {
				return fmt.Errorf("attachment of rank %d: RegionMem on key %d returned memory after WinFree", rank, key)
			}
		}
		return nil
	})
}

// regionMemPanics reports whether the fabric refuses to hand out the
// memory of rank's region key.
func regionMemPanics(f *fabric.Fabric, rank, key int) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f.RegionMem(rank, key)
	return false
}

// TestPutMandatoryInstructionCount pins the Table 1 MPI_PUT mandatory
// figure: 44 on the contiguous fast path.
func TestPutMandatoryInstructionCount(t *testing.T) {
	runWorld(t, 2, 1, fabric.INF, core.Default, func(e *env) error {
		w, err := e.d.WinCreate(make([]byte, 16), 1, e.c, false)
		if err != nil {
			return err
		}
		e.d.Fence(w)
		if e.c.Rank() == 0 {
			snap := e.d.rank.Profile().Snap()
			if err := e.d.Put([]byte{1}, 1, datatype.Byte, 1, 0, w, 0); err != nil {
				return err
			}
			delta := e.d.rank.Profile().Delta(snap)
			if got := delta.Count(instr.Mandatory); got != 44 {
				return fmt.Errorf("put mandatory = %d, want 44", got)
			}
			if got := delta.Count(instr.Redundant); got != 62 {
				return fmt.Errorf("put redundant = %d, want 62", got)
			}
		}
		e.d.Fence(w)
		return e.d.WinFree(w)
	})
}

// TestVirtAddrSavesInstructions pins the Section 3.2 saving: 3
// instructions (4-instruction translation becomes a single load).
func TestVirtAddrSavesInstructions(t *testing.T) {
	runWorld(t, 2, 1, fabric.INF, core.NoErrSingleIPO, func(e *env) error {
		w, err := e.d.WinCreate(make([]byte, 16), 1, e.c, false)
		if err != nil {
			return err
		}
		e.d.Fence(w)
		if e.c.Rank() == 0 {
			measure := func(flags core.OpFlags) int64 {
				snap := e.d.rank.Profile().Snap()
				if err := e.d.Put([]byte{1}, 1, datatype.Byte, 1, 0, w, flags); err != nil {
					t.Error(err)
				}
				return e.d.rank.Profile().Delta(snap).Count(instr.Mandatory)
			}
			base := measure(0)
			va := measure(core.FlagVirtAddr)
			if base-va != cost(instr.OffsetXlate)-cost(instr.VirtAddr) {
				return fmt.Errorf("virt addr saved %d, want %d", base-va, cost(instr.OffsetXlate)-cost(instr.VirtAddr))
			}
		}
		e.d.Fence(w)
		return e.d.WinFree(w)
	})
}

func TestFenceSyncsClockToRemoteWrites(t *testing.T) {
	runWorld(t, 2, 1, fabric.OFI, core.Default, func(e *env) error {
		mem := make([]byte, 8)
		w, err := e.d.WinCreate(mem, 1, e.c, false)
		if err != nil {
			return err
		}
		e.d.Fence(w)
		if e.c.Rank() == 0 {
			// Run the clock forward so the put lands "late".
			e.d.rank.ChargeCycles(instr.Compute, 1_000_000)
			if err := e.d.Put([]byte{1}, 1, datatype.Byte, 1, 0, w, 0); err != nil {
				return err
			}
		}
		e.d.Fence(w)
		if e.c.Rank() == 1 && e.d.rank.Now() < 1_000_000 {
			return fmt.Errorf("target clock %d did not absorb remote write time", e.d.rank.Now())
		}
		return e.d.WinFree(w)
	})
}

func TestDerivedAccumulateAMFallback(t *testing.T) {
	vec, _ := datatype.NewVector(2, 1, 2, datatype.Long) // longs 0 and 2
	if err := vec.Commit(); err != nil {
		t.Fatal(err)
	}
	runWorld(t, 2, 1, fabric.OFI, core.Default, func(e *env) error {
		mem := make([]byte, 8*4)
		if e.c.Rank() == 1 {
			binary.LittleEndian.PutUint64(mem[0:], 100)
			binary.LittleEndian.PutUint64(mem[16:], 200)
		}
		w, err := e.d.WinCreate(mem, 1, e.c, false)
		if err != nil {
			return err
		}
		e.d.Fence(w)
		if e.c.Rank() == 0 {
			contrib := make([]byte, 8*4)
			binary.LittleEndian.PutUint64(contrib[0:], 5)
			binary.LittleEndian.PutUint64(contrib[16:], 7)
			if err := e.d.Accumulate(contrib, 1, vec, 1, 0, coll.OpSum, w, 0); err != nil {
				return err
			}
			// GetAccumulate rides the same fallback as one packet: it
			// fetches what the accumulate before it left.
			res := make([]byte, 8*4)
			if err := e.d.GetAccumulate(contrib, res, 1, vec, 1, 0, coll.OpSum, w, 0); err != nil {
				return err
			}
			if a, b := binary.LittleEndian.Uint64(res[0:]), binary.LittleEndian.Uint64(res[16:]); a != 105 || b != 207 {
				return fmt.Errorf("derived get_accumulate fetched %d, %d; want 105, 207", a, b)
			}
		}
		e.d.Fence(w)
		if e.c.Rank() == 1 {
			if got := binary.LittleEndian.Uint64(mem[0:]); got != 110 {
				return fmt.Errorf("slot 0 = %d", got)
			}
			if got := binary.LittleEndian.Uint64(mem[16:]); got != 214 {
				return fmt.Errorf("slot 2 = %d", got)
			}
		}
		return e.d.WinFree(w)
	})
}

func TestDeviceAccessors(t *testing.T) {
	runWorld(t, 1, 1, fabric.INF, core.NoErr, func(e *env) error {
		if e.d.cfg != (core.Config{ThreadCheck: true}) {
			return fmt.Errorf("config %+v", e.d.cfg)
		}
		seq := e.d.EventSeq()
		// A self-send bumps the event counter; WaitEvent returns.
		if _, err := e.d.Isend([]byte{1}, 1, datatype.Byte, 0, 0, e.c, core.FlagNoReq); err != nil {
			return err
		}
		e.d.WaitEvent(seq)
		buf := make([]byte, 1)
		req, err := e.d.Irecv(buf, 1, datatype.Byte, 0, 0, e.c, 0)
		if err != nil {
			return err
		}
		// Exercise the polling path (recvBox.Poll).
		for !req.Done() {
		}
		return nil
	})
}

// TestFenceEndDevice: the device's half of MPI_WIN_FENCE with
// MPI_MODE_NOSUCCEED is its fence protocol alone, which leaves the
// window's epoch to the MPI layer, so the lock protocol may follow.
func TestFenceEndDevice(t *testing.T) {
	runWorld(t, 2, 1, fabric.INF, core.Default, func(e *env) error {
		w, err := e.d.WinCreate(make([]byte, 8), 1, e.c, false)
		if err != nil {
			return err
		}
		if err := e.d.Fence(w); err != nil {
			return err
		}
		if err := e.d.Fence(w); err != nil {
			return err
		}
		if w.InEpoch() {
			return errors.New("epoch open after the device's fences")
		}
		// Lock/unlock now legal.
		if err := e.d.Lock(w, 1-e.c.Rank(), false); err != nil { // shared
			return err
		}
		if err := e.d.Unlock(w, 1-e.c.Rank()); err != nil {
			return err
		}
		core.Barrier(e.d, e.c)
		return e.d.WinFree(w)
	})
}

func TestCommWaitallWithPendingShmTraffic(t *testing.T) {
	// Exercise the waiting branch of CommWaitall: with rpn=2 the shm
	// rings need receiver progress, so a full ring could leave sends
	// logically pending. Counter completion is still immediate for
	// eager sends, but the path must at least run its progress loop.
	runWorld(t, 2, 2, fabric.OFI, core.Default, func(e *env) error {
		if e.c.Rank() == 0 {
			for i := 0; i < 5; i++ {
				if _, err := e.d.Isend([]byte{byte(i)}, 1, datatype.Byte, 1, i, e.c, core.FlagNoReq); err != nil {
					return err
				}
			}
			return e.d.CommWaitall(e.c)
		}
		for i := 0; i < 5; i++ {
			buf := make([]byte, 1)
			req, err := e.d.Irecv(buf, 1, datatype.Byte, 0, i, e.c, 0)
			if err != nil {
				return err
			}
			req.Wait()
		}
		return nil
	})
}
