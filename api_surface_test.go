package gompi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// Tests for API surface not covered by the scenario suites: group
// operations, datatype constructors, typed helpers, error rendering.

func TestGroupOperationsPublic(t *testing.T) {
	run(t, 6, Config{}, func(p *Proc) error {
		w := p.World()
		g := w.Group()
		if g.Size() != 6 || g.Rank(p.Rank()) != p.Rank() {
			return fmt.Errorf("world group wrong")
		}
		wr := g.WorldRanks()
		if len(wr) != 6 || wr[3] != 3 {
			return fmt.Errorf("world ranks %v", wr)
		}
		evens, err := g.Incl([]int{0, 2, 4})
		if err != nil {
			return err
		}
		odds, err := g.Excl([]int{0, 2, 4})
		if err != nil {
			return err
		}
		if evens.Size() != 3 || odds.Size() != 3 {
			return fmt.Errorf("incl/excl sizes %d/%d", evens.Size(), odds.Size())
		}
		if GroupUnion(evens, odds).Size() != 6 {
			return fmt.Errorf("union wrong")
		}
		if GroupIntersection(evens, odds).Size() != 0 {
			return fmt.Errorf("intersection wrong")
		}
		if GroupDifference(g, odds).Size() != 3 {
			return fmt.Errorf("difference wrong")
		}
		tr, err := TranslateRanks(evens, []int{0, 1, 2}, g)
		if err != nil {
			return err
		}
		if tr[0] != 0 || tr[1] != 2 || tr[2] != 4 {
			return fmt.Errorf("translate %v", tr)
		}
		if _, err := g.Incl([]int{9}); ClassOf(err) != ErrRank {
			return fmt.Errorf("bad incl: %v", err)
		}
		if _, err := g.Excl([]int{-1}); ClassOf(err) != ErrRank {
			return fmt.Errorf("bad excl: %v", err)
		}
		return nil
	})
}

func TestCommCreatePublic(t *testing.T) {
	run(t, 4, Config{}, func(p *Proc) error {
		w := p.World()
		g, err := w.Group().Incl([]int{1, 3})
		if err != nil {
			return err
		}
		sub, err := w.Create(g)
		if err != nil {
			return err
		}
		if p.Rank()%2 == 0 {
			if sub != nil {
				return fmt.Errorf("non-member got a communicator")
			}
			return nil
		}
		if sub.Size() != 2 || sub.Rank() != p.Rank()/2 {
			return fmt.Errorf("sub %d/%d", sub.Rank(), sub.Size())
		}
		// It must carry traffic.
		if sub.Rank() == 0 {
			return sub.Send([]byte{1}, 1, Byte, 1, 0)
		}
		buf := make([]byte, 1)
		_, err = sub.Recv(buf, 1, Byte, 0, 0)
		return err
	})
}

func TestPublicTypeConstructors(t *testing.T) {
	ct, err := TypeContiguous(4, Int)
	if err != nil || ct.Size() != 16 {
		t.Fatalf("contiguous: %v %d", err, ct.Size())
	}
	hv, err := TypeHvector(2, 1, 12, Int)
	if err != nil || hv.Extent() != 16 {
		t.Fatalf("hvector: %v", err)
	}
	ix, err := TypeIndexed([]int{1, 1}, []int{0, 3}, Int)
	if err != nil || ix.Size() != 8 {
		t.Fatalf("indexed: %v", err)
	}
	st, err := TypeStruct([]int{1, 1}, []int{0, 8}, []*Datatype{Int, Double})
	if err != nil || st.Size() != 12 {
		t.Fatalf("struct: %v", err)
	}
	sa, err := TypeSubarray([]int{4, 4}, []int{2, 2}, []int{0, 0}, Byte)
	if err != nil || sa.Size() != 4 {
		t.Fatalf("subarray: %v", err)
	}
	rz, err := TypeResized(Int, 16)
	if err != nil || rz.Extent() != 16 {
		t.Fatalf("resized: %v", err)
	}
	dup := TypeDup(ct)
	if dup.Size() != ct.Size() {
		t.Fatal("dup size")
	}
	if _, err := TypeContiguous(-1, Int); ClassOf(err) != ErrType {
		t.Fatalf("bad contiguous: %v", err)
	}
	if _, err := TypeSubarray([]int{2}, []int{3}, []int{0}, Byte); ClassOf(err) != ErrType {
		t.Fatalf("bad subarray: %v", err)
	}
}

func TestInt32Helpers(t *testing.T) {
	vals := []int32{-5, 1 << 30, 42}
	wire := Int32Bytes(vals, nil)
	if len(wire) != 12 {
		t.Fatalf("wire %d bytes", len(wire))
	}
	back := BytesInt32(wire, nil)
	for i := range vals {
		if back[i] != vals[i] {
			t.Fatalf("roundtrip %v -> %v", vals, back)
		}
	}
	// Reuse paths.
	wire2 := Int32Bytes(vals, wire)
	if &wire2[0] != &wire[0] {
		t.Error("Int32Bytes did not reuse buffer")
	}
	back2 := BytesInt32(wire, back)
	if &back2[0] != &back[0] {
		t.Error("BytesInt32 did not reuse slice")
	}
}

func TestErrorRendering(t *testing.T) {
	classes := []ErrorClass{ErrNone, ErrBuffer, ErrCount, ErrType, ErrTag, ErrComm,
		ErrRank, ErrRequest, ErrTruncate, ErrWin, ErrRMASync, ErrArg, ErrOther, ErrHint}
	for _, c := range classes {
		if c.String() == "" {
			t.Errorf("class %d has no name", c)
		}
	}
	e := errc(ErrRank, "rank %d bad", 7)
	if e.Error() != "MPI_ERR_RANK: rank 7 bad" {
		t.Errorf("error rendering: %q", e.Error())
	}
	if ClassOf(fmt.Errorf("foreign")) != ErrOther {
		t.Error("foreign error class")
	}
	// Run wraps a rank's error ("rank %d: %w") and joins the ranks'.
	wrapped := fmt.Errorf("rank %d: %w", 1, errc(ErrWin, "out of window"))
	if ClassOf(wrapped) != ErrWin {
		t.Errorf("wrapped error class = %v", ClassOf(wrapped))
	}
	if joined := errors.Join(fmt.Errorf("foreign"), wrapped); ClassOf(joined) != ErrWin {
		t.Errorf("joined error class = %v", ClassOf(joined))
	}
	if ErrorClass(99).String() != "MPI_ERR_OTHER" {
		t.Error("unknown class name")
	}
}

func TestProgressAndInfoPublic(t *testing.T) {
	run(t, 2, Config{}, func(p *Proc) error {
		p.Progress() // must be callable anytime
		w := p.World()
		w.SetInfo("key", "value")
		if v, ok := w.Info("key"); !ok || v != "value" {
			return fmt.Errorf("info hint lost")
		}
		if _, ok := w.Info("missing"); ok {
			return fmt.Errorf("phantom hint")
		}
		return w.Barrier()
	})
}

func TestPersistentTestPolling(t *testing.T) {
	run(t, 2, Config{Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			p.ChargeCompute(100_000)
			return w.Send([]byte{9}, 1, Byte, 1, 0)
		}
		buf := make([]byte, 1)
		op, err := w.RecvInit(buf, 1, Byte, 0, 0)
		if err != nil {
			return err
		}
		if _, _, err := op.Test(); ClassOf(err) != ErrRequest {
			return fmt.Errorf("test before start: %v", err)
		}
		if err := op.Start(); err != nil {
			return err
		}
		for {
			st, done, err := op.Test()
			if err != nil {
				return err
			}
			if done {
				if st.Count != 1 || buf[0] != 9 {
					return fmt.Errorf("completion %+v %v", st, buf)
				}
				return nil
			}
		}
	})
}

func TestIsendOptCombinations(t *testing.T) {
	run(t, 2, Config{Fabric: "inf"}, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			combos := []SendOptions{
				{},
				{NoProcNull: true},
				{NoReq: true, NoMatch: true},
				{GlobalRank: true, NoProcNull: true, NoReq: true, NoMatch: true},
			}
			for i, o := range combos {
				req, err := w.IsendOpt([]byte{byte(i)}, 1, Byte, 1, 0, o)
				if err != nil {
					return err
				}
				if o.NoReq && req != nil {
					return fmt.Errorf("noreq combo returned a request")
				}
				if _, err := req.Wait(); err != nil {
					return err
				}
			}
			return w.CommWaitall()
		}
		for i := 0; i < 4; i++ {
			buf := make([]byte, 1)
			if _, err := w.RecvNoMatch(buf, 1, Byte); err != nil {
				return err
			}
			if buf[0] != byte(i) {
				return fmt.Errorf("combo %d delivered %d", i, buf[0])
			}
		}
		return nil
	})
}

func TestWinMemAndBaseAddr(t *testing.T) {
	run(t, 2, Config{}, func(p *Proc) error {
		w := p.World()
		win, mem, err := w.WinAllocate(32, 1)
		if err != nil {
			return err
		}
		if !bytes.Equal(win.Mem(), mem) || len(win.Mem()) != 32 {
			return fmt.Errorf("window memory mismatch")
		}
		if win.BaseAddr(1) != 0 {
			return fmt.Errorf("base addr %d", win.BaseAddr(1))
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		return win.Free()
	})
}

func TestGetVirtualAddrPublic(t *testing.T) {
	run(t, 2, Config{Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		win, mem, err := w.WinAllocate(16, 4)
		if err != nil {
			return err
		}
		if p.Rank() == 1 {
			copy(mem[8:], []byte{0xAA, 0xBB})
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			buf := make([]byte, 2)
			if err := win.GetVirtualAddr(buf, 2, Byte, 1, win.BaseAddr(1)+8); err != nil {
				return err
			}
			if buf[0] != 0xAA || buf[1] != 0xBB {
				return fmt.Errorf("va get %v", buf)
			}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		return win.Free()
	})
}

func TestPublicPackUnpack(t *testing.T) {
	vec, err := TypeVector(2, 1, 2, Byte)
	if err != nil {
		t.Fatal(err)
	}
	if err := vec.Commit(); err != nil {
		t.Fatal(err)
	}
	if PackedSize(1, vec) != 2 {
		t.Fatalf("packed size %d", PackedSize(1, vec))
	}
	src := []byte{'a', 'b', 'c', 'd'}
	wire := make([]byte, 2)
	n, err := Pack(src, 1, vec, wire)
	if err != nil || n != 2 || string(wire) != "ac" {
		t.Fatalf("pack (%d,%v) %q", n, err, wire)
	}
	dst := []byte{'.', '.', '.', '.'}
	if _, err := Unpack(wire, 1, vec, dst); err != nil {
		t.Fatal(err)
	}
	if string(dst) != "a.c." {
		t.Fatalf("unpack %q", dst)
	}
	// Uncommitted type errors through the public wrapper.
	raw, _ := TypeVector(2, 1, 2, Byte)
	if _, err := Pack(src, 1, raw, wire); ClassOf(err) != ErrType {
		t.Fatalf("uncommitted pack: %v", err)
	}
}

func TestStatusGetCount(t *testing.T) {
	st := Status{Count: 24}
	if st.GetCount(Double) != 3 {
		t.Fatalf("GetCount(Double) = %d", st.GetCount(Double))
	}
	if st.GetCount(Int) != 6 {
		t.Fatalf("GetCount(Int) = %d", st.GetCount(Int))
	}
	odd := Status{Count: 10}
	if odd.GetCount(Double) != UndefinedIndex {
		t.Fatalf("partial element not UNDEFINED")
	}
	if (Status{}).GetCount(nil) != 0 {
		t.Fatalf("empty status with nil type")
	}
}

// TestWinAPISurfacePinned pins the redesigned one-sided surface at
// compile time: the flush family, the single-epoch lock-all pair, the
// request-based operations, notified access, the option structs, and
// the deprecation-shim guarantee that pre-redesign signatures
// (Fence/Lock/Flush/LockAll/UnlockAll) still compile unchanged.
func TestWinAPISurfacePinned(t *testing.T) {
	w := (*Win)(nil)
	var (
		_ func() error                                                 = w.Fence
		_ func() error                                                 = w.FenceEnd
		_ func(int, bool) error                                        = w.Lock
		_ func(int) error                                              = w.Unlock
		_ func() error                                                 = w.LockAll
		_ func() error                                                 = w.LockAllExclusive
		_ func() error                                                 = w.UnlockAll
		_ func(int) error                                              = w.Flush
		_ func(int) error                                              = w.FlushLocal
		_ func() error                                                 = w.FlushAll
		_ func() error                                                 = w.FlushLocalAll
		_ func([]byte, int, *Datatype, int, int) (*Request, error)     = w.Rput
		_ func([]byte, int, *Datatype, int, int) (*Request, error)     = w.Rget
		_ func([]byte, int, *Datatype, int, int, Op) (*Request, error) = w.Raccumulate
		_ func([]byte, int, *Datatype, int, int) error                 = w.PutNotify
		_ func(int) (int, error)                                       = w.WaitNotify
		_ func([]byte, int, *Datatype, int, int, PutOptions) error     = w.PutOpt
	)
	var c *Comm
	var (
		_ func([]byte, int, WinOptions) (*Win, error)      = c.WinCreateOpt
		_ func(int, int, WinOptions) (*Win, []byte, error) = c.WinAllocateOpt
	)
	if AllPutOptions != (PutOptions{GlobalRank: true, NoProcNull: true}) {
		t.Error("AllPutOptions must assert every fast-path option")
	}
	var o WinOptions
	o.NoLocks, o.SameDispUnit = true, true
}

// TestRmaConfigKnob pins the trace kind re-exports the RMA
// observability added with the flush redesign.
func TestRmaConfigKnob(t *testing.T) {
	if TraceFlush.String() != "rma-flush" || TraceNotify.String() != "rma-notify" {
		t.Errorf("trace kinds: %s, %s", TraceFlush, TraceNotify)
	}
}
