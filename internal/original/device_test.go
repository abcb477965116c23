package original

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"gompi/internal/coll"
	"gompi/internal/comm"
	"gompi/internal/core"
	"gompi/internal/datatype"
	"gompi/internal/fabric"
	"gompi/internal/proc"
	"gompi/internal/rma"
)

// The baseline device must satisfy the same ADI as ch4.
var _ core.Device = (*Device)(nil)

type env struct {
	d *Device
	c *comm.Comm
}

func runWorld(t *testing.T, n int, prof fabric.Profile, cfg core.Config, body func(e *env) error) {
	t.Helper()
	hz := prof.Hz
	if hz == 0 {
		hz = 2.2e9
	}
	w := proc.NewWorld(n, 1, hz)
	g := NewGlobal(w, prof, cfg)
	reg := comm.NewRegistry()
	err := errors.Join(w.RunAll(func(r *proc.Rank) error {
		d := g.Open(r)
		c := comm.NewWorld(reg, n, r.ID())
		c.Exchange(d, nil) // start-up: every device is open
		return body(&env{d: d, c: c})
	})...)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvSoftwareMatching(t *testing.T) {
	runWorld(t, 2, fabric.OFI, core.Default, func(e *env) error {
		if e.c.Rank() == 0 {
			req, err := e.d.Isend([]byte("pkt"), 3, datatype.Byte, 1, 4, e.c, 0)
			if err != nil {
				return err
			}
			req.Wait()
			return nil
		}
		buf := make([]byte, 3)
		req, err := e.d.Irecv(buf, 3, datatype.Byte, 0, 4, e.c, 0)
		if err != nil {
			return err
		}
		req.Wait()
		if string(buf) != "pkt" || req.Status.Source != 0 || req.Status.Tag != 4 {
			return fmt.Errorf("recv %q status %+v", buf, req.Status)
		}
		return nil
	})
}

func TestUnexpectedThenPosted(t *testing.T) {
	runWorld(t, 2, fabric.INF, core.Default, func(e *env) error {
		if e.c.Rank() == 0 {
			for i := 0; i < 4; i++ {
				if _, err := e.d.Isend([]byte{byte(i)}, 1, datatype.Byte, 1, i, e.c, core.FlagNoReq); err != nil {
					return err
				}
			}
			return nil
		}
		// Receive out of order: tags 3,1,0,2 — software matching must
		// pick each from the unexpected queue.
		for _, tag := range []int{3, 1, 0, 2} {
			buf := make([]byte, 1)
			req, err := e.d.Irecv(buf, 1, datatype.Byte, 0, tag, e.c, 0)
			if err != nil {
				return err
			}
			req.Wait()
			if buf[0] != byte(tag) {
				return fmt.Errorf("tag %d delivered %d", tag, buf[0])
			}
		}
		return nil
	})
}

func TestAnySourceSoftware(t *testing.T) {
	runWorld(t, 3, fabric.OFI, core.Default, func(e *env) error {
		if e.c.Rank() != 0 {
			_, err := e.d.Isend([]byte{byte(e.c.Rank())}, 1, datatype.Byte, 0, 1, e.c, core.FlagNoReq)
			return err
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			buf := make([]byte, 1)
			req, err := e.d.Irecv(buf, 1, datatype.Byte, core.AnySource, 1, e.c, 0)
			if err != nil {
				return err
			}
			req.Wait()
			seen[req.Status.Source] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("sources %v", seen)
		}
		return nil
	})
}

func TestProcNullOriginal(t *testing.T) {
	runWorld(t, 1, fabric.INF, core.Default, func(e *env) error {
		req, err := e.d.Isend([]byte{1}, 1, datatype.Byte, core.ProcNull, 0, e.c, 0)
		if err != nil {
			return err
		}
		if !req.Done() {
			return errors.New("PROC_NULL send incomplete")
		}
		return nil
	})
}

func TestDerivedTypeOriginal(t *testing.T) {
	vec, _ := datatype.NewVector(2, 1, 2, datatype.Byte)
	vec.Commit()
	runWorld(t, 2, fabric.INF, core.Default, func(e *env) error {
		if e.c.Rank() == 0 {
			_, err := e.d.Isend([]byte{'a', 'b', 'c', 'd'}, 1, vec, 1, 0, e.c, core.FlagNoReq)
			return err
		}
		dst := bytes.Repeat([]byte{'.'}, 4)
		req, err := e.d.Irecv(dst, 1, vec, 0, 0, e.c, 0)
		if err != nil {
			return err
		}
		req.Wait()
		if string(dst) != "a.c." {
			return fmt.Errorf("derived recv %q", dst)
		}
		return nil
	})
}

// TestIsendInstructionCount pins the device-side share of the paper's
// 253-instruction MPI_ISEND (253 minus the MPI layer's 74+6+17 = 156).
func TestIsendInstructionCount(t *testing.T) {
	runWorld(t, 2, fabric.INF, core.Default, func(e *env) error {
		if e.c.Rank() != 0 {
			buf := make([]byte, 1)
			req, err := e.d.Irecv(buf, 1, datatype.Byte, 0, 0, e.c, 0)
			if err != nil {
				return err
			}
			req.Wait()
			return nil
		}
		snap := e.d.rank.Profile().Snap()
		if _, err := e.d.Isend([]byte{1}, 1, datatype.Byte, 1, 0, e.c, 0); err != nil {
			return err
		}
		delta := e.d.rank.Profile().Delta(snap)
		if got := delta.Total; got != 156 {
			return fmt.Errorf("device-side Isend = %d instructions, want 156", got)
		}
		return nil
	})
}

// TestPutInstructionCount pins the device-side share of the paper's
// 1,342-instruction MPI_PUT (1,342 minus the MPI layer's 72+14+17 =
// 1,239).
func TestPutInstructionCount(t *testing.T) {
	runWorld(t, 2, fabric.INF, core.Default, func(e *env) error {
		mem := make([]byte, 16)
		w, err := e.d.WinCreate(mem, 1, e.c, false)
		if err != nil {
			return err
		}
		if err := e.d.Fence(w); err != nil {
			return err
		}
		if e.c.Rank() == 0 {
			snap := e.d.rank.Profile().Snap()
			if err := e.d.Put([]byte{1}, 1, datatype.Byte, 1, 0, w, 0); err != nil {
				return err
			}
			delta := e.d.rank.Profile().Delta(snap)
			if got := delta.Total; got != 1239 {
				return fmt.Errorf("device-side Put = %d instructions, want 1239", got)
			}
		}
		if err := e.d.Fence(w); err != nil {
			return err
		}
		if e.c.Rank() == 1 && mem[0] != 1 {
			return errors.New("put did not land")
		}
		return e.d.WinFree(w)
	})
}

func TestOriginalPutDerived(t *testing.T) {
	vec, _ := datatype.NewVector(3, 1, 2, datatype.Byte)
	vec.Commit()
	runWorld(t, 2, fabric.OFI, core.Default, func(e *env) error {
		mem := bytes.Repeat([]byte{'.'}, 8)
		w, err := e.d.WinCreate(mem, 1, e.c, false)
		if err != nil {
			return err
		}
		e.d.Fence(w)
		if e.c.Rank() == 0 {
			if err := e.d.Put([]byte{'A', 'x', 'B', 'y', 'C', 'z'}, 1, vec, 1, 0, w, 0); err != nil {
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

// TestPutBoundsChecked: a target range that passes the end of an
// 8-byte window is an ErrBadDisp at the origin. The derived rows reach
// a byte past their packed size: a vector(2,1,2,byte) at displacement
// 6 packs 2 bytes but touches bytes 6 and 8.
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
	for _, c := range cases {
		runWorld(t, 2, fabric.INF, core.Default, func(e *env) error {
			w, err := e.d.WinCreate(make([]byte, 8), 1, e.c, false)
			if err != nil {
				return err
			}
			e.d.Fence(w)
			if e.c.Rank() == 0 {
				if err := c.op(e.d, w); !errors.Is(err, rma.ErrBadDisp) {
					return fmt.Errorf("%s: out-of-window error %v", c.name, err)
				}
			}
			e.d.Fence(w)
			return e.d.WinFree(w)
		})
	}
}

func TestOriginalGet(t *testing.T) {
	runWorld(t, 2, fabric.OFI, core.Default, func(e *env) error {
		mem := make([]byte, 8)
		if e.c.Rank() == 1 {
			copy(mem, "SECRET!!")
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
			if string(buf) != "SECRET" {
				return fmt.Errorf("get %q", buf)
			}
		} else {
			// The target must be in the progress engine for the
			// response to flow: fence's barrier recv pumps it.
		}
		e.d.Fence(w)
		return e.d.WinFree(w)
	})
}

func TestOriginalAccumulate(t *testing.T) {
	const n = 3
	runWorld(t, n, fabric.INF, core.Default, func(e *env) error {
		mem := make([]byte, 8)
		w, err := e.d.WinCreate(mem, 1, e.c, false)
		if err != nil {
			return err
		}
		e.d.Fence(w)
		contrib := make([]byte, 8)
		binary.LittleEndian.PutUint64(contrib, uint64(e.c.Rank()+1))
		if err := e.d.Accumulate(contrib, 1, datatype.Long, 0, 0, coll.OpSum, w, 0); err != nil {
			return err
		}
		e.d.Fence(w)
		if e.c.Rank() == 0 {
			if got := binary.LittleEndian.Uint64(mem); got != n*(n+1)/2 {
				return fmt.Errorf("accumulate = %d", got)
			}
		}
		return e.d.WinFree(w)
	})
}

func TestOriginalLockUnlock(t *testing.T) {
	runWorld(t, 2, fabric.INF, core.Default, func(e *env) error {
		mem := make([]byte, 8)
		w, err := e.d.WinCreate(mem, 1, e.c, false)
		if err != nil {
			return err
		}
		if e.c.Rank() == 0 {
			if err := e.d.Lock(w, 1, true); err != nil {
				return err
			}
			w.LockExclusive = true // the MPI layer records the mode Unlock releases
			if err := e.d.Put([]byte{7}, 1, datatype.Byte, 1, 0, w, 0); err != nil {
				return err
			}
			if err := e.d.Unlock(w, 1); err != nil {
				return err
			}
		}
		core.Barrier(e.d, e.c)
		if e.c.Rank() == 1 {
			// Pump progress: the put packet may still be queued.
			e.d.waitUntil(func() bool { e.d.Progress(); return mem[0] == 7 })
		}
		return e.d.WinFree(w)
	})
}

func TestDynamicWindowUnsupported(t *testing.T) {
	runWorld(t, 1, fabric.INF, core.Default, func(e *env) error {
		if _, err := e.d.WinCreate(nil, 1, e.c, true); err == nil {
			return errors.New("baseline accepted a dynamic window")
		}
		return nil
	})
}

// The ch4-vs-original instruction gap is the paper's headline: verify
// the orderings hold structurally.
func TestDeviceGapOrdering(t *testing.T) {
	runWorld(t, 2, fabric.INF, core.Default, func(e *env) error {
		var isend int64
		if e.c.Rank() == 0 {
			snap := e.d.rank.Profile().Snap()
			if _, err := e.d.Isend([]byte{1}, 1, datatype.Byte, 1, 0, e.c, core.FlagNoReq); err != nil {
				return err
			}
			isend = e.d.rank.Profile().Delta(snap).Total
		} else {
			buf := make([]byte, 1)
			req, err := e.d.Irecv(buf, 1, datatype.Byte, 0, 0, e.c, 0)
			if err != nil {
				return err
			}
			req.Wait()
		}
		w, err := e.d.WinCreate(make([]byte, 8), 1, e.c, false)
		if err != nil {
			return err
		}
		if err := e.d.Fence(w); err != nil {
			return err
		}
		if e.c.Rank() == 0 {
			snap := e.d.rank.Profile().Snap()
			if err := e.d.Put([]byte{1}, 1, datatype.Byte, 1, 0, w, 0); err != nil {
				return err
			}
			put := e.d.rank.Profile().Delta(snap).Total
			if put <= 4*isend {
				return fmt.Errorf("baseline Put (%d) should dwarf Isend (%d)", put, isend)
			}
		}
		if err := e.d.Fence(w); err != nil {
			return err
		}
		return e.d.WinFree(w)
	})
}

func TestOriginalAccessorsAndAllOpts(t *testing.T) {
	runWorld(t, 2, fabric.INF, core.NoErr, func(e *env) error {
		if e.d.cfg != (core.Config{ThreadCheck: true}) {
			return fmt.Errorf("config %+v", e.d.cfg)
		}
		if e.c.Rank() == 0 {
			seq := e.d.EventSeq()
			// IsendAllOpts exists for ADI parity on this device.
			if err := e.d.IsendAllOpts([]byte{1}, 1, e.c); err != nil {
				return err
			}
			_ = seq
			return e.d.CommWaitall(e.c)
		}
		buf := make([]byte, 1)
		req, err := e.d.Irecv(buf, 1, datatype.Byte, core.AnySource, core.AnyTag, e.c, core.FlagNoMatch)
		if err != nil {
			return err
		}
		req.Wait()
		return nil
	})
}

func TestOriginalIprobe(t *testing.T) {
	runWorld(t, 2, fabric.INF, core.Default, func(e *env) error {
		if e.c.Rank() == 0 {
			_, err := e.d.Isend([]byte{1, 2}, 2, datatype.Byte, 1, 6, e.c, core.FlagNoReq)
			return err
		}
		for {
			st, ok, err := e.d.Iprobe(0, 6, e.c)
			if err != nil {
				return err
			}
			if ok {
				if st.Count != 2 || st.Source != 0 || st.Tag != 6 {
					return fmt.Errorf("probe %+v", st)
				}
				break
			}
		}
		// And a wildcard probe must also hit.
		if _, ok, err := e.d.Iprobe(core.AnySource, core.AnyTag, e.c); err != nil || !ok {
			return fmt.Errorf("wildcard probe (%v,%v)", ok, err)
		}
		buf := make([]byte, 2)
		req, err := e.d.Irecv(buf, 2, datatype.Byte, 0, 6, e.c, 0)
		if err != nil {
			return err
		}
		req.Wait()
		return nil
	})
}

func TestOriginalGetAccumulate(t *testing.T) {
	runWorld(t, 2, fabric.OFI, core.Default, func(e *env) error {
		mem := make([]byte, 8)
		if e.c.Rank() == 1 {
			binary.LittleEndian.PutUint64(mem, 40)
		}
		w, err := e.d.WinCreate(mem, 1, e.c, false)
		if err != nil {
			return err
		}
		e.d.Fence(w)
		if e.c.Rank() == 0 {
			add := make([]byte, 8)
			binary.LittleEndian.PutUint64(add, 2)
			old := make([]byte, 8)
			if err := e.d.GetAccumulate(add, old, 1, datatype.Long, 1, 0, coll.OpSum, w, 0); err != nil {
				return err
			}
			if got := binary.LittleEndian.Uint64(old); got != 40 {
				return fmt.Errorf("fetched %d", got)
			}
		}
		e.d.Fence(w)
		if e.c.Rank() == 1 {
			if got := binary.LittleEndian.Uint64(mem); got != 42 {
				return fmt.Errorf("target %d", got)
			}
		}
		return e.d.WinFree(w)
	})
}

// TestOriginalFenceEnd: the device's half of MPI_WIN_FENCE with
// MPI_MODE_NOSUCCEED is its fence protocol alone, which leaves the
// window's epoch to the MPI layer.
func TestOriginalFenceEnd(t *testing.T) {
	runWorld(t, 2, fabric.INF, core.Default, func(e *env) error {
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
		return e.d.WinFree(w)
	})
}
