package gompi

import (
	"bytes"
	"fmt"
	"testing"
)

func TestPersistentSendRecv(t *testing.T) {
	run(t, 2, Config{Fabric: "ofi", Build: "default"}, func(p *Proc) error {
		w := p.World()
		const iters = 10
		if p.Rank() == 0 {
			buf := []byte{0}
			op, err := w.SendInit(buf, 1, Byte, 1, 7)
			if err != nil {
				return err
			}
			for i := 0; i < iters; i++ {
				buf[0] = byte(i)
				if err := op.Start(); err != nil {
					return err
				}
				if _, err := op.Wait(); err != nil {
					return err
				}
			}
			return nil
		}
		buf := []byte{0}
		op, err := w.RecvInit(buf, 1, Byte, 0, 7)
		if err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			if err := op.Start(); err != nil {
				return err
			}
			st, err := op.Wait()
			if err != nil {
				return err
			}
			if buf[0] != byte(i) || st.Source != 0 {
				return fmt.Errorf("iter %d: buf %d st %+v", i, buf[0], st)
			}
		}
		return nil
	})
}

func TestPersistentAmortizesValidation(t *testing.T) {
	// On the default build, Start must skip the 74-instruction error
	// checking that a fresh Isend pays.
	run(t, 2, Config{Fabric: "inf", Build: "default"}, func(p *Proc) error {
		w := p.World()
		if p.Rank() != 0 {
			buf := make([]byte, 1)
			for i := 0; i < 2; i++ {
				if _, err := w.Recv(buf, 1, Byte, 0, 0); err != nil {
					return err
				}
			}
			return nil
		}
		buf := []byte{1}
		before := p.Counters()
		req, err := w.Isend(buf, 1, Byte, 1, 0)
		if err != nil {
			return err
		}
		fresh := p.Counters().Sub(before)
		if _, err := req.Wait(); err != nil {
			return err
		}

		op, err := w.SendInit(buf, 1, Byte, 1, 0)
		if err != nil {
			return err
		}
		before = p.Counters()
		if err := op.Start(); err != nil {
			return err
		}
		started := p.Counters().Sub(before)
		if _, err := op.Wait(); err != nil {
			return err
		}
		if started.ErrorCheck != 0 {
			return fmt.Errorf("Start charged %d error-check instructions", started.ErrorCheck)
		}
		if started.TotalInstr >= fresh.TotalInstr {
			return fmt.Errorf("Start (%d) not cheaper than Isend (%d)", started.TotalInstr, fresh.TotalInstr)
		}
		if fresh.TotalInstr-started.TotalInstr != fresh.ErrorCheck {
			return fmt.Errorf("saving %d != error checking %d",
				fresh.TotalInstr-started.TotalInstr, fresh.ErrorCheck)
		}
		return nil
	})
}

func TestPersistentStateValidation(t *testing.T) {
	run(t, 1, Config{Build: "default"}, func(p *Proc) error {
		w := p.World()
		if _, err := w.SendInit(nil, 4, Byte, 0, 0); ClassOf(err) != ErrBuffer {
			return fmt.Errorf("bad init args: %v", err)
		}
		op, err := w.SendInit([]byte{1}, 1, Byte, ProcNull, 0)
		if err != nil {
			return err
		}
		if _, err := op.Wait(); ClassOf(err) != ErrRequest {
			return fmt.Errorf("wait before start: %v", err)
		}
		if err := op.Start(); err != nil {
			return err
		}
		if err := op.Start(); ClassOf(err) != ErrRequest {
			return fmt.Errorf("double start: %v", err)
		}
		if _, err := op.Wait(); err != nil {
			return err
		}
		return nil
	})
}

func TestStartAllHaloPattern(t *testing.T) {
	// The persistent-halo idiom: init once, StartAll + Waitall per
	// iteration, on a periodic ring.
	const n = 4
	run(t, n, Config{Fabric: "ucx"}, func(p *Proc) error {
		w := p.World()
		right := (p.Rank() + 1) % n
		left := (p.Rank() - 1 + n) % n
		out := []byte{0}
		in := []byte{0}
		sendOp, err := w.SendInit(out, 1, Byte, right, 1)
		if err != nil {
			return err
		}
		recvOp, err := w.RecvInit(in, 1, Byte, left, 1)
		if err != nil {
			return err
		}
		ops := []*PersistentOp{sendOp, recvOp}
		for iter := 0; iter < 5; iter++ {
			out[0] = byte(p.Rank()*10 + iter)
			if err := StartAll(ops); err != nil {
				return err
			}
			for _, o := range ops {
				if _, err := o.Wait(); err != nil {
					return err
				}
			}
			if in[0] != byte(left*10+iter) {
				return fmt.Errorf("iter %d: got %d", iter, in[0])
			}
		}
		return nil
	})
}

func TestSplitTypeShared(t *testing.T) {
	run(t, 8, Config{Fabric: "ofi", RanksPerNode: 4}, func(p *Proc) error {
		w := p.World()
		node, err := w.SplitType(SplitTypeShared, p.Rank())
		if err != nil {
			return err
		}
		if node.Size() != 4 {
			return fmt.Errorf("node comm size %d, want 4", node.Size())
		}
		if node.Rank() != p.Rank()%4 {
			return fmt.Errorf("node rank %d for world %d", node.Rank(), p.Rank())
		}
		// On-node collective must work (and ride the shmmod).
		vals, err := node.AllreduceFloat64([]float64{1}, OpSum)
		if err != nil {
			return err
		}
		if vals[0] != 4 {
			return fmt.Errorf("node allreduce = %v", vals[0])
		}
		if _, err := w.SplitType(99, 0); ClassOf(err) != ErrArg {
			return fmt.Errorf("bad split type: %v", err)
		}
		return nil
	})
}

func TestSendrecvReplace(t *testing.T) {
	const n = 3
	run(t, n, Config{}, func(p *Proc) error {
		w := p.World()
		right := (p.Rank() + 1) % n
		left := (p.Rank() - 1 + n) % n
		buf := []byte{byte(p.Rank() + 1)}
		st, err := w.SendrecvReplace(buf, 1, Byte, right, 0, left, 0)
		if err != nil {
			return err
		}
		if buf[0] != byte(left+1) || st.Source != left {
			return fmt.Errorf("rank %d: buf %d st %+v", p.Rank(), buf[0], st)
		}
		return nil
	})
}

func TestReduceLocal(t *testing.T) {
	in := Int64Bytes([]int64{5, 7}, nil)
	inout := Int64Bytes([]int64{1, 2}, nil)
	if err := ReduceLocal(in, inout, 2, Long, OpSum); err != nil {
		t.Fatal(err)
	}
	got := BytesInt64(inout, nil)
	if got[0] != 6 || got[1] != 9 {
		t.Fatalf("reduce_local = %v", got)
	}
	if err := ReduceLocal(in, inout, 2, Double, OpBAnd); err == nil {
		t.Fatal("bitwise op on double accepted")
	}
	if err := ReduceLocal(in, inout, 2, nil, OpSum); ClassOf(err) != ErrType {
		t.Errorf("nil datatype: %v, want ErrType", err)
	}
	if err := ReduceLocal(in, inout, -1, Long, OpSum); ClassOf(err) != ErrCount {
		t.Errorf("negative count: %v, want ErrCount", err)
	}
	// A short inoutbuf with spare capacity must be refused, not written
	// past its length.
	backing := make([]byte, 16)
	if err := ReduceLocal(in, backing[:8], 2, Long, OpSum); ClassOf(err) != ErrBuffer {
		t.Errorf("short inoutbuf: %v, want ErrBuffer", err)
	}
	if !bytes.Equal(backing, make([]byte, 16)) {
		t.Errorf("short inoutbuf: backing array written: %v", backing)
	}
}
