package gompi

import (
	"bytes"
	"fmt"
	"testing"
)

var collSizes = []int{1, 2, 3, 4, 7, 8}

func TestBarrierPublic(t *testing.T) {
	for _, cfg := range sweepConfigs {
		t.Run(cfgName(cfg), func(t *testing.T) {
			run(t, 4, cfg, func(p *Proc) error {
				for i := 0; i < 3; i++ {
					if err := p.World().Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

func TestBcastPublic(t *testing.T) {
	for _, n := range collSizes {
		run(t, n, Config{Fabric: "ofi"}, func(p *Proc) error {
			w := p.World()
			buf := make([]byte, 32)
			root := n - 1
			if p.Rank() == root {
				for i := range buf {
					buf[i] = byte(i ^ 0x5A)
				}
			}
			if err := w.Bcast(buf, 32, Byte, root); err != nil {
				return err
			}
			for i := range buf {
				if buf[i] != byte(i^0x5A) {
					return fmt.Errorf("rank %d byte %d = %d", p.Rank(), i, buf[i])
				}
			}
			return nil
		})
	}
}

func TestAllreducePublic(t *testing.T) {
	for _, n := range collSizes {
		run(t, n, Config{Fabric: "ucx"}, func(p *Proc) error {
			w := p.World()
			vals, err := w.AllreduceFloat64([]float64{1.0, float64(p.Rank())}, OpSum)
			if err != nil {
				return err
			}
			if vals[0] != float64(n) || vals[1] != float64(n*(n-1)/2) {
				return fmt.Errorf("allreduce = %v", vals)
			}
			return nil
		})
	}
}

func TestReduceMaxPublic(t *testing.T) {
	run(t, 5, Config{}, func(p *Proc) error {
		w := p.World()
		send := Int64Bytes([]int64{int64(p.Rank() * 10)}, nil)
		recv := make([]byte, 8)
		if err := w.Reduce(send, recv, 1, Long, OpMax, 2); err != nil {
			return err
		}
		if p.Rank() == 2 {
			if got := BytesInt64(recv, nil)[0]; got != 40 {
				return fmt.Errorf("max = %d", got)
			}
		}
		return nil
	})
}

func TestGatherScatterPublic(t *testing.T) {
	const n = 4
	run(t, n, Config{Fabric: "inf"}, func(p *Proc) error {
		w := p.World()
		mine := []byte{byte(p.Rank()), byte(p.Rank() * 2)}
		all := make([]byte, 2*n)
		if err := w.Gather(mine, all, 2, Byte, 0); err != nil {
			return err
		}
		if p.Rank() == 0 {
			for r := 0; r < n; r++ {
				if all[2*r] != byte(r) || all[2*r+1] != byte(2*r) {
					return fmt.Errorf("gather block %d = %v", r, all[2*r:2*r+2])
				}
			}
		}
		back := make([]byte, 2)
		if err := w.Scatter(all, back, 2, Byte, 0); err != nil {
			return err
		}
		if !bytes.Equal(back, mine) {
			return fmt.Errorf("scatter returned %v", back)
		}
		return nil
	})
}

func TestAllgatherPublic(t *testing.T) {
	for _, n := range collSizes {
		run(t, n, Config{Fabric: "ofi"}, func(p *Proc) error {
			w := p.World()
			mine := []byte{byte(p.Rank() + 1)}
			all := make([]byte, n)
			if err := w.Allgather(mine, all, 1, Byte); err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				if all[r] != byte(r+1) {
					return fmt.Errorf("rank %d: allgather %v", p.Rank(), all)
				}
			}
			return nil
		})
	}
}

func TestAlltoallPublic(t *testing.T) {
	for _, n := range collSizes {
		run(t, n, Config{}, func(p *Proc) error {
			w := p.World()
			send := make([]byte, n)
			for r := range send {
				send[r] = byte(p.Rank()*8 + r)
			}
			recv := make([]byte, n)
			if err := w.Alltoall(send, recv, 1, Byte); err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				if recv[r] != byte(r*8+p.Rank()) {
					return fmt.Errorf("rank %d recv %v", p.Rank(), recv)
				}
			}
			return nil
		})
	}
}

func TestReduceScatterBlockPublic(t *testing.T) {
	const n = 4
	run(t, n, Config{}, func(p *Proc) error {
		w := p.World()
		send := Int64Bytes([]int64{1, 2, 3, 4}, nil)
		recv := make([]byte, 8)
		if err := w.ReduceScatterBlock(send, recv, 1, Long, OpSum); err != nil {
			return err
		}
		if got := BytesInt64(recv, nil)[0]; got != int64(n*(p.Rank()+1)) {
			return fmt.Errorf("rank %d got %d", p.Rank(), got)
		}
		return nil
	})
}

func TestCollectivesIsolatedFromPt2pt(t *testing.T) {
	// A pending wildcard receive must not swallow collective traffic:
	// collectives run on the collective context.
	run(t, 2, Config{Fabric: "inf"}, func(p *Proc) error {
		w := p.World()
		var pending *Request
		if p.Rank() == 1 {
			var err error
			pending, err = w.Irecv(make([]byte, 1), 1, Byte, AnySource, AnyTag)
			if err != nil {
				return err
			}
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		buf := []byte{42}
		if err := w.Bcast(buf, 1, Byte, 0); err != nil {
			return err
		}
		if buf[0] != 42 {
			return fmt.Errorf("bcast delivered %d", buf[0])
		}
		if p.Rank() == 0 {
			return w.Send([]byte{7}, 1, Byte, 1, 9)
		}
		st, err := pending.Wait()
		if err != nil {
			return err
		}
		if st.Tag != 9 {
			return fmt.Errorf("wildcard matched collective traffic: %+v", st)
		}
		return nil
	})
}

func TestCollectivesOnSubcommunicator(t *testing.T) {
	const n = 6
	run(t, n, Config{Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		sub, err := w.Split(p.Rank()%2, p.Rank())
		if err != nil {
			return err
		}
		vals, err := sub.AllreduceFloat64([]float64{float64(p.Rank())}, OpSum)
		if err != nil {
			return err
		}
		// Even ranks: 0+2+4 = 6; odd: 1+3+5 = 9.
		want := 6.0
		if p.Rank()%2 == 1 {
			want = 9.0
		}
		if vals[0] != want {
			return fmt.Errorf("rank %d subcomm sum = %v, want %v", p.Rank(), vals[0], want)
		}
		return sub.Free()
	})
}

func TestCollectiveOnFreedCommRejected(t *testing.T) {
	run(t, 1, Config{Build: "default"}, func(p *Proc) error {
		w := p.World()
		d, err := w.Dup()
		if err != nil {
			return err
		}
		if err := d.Free(); err != nil {
			return err
		}
		if err := d.Barrier(); ClassOf(err) != ErrComm {
			return fmt.Errorf("barrier on freed comm: %v", err)
		}
		return nil
	})
}

// istart gives an I-form the error-returning shape of a blocking call,
// for tables of calls: a request that started is waited on.
func istart(r *Request, err error) error {
	if err == nil {
		_, err = r.Wait()
	}
	return err
}

// TestCollectiveBufferLengths: every collective entry point — blocking,
// nonblocking, persistent, neighborhood — rejects a buffer shorter than
// count elements with ErrBuffer, a nil datatype with ErrType, a
// negative count with ErrCount and a root outside the communicator with
// ErrArg (whichever form caught it), instead of slicing past the
// buffer's length (silently, when it has the capacity: the bytes behind
// a short buffer must stay untouched) or panicking. Every rank rejects
// the same call, and the collective after it still matches: the tag
// sequence advanced in lockstep.
func TestCollectiveBufferLengths(t *testing.T) {
	const ranks, count, root = 4, 4, 0
	type call func(w *Comm, cc *CartComm, a, b []byte, count, root int, dt *Datatype) error
	// istart and pinit adapt the request- and operation-returning
	// forms; an I-form that wrongly succeeds is completed so the run can
	// end.
	pinit := func(_ *PersistentColl, err error) error { return err }
	cases := []struct {
		name string
		call call
		// rootOnly names the buffer ('a' or 'b') only the root reads: the
		// other ranks must be given a second reason to reject the call,
		// or they would wait for a root that has already returned.
		rootOnly byte
		one      bool // a is the only buffer
		rooted   bool // takes a root: one outside the communicator is an ErrArg in every form
	}{
		{name: "Bcast", rooted: true, one: true, call: func(w *Comm, _ *CartComm, a, _ []byte, n, root int, dt *Datatype) error {
			return w.Bcast(a, n, dt, root)
		}},
		{name: "Reduce", rooted: true, rootOnly: 'b', call: func(w *Comm, _ *CartComm, a, b []byte, n, root int, dt *Datatype) error {
			return w.Reduce(a, b, n, dt, OpSum, root)
		}},
		{name: "Allreduce", call: func(w *Comm, _ *CartComm, a, b []byte, n, root int, dt *Datatype) error {
			return w.Allreduce(a, b, n, dt, OpSum)
		}},
		{name: "Scan", call: func(w *Comm, _ *CartComm, a, b []byte, n, root int, dt *Datatype) error {
			return w.Scan(a, b, n, dt, OpSum)
		}},
		{name: "Exscan", call: func(w *Comm, _ *CartComm, a, b []byte, n, root int, dt *Datatype) error {
			return w.Exscan(a, b, n, dt, OpSum)
		}},
		{name: "Gather", rooted: true, rootOnly: 'b', call: func(w *Comm, _ *CartComm, a, b []byte, n, root int, dt *Datatype) error {
			return w.Gather(a, b, n, dt, root)
		}},
		{name: "Scatter", rooted: true, rootOnly: 'a', call: func(w *Comm, _ *CartComm, a, b []byte, n, root int, dt *Datatype) error {
			return w.Scatter(a, b, n, dt, root)
		}},
		{name: "Allgather", call: func(w *Comm, _ *CartComm, a, b []byte, n, root int, dt *Datatype) error {
			return w.Allgather(a, b, n, dt)
		}},
		{name: "Alltoall", call: func(w *Comm, _ *CartComm, a, b []byte, n, root int, dt *Datatype) error {
			return w.Alltoall(a, b, n, dt)
		}},
		{name: "ReduceScatterBlock", call: func(w *Comm, _ *CartComm, a, b []byte, n, root int, dt *Datatype) error {
			return w.ReduceScatterBlock(a, b, n, dt, OpSum)
		}},
		{name: "Ibcast", rooted: true, one: true, call: func(w *Comm, _ *CartComm, a, _ []byte, n, root int, dt *Datatype) error {
			return istart(w.Ibcast(a, n, dt, root))
		}},
		{name: "Ireduce", rooted: true, rootOnly: 'b', call: func(w *Comm, _ *CartComm, a, b []byte, n, root int, dt *Datatype) error {
			return istart(w.Ireduce(a, b, n, dt, OpSum, root))
		}},
		{name: "Iallreduce", call: func(w *Comm, _ *CartComm, a, b []byte, n, root int, dt *Datatype) error {
			return istart(w.Iallreduce(a, b, n, dt, OpSum))
		}},
		{name: "Iallgather", call: func(w *Comm, _ *CartComm, a, b []byte, n, root int, dt *Datatype) error {
			return istart(w.Iallgather(a, b, n, dt))
		}},
		{name: "Ialltoall", call: func(w *Comm, _ *CartComm, a, b []byte, n, root int, dt *Datatype) error {
			return istart(w.Ialltoall(a, b, n, dt))
		}},
		{name: "BcastInit", rooted: true, one: true, call: func(w *Comm, _ *CartComm, a, _ []byte, n, root int, dt *Datatype) error {
			return pinit(w.BcastInit(a, n, dt, root))
		}},
		{name: "AllreduceInit", call: func(w *Comm, _ *CartComm, a, b []byte, n, root int, dt *Datatype) error {
			return pinit(w.AllreduceInit(a, b, n, dt, OpSum))
		}},
		{name: "AlltoallInit", call: func(w *Comm, _ *CartComm, a, b []byte, n, root int, dt *Datatype) error {
			return pinit(w.AlltoallInit(a, b, n, dt))
		}},
		{name: "NeighborAllgather", call: func(_ *Comm, cc *CartComm, a, b []byte, n, root int, dt *Datatype) error {
			return cc.NeighborAllgather(a, b, n, dt)
		}},
		{name: "NeighborAlltoall", call: func(_ *Comm, cc *CartComm, a, b []byte, n, root int, dt *Datatype) error {
			return cc.NeighborAlltoall(a, b, n, dt)
		}},
		{name: "NeighborAllgatherInit", call: func(_ *Comm, cc *CartComm, a, b []byte, n, root int, dt *Datatype) error {
			return pinit(cc.NeighborAllgatherInit(a, b, n, dt))
		}},
		{name: "NeighborAlltoallInit", call: func(_ *Comm, cc *CartComm, a, b []byte, n, root int, dt *Datatype) error {
			return pinit(cc.NeighborAlltoallInit(a, b, n, dt))
		}},
	}
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		t.Run(string(dev), func(t *testing.T) {
			run(t, ranks, Config{Device: dev, Fabric: "ofi", RanksPerNode: 2}, func(p *Proc) error {
				w := p.World()
				cc, err := w.CartCreate([]int{ranks}, []bool{true})
				if err != nil {
					return err
				}
				// 8 bytes where count Doubles need 32, with room behind
				// them for an unchecked slice to spill into.
				backing := bytes.Repeat([]byte{0xa5}, 64)
				short := backing[:8]
				okA, okB := make([]byte, 8*count*ranks), make([]byte, 8*count*ranks)
				// expect runs one rejected call, then a collective on each
				// communicator that only matches if every rank drew the tag.
				expect := func(what string, class ErrorClass, err error) error {
					if ClassOf(err) != class {
						return fmt.Errorf("%s: error %v (class %v), want class %v", what, err, ClassOf(err), class)
					}
					if !bytes.Equal(backing, bytes.Repeat([]byte{0xa5}, 64)) {
						return fmt.Errorf("%s: wrote behind the short buffer: %v", what, backing)
					}
					for _, c := range []*Comm{w, cc.Comm} {
						sum, err := c.AllreduceFloat64([]float64{float64(p.Rank())}, OpSum)
						if err != nil {
							return fmt.Errorf("%s: next collective: %v", what, err)
						}
						if sum[0] != ranks*(ranks-1)/2 {
							return fmt.Errorf("%s: next collective summed %v", what, sum[0])
						}
					}
					return nil
				}
				for _, tc := range cases {
					for _, which := range []byte{'a', 'b'} {
						if tc.one && which == 'b' {
							continue
						}
						a, b := okA, okB
						// Every rank must reject: a root-only buffer is
						// short on the root alone as far as the library
						// can tell, so the others get both short.
						if which == 'a' || (tc.rootOnly == 'b' && p.Rank() != root) {
							a = short
						}
						if which == 'b' || (tc.rootOnly == 'a' && p.Rank() != root) {
							b = short
						}
						what := fmt.Sprintf("%s short %c", tc.name, which)
						if err := expect(what, ErrBuffer, tc.call(w, cc, a, b, count, root, Double)); err != nil {
							return err
						}
					}
					if err := expect(tc.name+" nil datatype", ErrType, tc.call(w, cc, okA, okB, count, root, nil)); err != nil {
						return err
					}
					if err := expect(tc.name+" negative count", ErrCount, tc.call(w, cc, okA, okB, -1, root, Double)); err != nil {
						return err
					}
					if !tc.rooted {
						continue
					}
					if err := expect(tc.name+" bad root", ErrArg, tc.call(w, cc, okA, okB, count, 99, Double)); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}
