package gompi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestPersistentCollCorrectness replays each persistent collective
// several times with fresh buffer contents per round: the schedule
// prologue must re-seed accumulators from the live buffers, so every
// activation computes the round's values, not the first round's.
func TestPersistentCollCorrectness(t *testing.T) {
	const ranks = 4
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		t.Run(string(dev), func(t *testing.T) {
			run(t, ranks, Config{Device: dev, Fabric: "ofi", RanksPerNode: 2}, func(p *Proc) error {
				w := p.World()

				bbuf := make([]byte, 16)
				bcast, err := w.BcastInit(bbuf, 16, Byte, 1)
				if err != nil {
					return err
				}
				abuf := make([]byte, 8)
				ares := make([]byte, 8)
				allred, err := w.AllreduceInit(abuf, ares, 1, Long, OpSum)
				if err != nil {
					return err
				}
				asend := make([]byte, 8*ranks)
				arecv := make([]byte, 8*ranks)
				a2a, err := w.AlltoallInit(asend, arecv, 8, Byte)
				if err != nil {
					return err
				}

				for round := 0; round < 3; round++ {
					if p.Rank() == 1 {
						for i := range bbuf {
							bbuf[i] = byte(i ^ round)
						}
					}
					binary.LittleEndian.PutUint64(abuf, uint64(p.Rank()+round))
					for i := range asend {
						asend[i] = byte(p.Rank()*ranks + i/8 + round)
					}
					for _, op := range []*PersistentColl{bcast, allred, a2a} {
						if err := op.Start(); err != nil {
							return err
						}
						if err := op.Wait(); err != nil {
							return err
						}
					}
					for i := range bbuf {
						if bbuf[i] != byte(i^round) {
							return fmt.Errorf("round %d: bcast byte %d = %d", round, i, bbuf[i])
						}
					}
					wantSum := uint64(0)
					for r := 0; r < ranks; r++ {
						wantSum += uint64(r + round)
					}
					if got := binary.LittleEndian.Uint64(ares); got != wantSum {
						return fmt.Errorf("round %d: allreduce = %d, want %d", round, got, wantSum)
					}
					for src := 0; src < ranks; src++ {
						want := byte(src*ranks + p.Rank() + round)
						if arecv[src*8] != want {
							return fmt.Errorf("round %d: alltoall block %d = %d, want %d",
								round, src, arecv[src*8], want)
						}
					}
				}
				return nil
			})
		})
	}
}

// TestPersistentCollStateValidation: double Start and Wait/Test
// without an activation must fail cleanly.
func TestPersistentCollStateValidation(t *testing.T) {
	run(t, 2, Config{Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		buf := make([]byte, 8)
		op, err := w.BcastInit(buf, 8, Byte, 0)
		if err != nil {
			return err
		}
		if err := op.Wait(); err == nil {
			return fmt.Errorf("Wait accepted without Start")
		}
		if _, err := op.Test(); err == nil {
			return fmt.Errorf("Test accepted without Start")
		}
		if err := op.Start(); err != nil {
			return err
		}
		if err := op.Start(); err == nil {
			return fmt.Errorf("double Start accepted")
		}
		return op.Wait()
	})
}

// iallreduce1 starts a one-element Long sum.
func iallreduce1(w *Comm, send, recv []byte) (*Request, error) {
	return w.Iallreduce(send, recv, 1, Long, OpSum)
}

// TestICollRecycleFreshBuffers: I-collectives on buffers allocated per
// call (what typed convenience wrappers do) keep reusing one op — the
// communicator retains as many as were ever outstanding at once, here
// one — and every result is right.
func TestICollRecycleFreshBuffers(t *testing.T) {
	const ranks = 4
	run(t, ranks, Config{Fabric: "ofi", RanksPerNode: 2}, func(p *Proc) error {
		w := p.World()
		for i := 0; i < 1000; i++ {
			send, recv := Int64Bytes([]int64{int64(i + p.Rank())}, nil), make([]byte, 8)
			req, err := iallreduce1(w, send, recv)
			if err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			if got, want := BytesInt64(recv, nil)[0], int64(ranks*i+ranks*(ranks-1)/2); got != want {
				return fmt.Errorf("call %d: sum = %d, want %d", i, got, want)
			}
			if n := len(w.opFree); n != 1 {
				return fmt.Errorf("call %d: %d ops on the freelist, want 1", i, n)
			}
		}
		return nil
	})
}

// TestICollRecycleOverlapping: k identical I-collectives outstanding at
// once each hold their own op, all finish with the right result, and
// the k ops are what the communicator keeps — also when the calls name
// the very same send and receive buffers (erroneous in MPI, so there
// only completion is defined).
func TestICollRecycleOverlapping(t *testing.T) {
	const ranks, k = 4, 5
	run(t, ranks, Config{Fabric: "ofi", RanksPerNode: 2}, func(p *Proc) error {
		w := p.World()
		send := Int64Bytes([]int64{int64(p.Rank() + 1)}, nil)
		for _, sameRecv := range []bool{false, true} {
			recvs := make([][]byte, k)
			reqs := make([]*Request, k)
			for i := range reqs {
				recvs[i] = make([]byte, 8)
				if sameRecv {
					recvs[i] = recvs[0]
				}
				var err error
				if reqs[i], err = iallreduce1(w, send, recvs[i]); err != nil {
					return err
				}
			}
			if n := len(w.opFree); n != 0 {
				return fmt.Errorf("%d ops on the freelist with %d outstanding, want 0", n, k)
			}
			if err := Waitall(reqs); err != nil {
				return err
			}
			for i, recv := range recvs {
				if got, want := BytesInt64(recv, nil)[0], int64(ranks*(ranks+1)/2); !sameRecv && got != want {
					return fmt.Errorf("overlapping call %d: sum = %d, want %d", i, got, want)
				}
			}
			if n := len(w.opFree); n != k {
				return fmt.Errorf("%d ops on the freelist after %d overlapping calls, want %d", n, k, k)
			}
		}
		return nil
	})
}

// TestICollRecycleOncePerCompletion: whichever call completes an
// I-collective request — Wait, Test, Waitall, Waitany, Testall, Testany —
// hands its op back exactly once, and waiting on the dead request again
// does not hand it back a second time.
func TestICollRecycleOncePerCompletion(t *testing.T) {
	const ranks = 4
	spin := func(poll func() (bool, error)) error {
		for {
			if done, err := poll(); done || err != nil {
				return err
			}
		}
	}
	completions := map[string]func([]*Request) error{
		"Wait": func(r []*Request) error { _, err := r[0].Wait(); return err },
		"Test": func(r []*Request) error {
			return spin(func() (bool, error) { _, done, err := r[0].Test(); return done, err })
		},
		"Waitall": Waitall,
		"Waitany": func(r []*Request) error { _, _, err := Waitany(r); return err },
		"Testall": func(r []*Request) error {
			return spin(func() (bool, error) { _, done, err := Testall(r); return done, err })
		},
		"Testany": func(r []*Request) error {
			return spin(func() (bool, error) { _, _, done, err := Testany(r); return done, err })
		},
	}
	for name, complete := range completions {
		t.Run(name, func(t *testing.T) {
			run(t, ranks, Config{Fabric: "ofi", RanksPerNode: 2}, func(p *Proc) error {
				w := p.World()
				send, recv := Int64Bytes([]int64{int64(p.Rank())}, nil), make([]byte, 8)
				for i := 0; i < 3; i++ {
					req, err := iallreduce1(w, send, recv)
					if err != nil {
						return err
					}
					if err := complete([]*Request{req}); err != nil {
						return err
					}
					if _, err := req.Wait(); err != nil { // dead request: a no-op
						return err
					}
					if n := len(w.opFree); n != 1 {
						return fmt.Errorf("round %d: %d ops on the freelist, want 1", i, n)
					}
					if got, want := BytesInt64(recv, nil)[0], int64(ranks*(ranks-1)/2); got != want {
						return fmt.Errorf("round %d: sum = %d, want %d", i, got, want)
					}
				}
				return nil
			})
		})
	}
}

// TestPersistentCollWatchdogEdge parks three ranks in a persistent
// allreduce Wait while rank 0 never starts its activation, and checks
// the deadlock diagnosis labels the stalled receive edges with the
// persistent-coll tag class.
func TestPersistentCollWatchdogEdge(t *testing.T) {
	var diag bytes.Buffer
	cfg := Config{
		Device: DeviceCH4, Fabric: "ofi", RanksPerNode: 2,
		Watchdog:         true,
		WatchdogInterval: 5 * time.Millisecond,
		DiagWriter:       &diag,
	}
	err := Run(4, cfg, func(p *Proc) error {
		w := p.World()
		send := make([]byte, 8)
		recv := make([]byte, 8)
		op, err := w.AllreduceInit(send, recv, 1, Long, OpSum)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			return nil // never starts: the others stall in Wait
		}
		if err := op.Start(); err != nil {
			return err
		}
		return op.Wait()
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if !bytes.Contains(diag.Bytes(), []byte("[persistent-coll]")) {
		t.Errorf("diagnosis missing [persistent-coll] edge label:\n%s", diag.String())
	}
}
