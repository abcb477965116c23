package gompi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"gompi/internal/nbc"
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

// TestICollScheduleCacheHits: repeated nonblocking collectives on
// identical arguments hit the communicator's schedule cache — only the
// first call per shape compiles.
func TestICollScheduleCacheHits(t *testing.T) {
	const ranks = 4
	const calls = 5
	var st Stats
	run(t, ranks, Config{Fabric: "ofi", RanksPerNode: 2, Stats: &st}, func(p *Proc) error {
		w := p.World()
		send := make([]byte, 64)
		recv := make([]byte, 64)
		for i := 0; i < calls; i++ {
			req, err := w.Iallreduce(send, recv, 8, Long, OpSum)
			if err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
		}
		// A different buffer is a different schedule: no false hits.
		other := make([]byte, 64)
		req, err := w.Iallreduce(other, recv, 8, Long, OpSum)
		if err != nil {
			return err
		}
		_, err = req.Wait()
		return err
	})
	agg := st.Aggregate()
	if want := int64((calls - 1) * ranks); agg.Sched.CacheHits != want {
		t.Errorf("sched cache hits = %d, want %d", agg.Sched.CacheHits, want)
	}
	if want := int64(2 * ranks); agg.Sched.CacheMisses != want {
		t.Errorf("sched cache misses = %d, want %d", agg.Sched.CacheMisses, want)
	}
}

// TestICollScheduleCacheBounded: I-collectives on buffers allocated per
// call (what typed convenience wrappers do) never repeat a cache key;
// the communicator's cache must stay within its bound, the results stay
// right, and two identical calls outstanding at once still both finish.
func TestICollScheduleCacheBounded(t *testing.T) {
	const ranks = 4
	run(t, ranks, Config{Fabric: "ofi", RanksPerNode: 2}, func(p *Proc) error {
		w := p.World()
		for i := 0; i < 1000; i++ {
			send, recv := Int64Bytes([]int64{int64(i + p.Rank())}, nil), make([]byte, 8)
			req, err := w.Iallreduce(send, recv, 1, Long, OpSum)
			if err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			if got, want := BytesInt64(recv, nil)[0], int64(ranks*i+ranks*(ranks-1)/2); got != want {
				return fmt.Errorf("call %d: sum = %d, want %d", i, got, want)
			}
			if n := w.sched.Len(); n > nbc.CacheCap {
				return fmt.Errorf("call %d: schedule cache holds %d entries, bound is %d", i, n, nbc.CacheCap)
			}
		}
		send, recv := Int64Bytes([]int64{1}, nil), make([]byte, 8)
		first, err := w.Iallreduce(send, recv, 1, Long, OpSum)
		if err != nil {
			return err
		}
		second, err := w.Iallreduce(send, recv, 1, Long, OpSum)
		if err != nil {
			return err
		}
		// Both write recv, so only completion is defined.
		return Waitall([]*Request{first, second})
	})
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
