package gompi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"gompi/internal/rma"
)

// TestFlushCompletesWithoutClosingEpoch is the core of the flush-based
// redesign: data synchronization inside a passive-target epoch, no
// epoch churn. Rank 0 locks rank 1 once, puts, flushes, and the target
// observes the bytes while the epoch is still open.
func TestFlushCompletesWithoutClosingEpoch(t *testing.T) {
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		t.Run(string(dev), func(t *testing.T) {
			run(t, 2, Config{Device: dev, Fabric: "ofi"}, func(p *Proc) error {
				w := p.World()
				win, mem, err := w.WinAllocate(16, 1)
				if err != nil {
					return err
				}
				if p.Rank() == 0 {
					if err := win.Lock(1, true); err != nil {
						return err
					}
					for i := 0; i < 3; i++ {
						if err := win.Put([]byte{byte(10 + i)}, 1, Byte, 1, i); err != nil {
							return err
						}
						if err := win.Flush(1); err != nil {
							return err
						}
						if !win.w.InEpoch() {
							return errors.New("flush closed the epoch")
						}
					}
					if err := win.FlushLocal(1); err != nil {
						return err
					}
					if err := win.FlushAll(); err != nil {
						return err
					}
					if err := win.FlushLocalAll(); err != nil {
						return err
					}
					if err := win.Unlock(1); err != nil {
						return err
					}
					if err := w.Send([]byte{1}, 1, Byte, 1, 0); err != nil {
						return err
					}
				} else {
					buf := make([]byte, 1)
					if _, err := w.Recv(buf, 1, Byte, 0, 0); err != nil {
						return err
					}
					if !bytes.Equal(mem[:3], []byte{10, 11, 12}) {
						return fmt.Errorf("after flushes: %v", mem[:3])
					}
				}
				if err := w.Barrier(); err != nil {
					return err
				}
				return win.Free()
			})
		})
	}
}

// TestLockAllSingleEpoch pins the satellite-1 fix: LockAll is ONE epoch
// object of the EpochLockAll kind — not a stack of per-target Lock
// epochs — on both devices, and flushes against arbitrary targets work
// inside it.
func TestLockAllSingleEpoch(t *testing.T) {
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		t.Run(string(dev), func(t *testing.T) {
			const n = 4
			run(t, n, Config{Device: dev, Fabric: "ofi"}, func(p *Proc) error {
				w := p.World()
				win, mem, err := w.WinAllocate(n, 1)
				if err != nil {
					return err
				}
				if err := win.LockAll(); err != nil {
					return err
				}
				if win.w.Epoch != rma.EpochLockAll {
					return fmt.Errorf("epoch kind %v, want EpochLockAll", win.w.Epoch)
				}
				for target := 0; target < n; target++ {
					if err := win.Put([]byte{byte(p.Rank() + 1)}, 1, Byte, target, p.Rank()); err != nil {
						return err
					}
					if err := win.Flush(target); err != nil {
						return err
					}
				}
				if win.w.Epoch != rma.EpochLockAll {
					return fmt.Errorf("epoch kind after flushes %v", win.w.Epoch)
				}
				if err := win.UnlockAll(); err != nil {
					return err
				}
				if win.w.InEpoch() {
					return errors.New("UnlockAll left the epoch open")
				}
				if err := w.Barrier(); err != nil {
					return err
				}
				want := make([]byte, n)
				for i := range want {
					want[i] = byte(i + 1)
				}
				if !bytes.Equal(mem, want) {
					return fmt.Errorf("rank %d window %v, want %v", p.Rank(), mem, want)
				}
				return win.Free()
			})
		})
	}
}

// TestLockAllExclusivePhases serializes whole-window ownership: each
// rank takes the exclusive lock-all (or rank 0's exclusive lock) in
// turn and increments a counter on rank 0; the total proves mutual
// exclusion. The losers of each round wait in their device's event
// loop for the winner's release to wake them, so a lost wake-up hangs
// the run.
func TestLockAllExclusivePhases(t *testing.T) {
	const n = 4
	const iters = 8
	arms := []struct {
		name         string
		lock, unlock func(win *Win) error
	}{
		{"LockAllExclusive", (*Win).LockAllExclusive, (*Win).UnlockAll},
		{"Lock", func(win *Win) error { return win.Lock(0, true) }, func(win *Win) error { return win.Unlock(0) }},
	}
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		for _, tm := range []bool{false, true} {
			for _, arm := range arms {
				t.Run(fmt.Sprintf("%s/ThreadMultiple=%v/%s", dev, tm, arm.name), func(t *testing.T) {
					cfg := Config{Device: dev, Fabric: "inf", ThreadMultiple: tm}
					err := failFast(t, n, cfg, func(p *Proc) error {
						w := p.World()
						win, mem, err := w.WinAllocate(8, 1)
						if err != nil {
							return err
						}
						one := Int64Bytes([]int64{1}, nil)
						old := make([]byte, 8)
						for i := 0; i < iters; i++ {
							if err := arm.lock(win); err != nil {
								return err
							}
							if err := win.FetchAndOp(one, old, Long, 0, 0, OpSum); err != nil {
								return err
							}
							if err := arm.unlock(win); err != nil {
								return err
							}
						}
						if err := w.Barrier(); err != nil {
							return err
						}
						if p.Rank() == 0 {
							if got := BytesInt64(mem, nil)[0]; got != n*iters {
								return fmt.Errorf("counter %d, want %d", got, n*iters)
							}
						}
						return win.Free()
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestRequestBasedRMA drives Rput/Rget/Raccumulate through the public
// request machinery: the returned requests complete via Wait like any
// two-sided request.
func TestRequestBasedRMA(t *testing.T) {
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		t.Run(string(dev), func(t *testing.T) {
			run(t, 2, Config{Device: dev, Fabric: "ofi"}, func(p *Proc) error {
				w := p.World()
				win, mem, err := w.WinAllocate(24, 1)
				if err != nil {
					return err
				}
				if p.Rank() == 0 {
					if err := win.Lock(1, true); err != nil {
						return err
					}
					req, err := win.Rput([]byte("req"), 3, Byte, 1, 0)
					if err != nil {
						return err
					}
					if _, err := req.Wait(); err != nil {
						return err
					}
					areq, err := win.Raccumulate(Int64Bytes([]int64{5}, nil), 1, Long, 1, 8, OpSum)
					if err != nil {
						return err
					}
					if _, err := areq.Wait(); err != nil {
						return err
					}
					got := make([]byte, 3)
					greq, err := win.Rget(got, 3, Byte, 1, 0)
					if err != nil {
						return err
					}
					if _, err := greq.Wait(); err != nil {
						return err
					}
					if string(got) != "req" {
						return fmt.Errorf("rget %q", got)
					}
					if err := win.Unlock(1); err != nil {
						return err
					}
					if err := w.Send([]byte{1}, 1, Byte, 1, 0); err != nil {
						return err
					}
				} else {
					buf := make([]byte, 1)
					if _, err := w.Recv(buf, 1, Byte, 0, 0); err != nil {
						return err
					}
					if string(mem[:3]) != "req" {
						return fmt.Errorf("target window %q", mem[:3])
					}
					if got := BytesInt64(mem[8:16], nil)[0]; got != 5 {
						return fmt.Errorf("raccumulate landed %d", got)
					}
				}
				if err := w.Barrier(); err != nil {
					return err
				}
				return win.Free()
			})
		})
	}
}

// TestPutNotifyWaitNotify checks the notified-access ordering contract:
// a target returning from WaitNotify reads the data the notification
// covered, with no fence or receive of the payload anywhere.
func TestPutNotifyWaitNotify(t *testing.T) {
	for _, cfg := range []Config{
		{Device: "ch4", Fabric: "ofi"},
		{Device: "ch4", Fabric: "ofi", RanksPerNode: 2},
		{Device: "original", Fabric: "ofi"},
	} {
		t.Run(cfgName(cfg), func(t *testing.T) {
			var st Stats
			cfg := cfg
			cfg.Stats = &st
			run(t, 2, cfg, func(p *Proc) error {
				w := p.World()
				win, mem, err := w.WinAllocate(32, 1)
				if err != nil {
					return err
				}
				if err := win.LockAll(); err != nil {
					return err
				}
				if p.Rank() == 0 {
					if err := win.PutNotify([]byte("notified!"), 9, Byte, 1, 4); err != nil {
						return err
					}
				} else {
					src, err := win.WaitNotify(0)
					if err != nil {
						return err
					}
					if src != 0 {
						return fmt.Errorf("notified by %d", src)
					}
					if string(mem[4:13]) != "notified!" {
						return fmt.Errorf("window after notify %q", mem[4:13])
					}
				}
				if err := win.UnlockAll(); err != nil {
					return err
				}
				if err := w.Barrier(); err != nil {
					return err
				}
				return win.Free()
			})
			agg := st.Aggregate()
			if agg.Rma.Notifies < 2 {
				t.Errorf("RmaNotifies = %d, want >= 2 (sender + waiter)", agg.Rma.Notifies)
			}
			if agg.Lat.NotifyWait.Count != 1 {
				t.Errorf("NotifyWait observations = %d, want 1", agg.Lat.NotifyWait.Count)
			}
			if agg.Rma.Flushes == 0 {
				t.Error("PutNotify did not flush before notifying")
			}
		})
	}
}

// TestZeroCopyShmPutNoStagingCopies is the acceptance-criterion
// assertion: an intra-node Put on an allocated window performs zero
// staging copies — the payload lands directly in the target window.
func TestZeroCopyShmPutNoStagingCopies(t *testing.T) {
	const n = 8192
	t.Run("zerocopy", func(t *testing.T) {
		run(t, 2, Config{Device: "ch4", Fabric: "ofi", RanksPerNode: 2}, func(p *Proc) error {
			w := p.World()
			win, _, err := w.WinAllocate(n, 1)
			if err != nil {
				return err
			}
			if err := win.Lock(1, true); err != nil {
				if p.Rank() != 0 {
					return nil
				}
				return err
			}
			if p.Rank() == 0 {
				data := make([]byte, n)
				before := p.Metrics()
				if err := win.Put(data, n, Byte, 1, 0); err != nil {
					return err
				}
				after := p.Metrics()
				if d := after.CopiesStaged.Msgs - before.CopiesStaged.Msgs; d != 0 {
					return fmt.Errorf("zero-copy put staged %d copies", d)
				}
				dDirect := after.CopiesDirect.Msgs - before.CopiesDirect.Msgs
				dBytes := after.CopiesDirect.Bytes - before.CopiesDirect.Bytes
				if dDirect != 1 || dBytes != n {
					return fmt.Errorf("direct copies %d (%d bytes), want 1 (%d bytes)", dDirect, dBytes, n)
				}
			}
			if err := win.Unlock(1); err != nil {
				return err
			}
			if err := w.Barrier(); err != nil {
				return err
			}
			return win.Free()
		})
	})
}

// TestLockAllChaosMultiOrigin is the acceptance chaos test: every rank
// holds a shared LockAll epoch simultaneously and hammers rank 0 with
// atomic increments and its own window slot with puts, flushing
// mid-epoch, across devices and localities. Run under -race; the final
// counter and slots prove nothing was lost.
func TestLockAllChaosMultiOrigin(t *testing.T) {
	const n = 4
	const iters = 25
	for _, cfg := range []Config{
		{Device: "ch4", Fabric: "ofi"},
		{Device: "ch4", Fabric: "ofi", RanksPerNode: 2},
		{Device: "original", Fabric: "ofi"},
	} {
		t.Run(cfgName(cfg), func(t *testing.T) {
			run(t, n, cfg, func(p *Proc) error {
				w := p.World()
				win, mem, err := w.WinAllocate(8+n, 1)
				if err != nil {
					return err
				}
				if err := win.LockAll(); err != nil {
					return err
				}
				one := Int64Bytes([]int64{1}, nil)
				old := make([]byte, 8)
				for i := 0; i < iters; i++ {
					if err := win.FetchAndOp(one, old, Long, 0, 0, OpSum); err != nil {
						return err
					}
					for target := 0; target < n; target++ {
						if err := win.Put([]byte{byte(p.Rank() + 1)}, 1, Byte, target, 8+p.Rank()); err != nil {
							return err
						}
					}
					if i%5 == 0 {
						if err := win.Flush((p.Rank() + i) % n); err != nil {
							return err
						}
					}
				}
				if err := win.FlushAll(); err != nil {
					return err
				}
				if err := win.UnlockAll(); err != nil {
					return err
				}
				if err := w.Barrier(); err != nil {
					return err
				}
				if p.Rank() == 0 {
					if got := BytesInt64(mem[:8], nil)[0]; got != n*iters {
						return fmt.Errorf("chaos counter %d, want %d", got, n*iters)
					}
				}
				for r := 0; r < n; r++ {
					if mem[8+r] != byte(r+1) {
						return fmt.Errorf("rank %d slot %d = %d", p.Rank(), r, mem[8+r])
					}
				}
				return win.Free()
			})
		})
	}
}

// TestWatchdogDiagnosesParkedWaitNotify is the observability acceptance
// check: two ranks park in WaitNotify for notifications that never
// come; the watchdog must trip and the wait-graph diagnosis must show
// the notify machinery (the flight recorder's notify-wait events and
// the parked token receives).
func TestWatchdogDiagnosesParkedWaitNotify(t *testing.T) {
	var diag bytes.Buffer
	var st Stats
	cfg := Config{
		Device: "ch4", Fabric: "ofi",
		Watchdog:         true,
		WatchdogInterval: 5 * time.Millisecond,
		DiagWriter:       &diag,
		Stats:            &st,
	}
	err := Run(2, cfg, func(p *Proc) error {
		w := p.World()
		win, _, err := w.WinAllocate(8, 1)
		if err != nil {
			return err
		}
		if err := win.LockAll(); err != nil {
			return err
		}
		// Nobody ever PutNotifies: both ranks park forever.
		_, err = win.WaitNotify(1 - p.Rank())
		return err
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	out := diag.String()
	if !bytes.Contains(diag.Bytes(), []byte("notify-wait")) {
		t.Errorf("diagnosis missing notify-wait flight events:\n%s", out)
	}
	for rank := 0; rank < 2; rank++ {
		want := fmt.Sprintf("src=%d tag=%d", 1-rank, tagWinNotify)
		if !bytes.Contains(diag.Bytes(), []byte(want)) {
			t.Errorf("diagnosis missing parked notify receive %q:\n%s", want, out)
		}
	}
	for _, want := range []string{"rank 0 waits on rank 1", "rank 1 waits on rank 0"} {
		if !bytes.Contains(diag.Bytes(), []byte(want)) {
			t.Errorf("diagnosis missing edge %q:\n%s", want, out)
		}
	}
}

// TestWinOptionsNoLocks pins the no_locks assertion: passive-target
// synchronization on such a window is a synchronization error.
func TestWinOptionsNoLocks(t *testing.T) {
	run(t, 2, Config{Fabric: "inf"}, func(p *Proc) error {
		w := p.World()
		win, _, err := w.WinAllocateOpt(8, 1, WinOptions{NoLocks: true, SameDispUnit: true})
		if err != nil {
			return err
		}
		if err := win.Lock(0, false); ClassOf(err) != ErrRMASync {
			return fmt.Errorf("Lock on NoLocks window: %v", err)
		}
		if err := win.LockAll(); ClassOf(err) != ErrRMASync {
			return fmt.Errorf("LockAll on NoLocks window: %v", err)
		}
		// Active-target synchronization still works.
		if err := win.Fence(); err != nil {
			return err
		}
		if err := win.Put([]byte{7}, 1, Byte, 1-p.Rank(), 0); err != nil {
			return err
		}
		if err := win.FenceEnd(); err != nil {
			return err
		}
		return win.Free()
	})
}

// TestPutOptFusedPath exercises the MPI_PUT_ALL_OPTS-style fused entry
// across localities and pins that partial option sets fall back to the
// validated path.
func TestPutOptFusedPath(t *testing.T) {
	for _, cfg := range []Config{
		{Device: "ch4", Fabric: "ofi"},
		{Device: "ch4", Fabric: "ofi", RanksPerNode: 2},
		{Device: "original", Fabric: "ofi"},
	} {
		t.Run(cfgName(cfg), func(t *testing.T) {
			run(t, 2, cfg, func(p *Proc) error {
				w := p.World()
				win, mem, err := w.WinAllocate(16, 1)
				if err != nil {
					return err
				}
				if err := win.Fence(); err != nil {
					return err
				}
				payload := []byte{0xA0 + byte(p.Rank())}
				if err := win.PutOpt(payload, 1, Byte, 1-p.Rank(), 3, AllPutOptions); err != nil {
					return err
				}
				if err := win.PutOpt(payload, 1, Byte, 1-p.Rank(), 5, PutOptions{NoProcNull: true}); err != nil {
					return err
				}
				if err := win.Fence(); err != nil {
					return err
				}
				want := byte(0xA0 + (1 - p.Rank()))
				if mem[3] != want || mem[5] != want {
					return fmt.Errorf("fused/fallback puts landed %v %v, want %v", mem[3], mem[5], want)
				}
				return win.Free()
			})
		})
	}
}

// rmaEcho has rank 0 Put a size-byte pattern into rank 1's window,
// Accumulate (MPI_SUM over bytes) a second pattern onto it and Get the
// result back. On-node the window is shared memory: the put and get are
// direct copies and the accumulate folds in place (RMWLocal); off-node
// all three are fabric RDMA, the accumulate a NIC atomic (ep.RMW). It
// returns what rank 0 read back and what rank 1's window holds.
func rmaEcho(size int, onNode bool) (got, mem []byte, err error) {
	rpn := 1
	if onNode {
		rpn = 2
	}
	got, mem = make([]byte, size), make([]byte, size)
	err = Run(2, Config{Device: "ch4", Fabric: "ofi", RanksPerNode: rpn}, func(p *Proc) error {
		w := p.World()
		win, wmem, err := w.WinAllocate(size, 1)
		if err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			data, add := make([]byte, size), make([]byte, size)
			for i := range data {
				data[i], add[i] = byte((i*31+7)%251), byte(i*13+size)
			}
			if err := win.Put(data, size, Byte, 1, 0); err != nil {
				return err
			}
			if err := win.Flush(1); err != nil {
				return err
			}
			if err := win.Accumulate(add, size, Byte, 1, 0, OpSum); err != nil {
				return err
			}
			if err := win.Flush(1); err != nil {
				return err
			}
			if err := win.Get(got, size, Byte, 1, 0); err != nil {
				return err
			}
		}
		if err := win.FenceEnd(); err != nil {
			return err
		}
		if p.Rank() == 1 {
			copy(mem, wmem)
		}
		return win.Free()
	})
	return got, mem, err
}

// FuzzRmaShmVsNet differentially fuzzes the two one-sided transports:
// for any size — seeds straddle the shm cell size and the fabric's
// eager limit — a Put, an Accumulate and a Get must leave the same
// bytes in the window, and read the same bytes back, on-node (shared
// window memory) as off-node (fabric RDMA), and both must equal the
// pattern sum.
func FuzzRmaShmVsNet(f *testing.F) {
	f.Add(uint32(0))
	f.Add(uint32(1))
	f.Add(uint32(4095))
	f.Add(uint32(4096))
	f.Add(uint32(4097))
	f.Add(uint32(3*4096 + 123))
	f.Add(uint32(65536))
	f.Fuzz(func(t *testing.T, size uint32) {
		size %= 1 << 17
		shmGot, shmMem, err := rmaEcho(int(size), true)
		if err != nil {
			t.Fatalf("on-node run: %v", err)
		}
		netGot, netMem, err := rmaEcho(int(size), false)
		if err != nil {
			t.Fatalf("off-node run: %v", err)
		}
		if !bytes.Equal(shmGot, netGot) || !bytes.Equal(shmMem, netMem) {
			t.Fatalf("size %d: on-node and off-node RMA differ", size)
		}
		for i := range shmGot {
			if want := byte((i*31+7)%251) + byte(i*13+int(size)); shmGot[i] != want || shmMem[i] != want {
				t.Fatalf("size %d: byte %d read %d, window %d, want %d", size, i, shmGot[i], shmMem[i], want)
			}
		}
	})
}

// TestFlushTargetChecked: a flush to a rank outside the window's
// communicator is ErrRank on both devices, in every build, and charges
// nothing, as Lock's target check does.
func TestFlushTargetChecked(t *testing.T) {
	for _, cfg := range []Config{
		{Device: "ch4", Fabric: "ofi"},
		{Device: "original", Fabric: "ofi"},
		{Device: "ch4", Fabric: "ofi", Build: "no-err-single-ipo"},
	} {
		t.Run(cfgName(cfg)+"/"+string(cfg.Build), func(t *testing.T) {
			run(t, 2, cfg, func(p *Proc) error {
				win, _, err := p.World().WinAllocate(16, 1)
				if err != nil {
					return err
				}
				if err := win.LockAll(); err != nil {
					return err
				}
				before := p.VirtualCycles()
				for _, c := range []struct {
					name string
					err  error
				}{
					{"Flush(99)", win.Flush(99)},
					{"Flush(-2)", win.Flush(-2)},
					{"FlushLocal(7)", win.FlushLocal(7)},
				} {
					if ClassOf(c.err) != ErrRank {
						return fmt.Errorf("%s = %v, want ErrRank", c.name, c.err)
					}
				}
				if after := p.VirtualCycles(); after != before {
					return fmt.Errorf("rejected flushes charged %d cycles", after-before)
				}
				if err := win.UnlockAll(); err != nil {
					return err
				}
				if err := p.World().Barrier(); err != nil {
					return err
				}
				return win.Free()
			})
		})
	}
}
