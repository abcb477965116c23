package gompi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestWinPutGetFencePublic(t *testing.T) {
	for _, cfg := range []Config{
		{Device: "ch4", Fabric: "ofi"},
		{Device: "ch4", Fabric: "inf"},
		{Device: "original", Fabric: "ofi"},
	} {
		t.Run(cfgName(cfg), func(t *testing.T) {
			run(t, 3, cfg, func(p *Proc) error {
				w := p.World()
				win, mem, err := w.WinAllocate(64, 1)
				if err != nil {
					return err
				}
				if err := win.Fence(); err != nil {
					return err
				}
				// Everyone puts its rank byte at offset rank into rank 0.
				if err := win.Put([]byte{byte(p.Rank() + 1)}, 1, Byte, 0, p.Rank()); err != nil {
					return err
				}
				if err := win.Fence(); err != nil {
					return err
				}
				if p.Rank() == 0 {
					if !bytes.Equal(mem[:3], []byte{1, 2, 3}) {
						return fmt.Errorf("window after puts: %v", mem[:3])
					}
				}
				// Everyone reads rank 0's first three bytes.
				buf := make([]byte, 3)
				if err := win.Get(buf, 3, Byte, 0, 0); err != nil {
					return err
				}
				if err := win.Fence(); err != nil {
					return err
				}
				if !bytes.Equal(buf, []byte{1, 2, 3}) {
					return fmt.Errorf("rank %d get: %v", p.Rank(), buf)
				}
				return win.Free()
			})
		})
	}
}

func TestRMAOutsideEpochRejected(t *testing.T) {
	run(t, 2, Config{Build: "default"}, func(p *Proc) error {
		w := p.World()
		win, _, err := w.WinAllocate(8, 1)
		if err != nil {
			return err
		}
		if err := win.Put([]byte{1}, 1, Byte, 1, 0); ClassOf(err) != ErrRMASync {
			return fmt.Errorf("put outside epoch: %v", err)
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		return win.Free()
	})
}

func TestAccumulatePublic(t *testing.T) {
	const n = 4
	run(t, n, Config{Fabric: "ucx"}, func(p *Proc) error {
		w := p.World()
		win, mem, err := w.WinAllocate(8, 1)
		if err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		contrib := Int64Bytes([]int64{int64(p.Rank() + 1)}, nil)
		if err := win.Accumulate(contrib, 1, Long, 0, 0, OpSum); err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			if got := BytesInt64(mem, nil)[0]; got != n*(n+1)/2 {
				return fmt.Errorf("accumulate total %d", got)
			}
		}
		return win.Free()
	})
}

func TestFetchAndOpPublic(t *testing.T) {
	// A classic one-sided counter: each rank fetches-and-adds 1 on rank
	// 0 under exclusive locks; the fetched values must be distinct.
	const n = 4
	run(t, n, Config{Fabric: "inf"}, func(p *Proc) error {
		w := p.World()
		win, mem, err := w.WinAllocate(8, 1)
		if err != nil {
			return err
		}
		if err := win.Lock(0, true); err != nil {
			return err
		}
		one := Int64Bytes([]int64{1}, nil)
		old := make([]byte, 8)
		if err := win.FetchAndOp(one, old, Long, 0, 0, OpSum); err != nil {
			return err
		}
		if err := win.Unlock(0); err != nil {
			return err
		}
		got := BytesInt64(old, nil)[0]
		if got < 0 || got >= n {
			return fmt.Errorf("fetched %d", got)
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			if total := BytesInt64(mem, nil)[0]; total != n {
				return fmt.Errorf("counter = %d, want %d", total, n)
			}
		}
		return win.Free()
	})
}

func TestPutVirtualAddrPublic(t *testing.T) {
	run(t, 2, Config{Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		win, mem, err := w.WinAllocate(32, 4) // disp unit 4: VA path skips the scaling
		if err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			// The app tracked the remote address: base + byte 12.
			addr := win.BaseAddr(1) + 12
			if err := win.PutVirtualAddr([]byte("VA"), 2, Byte, 1, addr); err != nil {
				return err
			}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if p.Rank() == 1 && string(mem[12:14]) != "VA" {
			return fmt.Errorf("VA put landed %q", mem[10:16])
		}
		return win.Free()
	})
}

func TestDynamicWindowPublic(t *testing.T) {
	run(t, 2, Config{Fabric: "inf"}, func(p *Proc) error {
		w := p.World()
		win, err := w.WinCreateDynamic()
		if err != nil {
			return err
		}
		var va VAddr
		mem := make([]byte, 16)
		if p.Rank() == 1 {
			va, err = win.Attach(mem)
			if err != nil {
				return err
			}
		}
		// Distribute the address via ordinary messaging, as an
		// application would.
		if p.Rank() == 1 {
			if err := w.Send(Int64Bytes([]int64{int64(va)}, nil), 8, Byte, 0, 0); err != nil {
				return err
			}
		} else {
			buf := make([]byte, 8)
			if _, err := w.Recv(buf, 8, Byte, 1, 0); err != nil {
				return err
			}
			va = VAddr(BytesInt64(buf, nil)[0])
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			if err := win.PutVirtualAddr([]byte{0xCD}, 1, Byte, 1, va+5); err != nil {
				return err
			}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if p.Rank() == 1 {
			if mem[5] != 0xCD {
				return fmt.Errorf("dynamic put landed %v", mem)
			}
			if err := win.Detach(mem, va); err != nil {
				return err
			}
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		return win.Free()
	})
}

// TestDynamicWindowTargetsChecked: Detach revokes the attachment it
// is named by, a mismatched address is ErrWin and leaves the
// attachment live, and a Put or Get that names a detached address or
// overruns its attachment is ErrWin at the origin, not a panic.
func TestDynamicWindowTargetsChecked(t *testing.T) {
	for _, cfg := range []Config{{Fabric: FabricInf}, {Fabric: FabricInf, RanksPerNode: 2}} {
		t.Run(cfgName(cfg), func(t *testing.T) {
			run(t, 2, cfg, func(p *Proc) error {
				w := p.World()
				win, err := w.WinCreateDynamic()
				if err != nil {
					return err
				}
				a, b := make([]byte, 8), make([]byte, 8)
				vas := make([]byte, 16)
				if p.Rank() == 1 {
					vaA, err := win.Attach(a)
					if err != nil {
						return err
					}
					vaB, err := win.Attach(b)
					if err != nil {
						return err
					}
					if err := win.Detach(a, vaB); ClassOf(err) != ErrWin {
						return fmt.Errorf("Detach(a, vaB): %v, want ErrWin", err)
					}
					if err := win.Detach(a, vaA); err != nil {
						return err
					}
					Int64Bytes([]int64{int64(vaA), int64(vaB)}, vas)
				}
				if err := w.Bcast(vas, 16, Byte, 1); err != nil {
					return err
				}
				va := BytesInt64(vas, nil)
				vaA, vaB := int(va[0]), int(va[1])
				if err := win.Fence(); err != nil {
					return err
				}
				if p.Rank() == 0 {
					buf := []byte{1, 2, 3, 4}
					if err := win.Put(buf, 4, Byte, 1, vaB); err != nil {
						return err
					}
					for _, c := range []struct {
						name string
						err  error
					}{
						{"Put to a detached address", win.Put(buf, 4, Byte, 1, vaA)},
						{"Get from a detached address", win.Get(buf, 4, Byte, 1, vaA)},
						{"Put overrunning an attachment", win.Put(buf, 4, Byte, 1, vaB+6)},
						{"Get overrunning an attachment", win.Get(buf, 4, Byte, 1, vaB+6)},
					} {
						if ClassOf(c.err) != ErrWin {
							return fmt.Errorf("%s: %v, want ErrWin", c.name, c.err)
						}
					}
				}
				if err := win.Fence(); err != nil {
					return err
				}
				if p.Rank() == 1 {
					if !bytes.Equal(b[:4], []byte{1, 2, 3, 4}) {
						return fmt.Errorf("attachment b after put: %v", b)
					}
					if err := win.Detach(b, VAddr(vaB)); err != nil {
						return err
					}
				}
				if err := win.FenceEnd(); err != nil {
					return err
				}
				return win.Free()
			})
		})
	}
}

// TestDynamicWindowOriginal pins the baseline device's answer to
// dynamic windows: it has none, so WinCreateDynamic, and Attach and
// Detach on any window, fail with ErrWin.
func TestDynamicWindowOriginal(t *testing.T) {
	run(t, 2, Config{Device: DeviceOriginal}, func(p *Proc) error {
		w := p.World()
		if _, err := w.WinCreateDynamic(); ClassOf(err) != ErrWin {
			return fmt.Errorf("WinCreateDynamic: %v, want ErrWin", err)
		}
		win, mem, err := w.WinAllocate(16, 1)
		if err != nil {
			return err
		}
		if _, err := win.Attach(mem); ClassOf(err) != ErrWin {
			return fmt.Errorf("Attach: %v, want ErrWin", err)
		}
		if err := win.Detach(mem, 0); ClassOf(err) != ErrWin {
			return fmt.Errorf("Detach: %v, want ErrWin", err)
		}
		return win.Free()
	})
}

func TestGetAccumulatePublic(t *testing.T) {
	run(t, 2, Config{}, func(p *Proc) error {
		w := p.World()
		win, mem, err := w.WinAllocate(8, 1)
		if err != nil {
			return err
		}
		if p.Rank() == 1 {
			copy(mem, Int64Bytes([]int64{50}, nil))
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			add := Int64Bytes([]int64{8}, nil)
			old := make([]byte, 8)
			if err := win.GetAccumulate(add, old, 1, Long, 1, 0, OpSum); err != nil {
				return err
			}
			if got := BytesInt64(old, nil)[0]; got != 50 {
				return fmt.Errorf("fetched %d, want 50", got)
			}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if p.Rank() == 1 {
			if got := BytesInt64(mem, nil)[0]; got != 58 {
				return fmt.Errorf("target %d, want 58", got)
			}
		}
		return win.Free()
	})
}

func TestLockAllSharedPhase(t *testing.T) {
	const n = 4
	run(t, n, Config{Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		win, mem, err := w.WinAllocate(8*n, 8)
		if err != nil {
			return err
		}
		if err := win.LockAll(); err != nil {
			return err
		}
		// Everyone puts into everyone's slot for the writer's rank.
		val := Int64Bytes([]int64{int64(p.Rank() + 1)}, nil)
		for target := 0; target < n; target++ {
			if err := win.Put(val, 8, Byte, target, p.Rank()); err != nil {
				return err
			}
		}
		for target := 0; target < n; target++ {
			if err := win.Flush(target); err != nil {
				return err
			}
		}
		if err := win.UnlockAll(); err != nil {
			return err
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		got := BytesInt64(mem, nil)
		for r := 0; r < n; r++ {
			if got[r] != int64(r+1) {
				return fmt.Errorf("slot %d = %d (%v)", r, got[r], got)
			}
		}
		return win.Free()
	})
}

func TestAbortPublic(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- Run(3, Config{Fabric: "inf"}, func(p *Proc) error {
			if p.Rank() == 1 {
				p.Abort(42)
			}
			buf := make([]byte, 1)
			_, err := p.World().Recv(buf, 1, Byte, 1, 0)
			return err
		})
	}()
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "MPI_ABORT") || !strings.Contains(err.Error(), "42") {
		t.Fatalf("abort error = %v", err)
	}
}

// TestUnlockWrongTargetRejected: Unlock must name the locked rank, on
// both devices; the epoch stays open and the right Unlock closes it.
// Lock's target must be a rank of the window (the devices read -1 as
// every rank).
func TestUnlockWrongTargetRejected(t *testing.T) {
	for _, cfg := range []Config{{Device: DeviceCH4, Fabric: FabricInf}, {Device: DeviceOriginal, Fabric: FabricInf}} {
		t.Run(cfgName(cfg), func(t *testing.T) {
			run(t, 2, cfg, func(p *Proc) error {
				win, _, err := p.World().WinAllocate(8, 1)
				if err != nil {
					return err
				}
				if p.Rank() == 0 {
					for _, bad := range []int{-1, 2} {
						if err := win.Lock(bad, true); ClassOf(err) != ErrRank {
							return fmt.Errorf("Lock(%d): %v, want ErrRank", bad, err)
						}
					}
					if err := win.Lock(1, true); err != nil {
						return err
					}
					if err := win.Unlock(0); ClassOf(err) != ErrRMASync {
						return fmt.Errorf("unlock of wrong target: %v", err)
					}
					if err := win.Unlock(1); err != nil {
						return err
					}
					if err := win.Unlock(1); ClassOf(err) != ErrRMASync {
						return fmt.Errorf("unlock outside an epoch: %v", err)
					}
				}
				return win.Free()
			})
		})
	}
}
