package gompi

import (
	"fmt"
	"testing"
)

// atomicConfigs are the three ways an accumulate reaches a target: ch4
// off-node (NIC atomics, active messages for derived layouts), ch4
// on-node (in-place folds under the region lock) and the baseline
// (every operation an active message).
var atomicConfigs = []Config{
	{Fabric: FabricInf},
	{Fabric: FabricInf, RanksPerNode: 4},
	{Device: DeviceOriginal, Fabric: FabricInf},
}

// vectorLong returns the committed vector(2,1,2,Long): longs 0 and 2.
func vectorLong(t *testing.T) *Datatype {
	t.Helper()
	vec, err := TypeVector(2, 1, 2, Long)
	if err != nil {
		t.Fatal(err)
	}
	if err := vec.Commit(); err != nil {
		t.Fatal(err)
	}
	return vec
}

// TestGetAccumulateAtomic: ranks 1-3 each do 200 GetAccumulate(OpSum)
// fetch-and-adds of 1 on rank 0's window while rank 0 waits in a
// barrier, under a shared Lock(0) and under LockAll, into one Long and
// into a vector(2,1,2,Long) target (two counters). MPI-3.1 §11.7.1
// makes accumulates with the same op on one location atomic, so the
// 600 values fetched from each counter are distinct and the counter
// ends at 600.
func TestGetAccumulateAtomic(t *testing.T) {
	const origins, iters = 3, 200
	vec := vectorLong(t)
	for _, cfg := range atomicConfigs {
		for _, lockAll := range []bool{false, true} {
			for _, dt := range []*Datatype{Long, vec} {
				counters := []int{0} // long indices the target type covers
				if dt == vec {
					counters = []int{0, 2}
				}
				t.Run(fmt.Sprintf("%s/lockall=%v/%s", cfgName(cfg), lockAll, dt.Name()), func(t *testing.T) {
					fetched := make([][]int64, origins+1) // per rank, counter-major
					var final []int64
					run(t, origins+1, cfg, func(p *Proc) error {
						win, mem, err := p.World().WinAllocate(24, 1)
						if err != nil {
							return err
						}
						if p.Rank() > 0 {
							lock, unlock := func() error { return win.Lock(0, false) }, func() error { return win.Unlock(0) }
							if lockAll {
								lock, unlock = win.LockAll, win.UnlockAll
							}
							if err := lock(); err != nil {
								return err
							}
							one, old := Int64Bytes([]int64{1, 1, 1}, nil), make([]byte, 24)
							got := make([]int64, 0, len(counters)*iters)
							for i := 0; i < iters; i++ {
								if err := win.GetAccumulate(one, old, 1, dt, 0, 0, OpSum); err != nil {
									return err
								}
								v := BytesInt64(old, nil)
								for _, k := range counters {
									got = append(got, v[k])
								}
							}
							fetched[p.Rank()] = got
							if err := unlock(); err != nil {
								return err
							}
						}
						if err := p.World().Barrier(); err != nil {
							return err
						}
						if p.Rank() == 0 {
							final = BytesInt64(mem, nil)
						}
						return win.Free()
					})
					for c, k := range counters {
						seen, dups := map[int64]bool{}, 0
						for _, got := range fetched[1:] {
							for i := c; i < len(got); i += len(counters) {
								if seen[got[i]] {
									dups++
								}
								seen[got[i]] = true
							}
						}
						if dups != 0 || final[k] != origins*iters {
							t.Errorf("long %d: %d duplicate fetches, final %d; want 0 and %d", k, dups, final[k], origins*iters)
						}
					}
				})
			}
		}
	}
}

// TestAccumulateMixedLayouts: inside one LockAll epoch, rank 1 folds 1
// into longs 0 and 2 of rank 0's window through a vector(2,1,2,Long)
// target (an active message on every device) while rank 2 folds 1 into
// longs 0-2 as three contiguous Longs (a NIC atomic, or an in-place
// fold on-node). Both must hold the region's atomicity lock: no update
// is lost, and under -race the fold paths do not race.
func TestAccumulateMixedLayouts(t *testing.T) {
	const iters = 200
	vec := vectorLong(t)
	for _, cfg := range atomicConfigs {
		t.Run(cfgName(cfg), func(t *testing.T) {
			var final []int64
			run(t, 3, cfg, func(p *Proc) error {
				win, mem, err := p.World().WinAllocate(24, 1)
				if err != nil {
					return err
				}
				if p.Rank() > 0 {
					if err := win.LockAll(); err != nil {
						return err
					}
					one := Int64Bytes([]int64{1, 1, 1}, nil)
					for i := 0; i < iters; i++ {
						if p.Rank() == 1 {
							err = win.Accumulate(one, 1, vec, 0, 0, OpSum)
						} else {
							err = win.Accumulate(one, 3, Long, 0, 0, OpSum)
						}
						if err != nil {
							return err
						}
					}
					if err := win.UnlockAll(); err != nil {
						return err
					}
				}
				if err := p.World().Barrier(); err != nil {
					return err
				}
				if p.Rank() == 0 {
					final = BytesInt64(mem, nil)
				}
				return win.Free()
			})
			if want := []int64{2 * iters, iters, 2 * iters}; fmt.Sprint(final) != fmt.Sprint(want) {
				t.Errorf("window %v, want %v", final, want)
			}
		})
	}
}

// TestGetAccumulateCountsOnce: one GetAccumulate counts one get-
// accumulate and no get or accumulate, on both devices alike.
func TestGetAccumulateCountsOnce(t *testing.T) {
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		var got MetricsSnapshot
		run(t, 2, Config{Device: dev, Fabric: FabricInf}, func(p *Proc) error {
			win, _, err := p.World().WinAllocate(8, 1)
			if err != nil {
				return err
			}
			if err := win.Fence(); err != nil {
				return err
			}
			if p.Rank() == 0 {
				if err := win.GetAccumulate(make([]byte, 8), make([]byte, 8), 1, Long, 1, 0, OpSum); err != nil {
					return err
				}
				got = p.Metrics()
			}
			if err := win.FenceEnd(); err != nil {
				return err
			}
			return win.Free()
		})
		if r := got.Rma; r.Gets != 0 || r.Accs != 0 || r.GetAccs != 1 {
			t.Errorf("%s: gets %d, accumulates %d, get-accumulates %d; want 0, 0, 1", dev, r.Gets, r.Accs, r.GetAccs)
		}
	}
}

// TestAMThreadMultiple: under MPI_THREAD_MULTIPLE, two goroutines of
// rank 0 each issue 100 Accumulates and 100 GetAccumulates of 1
// through a vector(2,1,2,Long) target on rank 1, inside one LockAll
// epoch, on ch4 off-node and on-node. Every derived-layout operation
// rides the active-message packet set (core.AM), whose counters,
// sequence numbers and fetch table both goroutines and the handlers
// touch: no update is lost, no fetched value repeats, and under -race
// nothing races.
func TestAMThreadMultiple(t *testing.T) {
	const threads, iters = 2, 100
	vec := vectorLong(t)
	for _, cfg := range []Config{
		{Fabric: FabricInf, ThreadMultiple: true},
		{Fabric: FabricInf, ThreadMultiple: true, RanksPerNode: 2},
	} {
		t.Run(cfgName(cfg), func(t *testing.T) {
			fetched := make([][]int64, threads)
			var final []int64
			run(t, 2, cfg, func(p *Proc) error {
				win, mem, err := p.World().WinAllocate(24, 1)
				if err != nil {
					return err
				}
				if p.Rank() == 0 {
					if err := win.LockAll(); err != nil {
						return err
					}
					errs := make(chan error, threads)
					for g := range threads {
						go func() {
							one, old := Int64Bytes([]int64{1, 1, 1}, nil), make([]byte, 24)
							for range iters {
								if err := win.Accumulate(one, 1, vec, 1, 0, OpSum); err != nil {
									errs <- err
									return
								}
							}
							for range iters {
								if err := win.GetAccumulate(one, old, 1, vec, 1, 0, OpSum); err != nil {
									errs <- err
									return
								}
								v := BytesInt64(old, nil)
								fetched[g] = append(fetched[g], v[0], v[2])
							}
							errs <- nil
						}()
					}
					for range threads {
						if err := <-errs; err != nil {
							return err
						}
					}
					if err := win.UnlockAll(); err != nil {
						return err
					}
				}
				if err := p.World().Barrier(); err != nil {
					return err
				}
				if p.Rank() == 1 {
					final = BytesInt64(mem, nil)
				}
				return win.Free()
			})
			for c, k := range []int{0, 2} {
				seen, dups := map[int64]bool{}, 0
				for _, got := range fetched {
					for i := c; i < len(got); i += 2 {
						if seen[got[i]] {
							dups++
						}
						seen[got[i]] = true
					}
				}
				if want := int64(2 * threads * iters); dups != 0 || final[k] != want {
					t.Errorf("long %d: %d duplicate fetches, final %d; want 0 and %d", k, dups, final[k], want)
				}
			}
		})
	}
}
