package gompi

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestPSCWBasic(t *testing.T) {
	for _, cfg := range []Config{
		{Device: "ch4", Fabric: "ofi"},
		{Device: "original", Fabric: "ofi"},
	} {
		t.Run(cfgName(cfg), func(t *testing.T) {
			run(t, 3, cfg, func(p *Proc) error {
				w := p.World()
				win, mem, err := w.WinAllocate(16, 1)
				if err != nil {
					return err
				}
				// Ranks 1 and 2 put into rank 0's window under PSCW.
				if p.Rank() == 0 {
					if err := win.Post([]int{1, 2}); err != nil {
						return err
					}
					if err := win.Wait(); err != nil {
						return err
					}
					if !bytes.Equal(mem[:2], []byte{11, 12}) {
						return fmt.Errorf("window after PSCW: %v", mem[:4])
					}
				} else {
					if err := win.Start([]int{0}); err != nil {
						return err
					}
					if err := win.Put([]byte{byte(10 + p.Rank())}, 1, Byte, 0, p.Rank()-1); err != nil {
						return err
					}
					if err := win.Complete(); err != nil {
						return err
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

func TestPSCWSubsetDoesNotBlockOthers(t *testing.T) {
	// Only ranks 0 and 1 synchronize; rank 2 never participates and
	// must proceed untouched.
	run(t, 3, Config{Fabric: "inf"}, func(p *Proc) error {
		w := p.World()
		win, mem, err := w.WinAllocate(8, 1)
		if err != nil {
			return err
		}
		switch p.Rank() {
		case 0:
			if err := win.Post([]int{1}); err != nil {
				return err
			}
			if err := win.Wait(); err != nil {
				return err
			}
			if mem[0] != 0x7A {
				return fmt.Errorf("byte = %x", mem[0])
			}
		case 1:
			if err := win.Start([]int{0}); err != nil {
				return err
			}
			if err := win.Put([]byte{0x7A}, 1, Byte, 0, 0); err != nil {
				return err
			}
			if err := win.Complete(); err != nil {
				return err
			}
		case 2:
			// Unsynchronized bystander.
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		return win.Free()
	})
}

func TestPSCWRepeatedEpochs(t *testing.T) {
	run(t, 2, Config{Fabric: "ucx"}, func(p *Proc) error {
		w := p.World()
		win, mem, err := w.WinAllocate(8, 1)
		if err != nil {
			return err
		}
		for epoch := 0; epoch < 5; epoch++ {
			if p.Rank() == 0 {
				if err := win.Post([]int{1}); err != nil {
					return err
				}
				if err := win.Wait(); err != nil {
					return err
				}
				if mem[0] != byte(epoch+1) {
					return fmt.Errorf("epoch %d: byte %d", epoch, mem[0])
				}
			} else {
				if err := win.Start([]int{0}); err != nil {
					return err
				}
				if err := win.Put([]byte{byte(epoch + 1)}, 1, Byte, 0, 0); err != nil {
					return err
				}
				if err := win.Complete(); err != nil {
					return err
				}
			}
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		return win.Free()
	})
}

func TestPSCWTimePropagation(t *testing.T) {
	// The target's clock must absorb the origin's put timing through
	// the complete token.
	run(t, 2, Config{Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		win, _, err := w.WinAllocate(8, 1)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			if err := win.Post([]int{1}); err != nil {
				return err
			}
			if err := win.Wait(); err != nil {
				return err
			}
			if p.VirtualCycles() < 2_000_000 {
				return fmt.Errorf("target clock %d did not absorb origin time", p.VirtualCycles())
			}
		} else {
			p.ChargeCompute(2_000_000) // origin runs long before the epoch
			if err := win.Start([]int{0}); err != nil {
				return err
			}
			if err := win.Put([]byte{1}, 1, Byte, 0, 0); err != nil {
				return err
			}
			if err := win.Complete(); err != nil {
				return err
			}
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		return win.Free()
	})
}

func TestPSCWStateValidation(t *testing.T) {
	run(t, 2, Config{}, func(p *Proc) error {
		w := p.World()
		win, _, err := w.WinAllocate(8, 1)
		if err != nil {
			return err
		}
		if err := win.Complete(); ClassOf(err) != ErrRMASync {
			return fmt.Errorf("complete without start: %v", err)
		}
		if err := win.Wait(); ClassOf(err) != ErrRMASync {
			return fmt.Errorf("wait without post: %v", err)
		}
		if p.Rank() == 0 {
			if err := win.Post([]int{1}); err != nil {
				return err
			}
			if err := win.Post([]int{1}); ClassOf(err) != ErrRMASync {
				return fmt.Errorf("double post: %v", err)
			}
		} else {
			if err := win.Start([]int{0}); err != nil {
				return err
			}
			if err := win.Complete(); err != nil {
				return err
			}
		}
		if p.Rank() == 0 {
			if err := win.Wait(); err != nil {
				return err
			}
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		return win.Free()
	})
}

func TestPSCWTestWait(t *testing.T) {
	run(t, 2, Config{Fabric: "inf"}, func(p *Proc) error {
		w := p.World()
		win, mem, err := w.WinAllocate(8, 1)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			if err := win.Post([]int{1}); err != nil {
				return err
			}
			for {
				done, err := win.TestWait()
				if err != nil {
					return err
				}
				if done {
					break
				}
			}
			if mem[0] != 0x42 {
				return fmt.Errorf("byte %x", mem[0])
			}
		} else {
			if err := win.Start([]int{0}); err != nil {
				return err
			}
			if err := win.Put([]byte{0x42}, 1, Byte, 0, 0); err != nil {
				return err
			}
			if err := win.Complete(); err != nil {
				return err
			}
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		return win.Free()
	})
}

// TestCollectiveTagsClearOfWindowTokens: post/complete tokens travel on
// the communicator's collective context under small fixed tags, and a
// post token can be in flight while its receiver sits in a collective
// waiting on the same peer. Collective calls draw their tags from a
// sequence, so enough of them must never walk into the token tags.
func TestCollectiveTagsClearOfWindowTokens(t *testing.T) {
	run(t, 2, Config{Fabric: "inf"}, func(p *Proc) error {
		w := p.World()
		win, mem, err := w.WinAllocate(8, 1)
		if err != nil {
			return err
		}
		for i := 0; i < 800; i++ {
			if p.Rank() == 1 {
				if err := win.Post([]int{0}); err != nil {
					return err
				}
			}
			if err := w.Barrier(); err != nil {
				return fmt.Errorf("barrier %d: %w", i, err)
			}
			if p.Rank() == 0 {
				if err := win.Start([]int{1}); err != nil {
					return err
				}
				if err := win.Put([]byte{byte(i)}, 1, Byte, 1, 0); err != nil {
					return err
				}
				if err := win.Complete(); err != nil {
					return err
				}
			} else {
				if err := win.Wait(); err != nil {
					return err
				}
				if mem[0] != byte(i) {
					return fmt.Errorf("epoch %d: window byte = %d", i, mem[0])
				}
			}
		}
		return win.Free()
	})
}

// syncProfiler records every rank's rma-sync Enter and Exit calls, in
// order, as "enter" and "exit".
type syncProfiler struct {
	mu    sync.Mutex
	calls map[int][]string
}

func (s *syncProfiler) note(rank int, op TraceKind, what string) {
	if op != TraceSync {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls[rank] = append(s.calls[rank], what)
}

func (s *syncProfiler) Enter(rank int, op TraceKind, peer, bytes int, vcycles int64) {
	s.note(rank, op, "enter")
}

func (s *syncProfiler) Exit(rank int, op TraceKind, peer, bytes int, vcycles int64) {
	s.note(rank, op, "exit")
}

// TestPSCWTraced: Post, Start, Complete and Wait are synchronization
// calls, so a traced 2-rank PSCW epoch records one rma-sync event per
// call on each rank and a profiler sees a matching Enter/Exit for each.
func TestPSCWTraced(t *testing.T) {
	prof := &syncProfiler{calls: map[int][]string{}}
	run(t, 2, Config{Fabric: "ofi", Trace: true, Profiler: prof}, func(p *Proc) error {
		win, _, err := p.World().WinAllocate(8, 1)
		if err != nil {
			return err
		}
		peer := []int{1 - p.Rank()}
		if err := win.Post(peer); err != nil {
			return err
		}
		if err := win.Start(peer); err != nil {
			return err
		}
		if err := win.Put([]byte{1}, 1, Byte, peer[0], 0); err != nil {
			return err
		}
		if err := win.Complete(); err != nil {
			return err
		}
		if err := win.Wait(); err != nil {
			return err
		}
		syncs := 0
		for _, e := range p.TraceEvents() {
			if e.Kind == TraceSync {
				syncs++
			}
		}
		if syncs != 4 {
			return fmt.Errorf("traced %d rma-sync events for Post, Start, Complete and Wait, want 4", syncs)
		}
		return win.Free()
	})
	want := strings.Repeat("enter exit ", 4)
	for r := 0; r < 2; r++ {
		if got := strings.Join(prof.calls[r], " ") + " "; got != want {
			t.Errorf("rank %d profiler saw %q, want %q", r, got, want)
		}
	}
}
