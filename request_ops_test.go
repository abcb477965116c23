package gompi

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestWaitanyPicksCompleted(t *testing.T) {
	run(t, 3, Config{Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		if p.Rank() != 0 {
			// Rank 2 sends promptly; rank 1 delays.
			if p.Rank() == 1 {
				p.ChargeCompute(1_000_000)
			}
			return w.Send([]byte{byte(p.Rank())}, 1, Byte, 0, p.Rank())
		}
		bufs := [][]byte{make([]byte, 1), make([]byte, 1)}
		reqs := make([]*Request, 2)
		var err error
		for i := 0; i < 2; i++ {
			reqs[i], err = w.Irecv(bufs[i], 1, Byte, i+1, i+1)
			if err != nil {
				return err
			}
		}
		seen := map[int]bool{}
		for k := 0; k < 2; k++ {
			idx, st, err := Waitany(reqs)
			if err != nil {
				return err
			}
			if idx == UndefinedIndex {
				return fmt.Errorf("undefined with %d pending", 2-k)
			}
			if reqs[idx] != nil {
				return fmt.Errorf("completed slot %d not cleared", idx)
			}
			if st.Source != idx+1 || bufs[idx][0] != byte(idx+1) {
				return fmt.Errorf("slot %d: status %+v buf %v", idx, st, bufs[idx])
			}
			seen[idx] = true
		}
		if len(seen) != 2 {
			return fmt.Errorf("indices %v", seen)
		}
		// All nil now: immediate UNDEFINED.
		if idx, _, _ := Waitany(reqs); idx != UndefinedIndex {
			return fmt.Errorf("waitany on empty set = %d", idx)
		}
		return nil
	})
}

func TestTestanyAndTestall(t *testing.T) {
	run(t, 2, Config{Fabric: "inf"}, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 1 {
			for i := 0; i < 3; i++ {
				if err := w.Send([]byte{byte(i)}, 1, Byte, 0, i); err != nil {
					return err
				}
			}
			return nil
		}
		reqs := make([]*Request, 3)
		bufs := make([][]byte, 3)
		for i := range reqs {
			bufs[i] = make([]byte, 1)
			var err error
			reqs[i], err = w.Irecv(bufs[i], 1, Byte, 1, i)
			if err != nil {
				return err
			}
		}
		// Eventually Testall must report done with all statuses.
		for {
			sts, done, err := Testall(reqs)
			if err != nil {
				return err
			}
			if done {
				if len(sts) != 3 {
					return fmt.Errorf("%d statuses", len(sts))
				}
				for i, st := range sts {
					if st.Tag != i || bufs[i][0] != byte(i) {
						return fmt.Errorf("slot %d: %+v", i, st)
					}
				}
				break
			}
		}
		// Testany on the now-empty set reports done/UNDEFINED.
		idx, _, done, err := Testany(reqs)
		if err != nil || !done || idx != UndefinedIndex {
			return fmt.Errorf("testany empty = (%d,%v,%v)", idx, done, err)
		}
		return nil
	})
}

func TestWaitsomeHarvestsBatch(t *testing.T) {
	run(t, 2, Config{Fabric: "inf"}, func(p *Proc) error {
		w := p.World()
		const msgs = 6
		if p.Rank() == 1 {
			for i := 0; i < msgs; i++ {
				if err := w.Send([]byte{byte(i)}, 1, Byte, 0, i); err != nil {
					return err
				}
			}
			return nil
		}
		reqs := make([]*Request, msgs)
		for i := range reqs {
			var err error
			reqs[i], err = w.Irecv(make([]byte, 1), 1, Byte, 1, i)
			if err != nil {
				return err
			}
		}
		total := 0
		for total < msgs {
			idx, sts, err := Waitsome(reqs)
			if err != nil {
				return err
			}
			if len(idx) == 0 {
				return fmt.Errorf("waitsome returned empty batch at %d", total)
			}
			if len(idx) != len(sts) {
				return fmt.Errorf("indices/statuses mismatch")
			}
			total += len(idx)
		}
		if total != msgs {
			return fmt.Errorf("harvested %d", total)
		}
		return nil
	})
}

func TestScanExscanPublic(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		run(t, n, Config{Fabric: "ofi"}, func(p *Proc) error {
			w := p.World()
			send := Int64Bytes([]int64{int64(p.Rank() + 1)}, nil)
			recv := make([]byte, 8)
			if err := w.Scan(send, recv, 1, Long, OpSum); err != nil {
				return err
			}
			r := p.Rank() + 1
			if got := BytesInt64(recv, nil)[0]; got != int64(r*(r+1)/2) {
				return fmt.Errorf("scan rank %d = %d", p.Rank(), got)
			}
			ex := Int64Bytes([]int64{-1}, nil)
			if err := w.Exscan(send, ex, 1, Long, OpSum); err != nil {
				return err
			}
			got := BytesInt64(ex, nil)[0]
			if p.Rank() == 0 && got != -1 {
				return fmt.Errorf("exscan touched rank 0: %d", got)
			}
			if p.Rank() > 0 && got != int64(p.Rank()*(p.Rank()+1)/2) {
				return fmt.Errorf("exscan rank %d = %d", p.Rank(), got)
			}
			return nil
		})
	}
}

func TestGathervScattervAllgathervPublic(t *testing.T) {
	const n = 4
	run(t, n, Config{Fabric: "ucx"}, func(p *Proc) error {
		w := p.World()
		counts := []int{2, 4, 6, 8}
		displs := []int{0, 2, 6, 12}
		total := 20
		mine := make([]byte, counts[p.Rank()])
		for i := range mine {
			mine[i] = byte(p.Rank() * 11)
		}
		all := make([]byte, total)
		if err := w.Gatherv(mine, all, counts, displs, 2); err != nil {
			return err
		}
		if p.Rank() == 2 {
			for r := 0; r < n; r++ {
				for i := 0; i < counts[r]; i++ {
					if all[displs[r]+i] != byte(r*11) {
						return fmt.Errorf("gatherv block %d: %v", r, all)
					}
				}
			}
		}
		back := make([]byte, counts[p.Rank()])
		if err := w.Scatterv(all, counts, displs, back, 2); err != nil {
			return err
		}
		for i := range back {
			if back[i] != byte(p.Rank()*11) {
				return fmt.Errorf("scatterv rank %d: %v", p.Rank(), back)
			}
		}
		everyone := make([]byte, total)
		if err := w.Allgatherv(mine, everyone, counts, displs); err != nil {
			return err
		}
		for r := 0; r < n; r++ {
			if everyone[displs[r]] != byte(r*11) {
				return fmt.Errorf("allgatherv rank %d block %d: %v", p.Rank(), r, everyone)
			}
		}
		return nil
	})
}

// TestPollMissYields: an unsuccessful nonblocking poll yields the
// processor, whichever call made it. Ranks are goroutines: with one
// processor, rank 0 spinning on a poll that never yields keeps rank 1 —
// whose message it is polling for — off the CPU until the runtime's
// asynchronous preemption fires, some 10 ms per round. Each variant
// plays 200 ping-pongs in which rank 0 spins for its half; yielding,
// they take about a millisecond in all.
func TestPollMissYields(t *testing.T) {
	const rounds, budget = 200, time.Second
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// A variant prepares both ranks and returns one round's first half:
	// rank 1 delivers, rank 0 spins until it has arrived.
	variants := map[string]func(p *Proc) (func() error, error){
		"Test": func(p *Proc) (func() error, error) {
			return spinRecv(p, func(r *Request) (bool, error) { _, ok, err := r.Test(); return ok, err }), nil
		},
		"Testall": func(p *Proc) (func() error, error) {
			return spinRecv(p, func(r *Request) (bool, error) { _, ok, err := Testall([]*Request{r}); return ok, err }), nil
		},
		"Iprobe": func(p *Proc) (func() error, error) {
			w, buf := p.World(), make([]byte, 1)
			return func() error {
				if p.Rank() == 1 {
					return w.Send(buf, 1, Byte, 0, 0)
				}
				for {
					if _, ok, err := w.Iprobe(1, 0); err != nil {
						return err
					} else if ok {
						_, err := w.Recv(buf, 1, Byte, 1, 0)
						return err
					}
				}
			}, nil
		},
		"Improbe": func(p *Proc) (func() error, error) {
			w, buf := p.World(), make([]byte, 1)
			return func() error {
				if p.Rank() == 1 {
					return w.Send(buf, 1, Byte, 0, 0)
				}
				for {
					if m, ok, err := w.Improbe(1, 0); err != nil {
						return err
					} else if ok {
						_, err := m.Recv(buf, 1, Byte)
						return err
					}
				}
			}, nil
		},
		"Parrived": func(p *Proc) (func() error, error) {
			w, buf := p.World(), make([]byte, 8)
			if p.Rank() == 1 {
				op, err := w.PsendInit(buf, 1, 8, Byte, 0, 0)
				return func() error {
					if err := op.Start(); err != nil {
						return err
					}
					if err := op.Pready(0); err != nil {
						return err
					}
					return op.Wait()
				}, err
			}
			op, err := w.PrecvInit(buf, 1, 8, Byte, 1, 0)
			return func() error {
				if err := op.Start(); err != nil {
					return err
				}
				for {
					if ok, err := op.Parrived(0); err != nil {
						return err
					} else if ok {
						return op.Wait()
					}
				}
			}, err
		},
		"TestWait": func(p *Proc) (func() error, error) {
			win, _, err := p.World().WinAllocate(8, 1)
			return func() error {
				if p.Rank() == 1 {
					if err := win.Start([]int{0}); err != nil {
						return err
					}
					if err := win.Put([]byte{1}, 1, Byte, 0, 0); err != nil {
						return err
					}
					return win.Complete()
				}
				if err := win.Post([]int{1}); err != nil {
					return err
				}
				for {
					if ok, err := win.TestWait(); ok || err != nil {
						return err
					}
				}
			}, err
		},
	}
	for name, prep := range variants {
		t.Run(name, func(t *testing.T) {
			var took time.Duration
			run(t, 2, Config{Fabric: "ofi"}, func(p *Proc) error {
				w, ack := p.World(), make([]byte, 1)
				half, err := prep(p)
				if err != nil {
					return err
				}
				start := time.Now()
				for i := 0; i < rounds; i++ {
					if err := half(); err != nil {
						return err
					}
					// Second half: rank 0 answers, rank 1 blocks for it.
					if p.Rank() == 0 {
						err = w.Send(ack, 1, Byte, 1, 1)
					} else {
						_, err = w.Recv(ack, 1, Byte, 0, 1)
					}
					if err != nil {
						return err
					}
				}
				if p.Rank() == 0 {
					took = time.Since(start)
				}
				return nil
			})
			if took > budget {
				t.Errorf("%d ping-pongs spinning on %s took %v, budget %v: the poll does not yield", rounds, name, took, budget)
			}
		})
	}
}

// spinRecv is the first half of a ping-pong round for the request-based
// polls: rank 1 sends, rank 0 posts the receive and spins poll on it.
func spinRecv(p *Proc, poll func(*Request) (bool, error)) func() error {
	w, buf := p.World(), make([]byte, 1)
	return func() error {
		if p.Rank() == 1 {
			return w.Send(buf, 1, Byte, 0, 0)
		}
		r, err := w.Irecv(buf, 1, Byte, 1, 0)
		if err != nil {
			return err
		}
		for {
			if ok, err := poll(r); ok || err != nil {
				return err
			}
		}
	}
}
