package gompi

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestChaosRandomTraffic drives the whole stack with randomized but
// self-checking traffic: every rank sends a deterministic schedule of
// messages (random sizes, tags, destinations, send variants) derived
// from a shared seed, so every rank can independently compute exactly
// what it must receive, post matching receives in a shuffled order, and
// verify payload contents byte for byte. Runs across devices, fabrics,
// and node widths.
func TestChaosRandomTraffic(t *testing.T) {
	configs := []Config{
		{Device: "ch4", Fabric: "ofi"},
		{Device: "ch4", Fabric: "ucx", RanksPerNode: 2},
		{Device: "ch4", Fabric: "inf", Build: "no-err-single-ipo"},
		{Device: "original", Fabric: "ofi"},
	}
	for ci, cfg := range configs {
		cfg := cfg
		t.Run(cfgName(cfg), func(t *testing.T) {
			chaosRound(t, cfg, int64(1000+ci))
		})
	}
}

type chaosMsg struct {
	src, dst, tag, size int
	variant             int // 0 plain, 1 global-rank, 2 npn, 3 noreq
}

// chaosSchedule derives the full message list from the seed; all ranks
// compute the identical list.
func chaosSchedule(seed int64, ranks, msgs int) []chaosMsg {
	rng := rand.New(rand.NewSource(seed))
	out := make([]chaosMsg, msgs)
	for i := range out {
		src := rng.Intn(ranks)
		dst := rng.Intn(ranks)
		out[i] = chaosMsg{
			src: src, dst: dst,
			tag:     rng.Intn(50),
			size:    rng.Intn(6000), // crosses the shm cell and some header sizes
			variant: rng.Intn(4),
		}
	}
	return out
}

// payload is the deterministic content of message i.
func payload(i, size int) []byte {
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(i*31 + j*7)
	}
	return b
}

func chaosRound(t *testing.T, cfg Config, seed int64) {
	const ranks, msgs = 5, 120
	sched := chaosSchedule(seed, ranks, msgs)
	run(t, ranks, cfg, func(p *Proc) error {
		w := p.World()
		me := p.Rank()

		// Post receives for everything addressed to me, in a
		// rank-specific shuffled order (message matching must untangle
		// it). Tags disambiguate same-(src,tag) collisions only by
		// FIFO, so receives for a given (src,tag) must stay in send
		// order: shuffle across distinct (src,tag) keys only.
		type rx struct {
			idx int
			buf []byte
			req *Request
		}
		var mine []rx
		perKey := map[[2]int][]int{}
		for i, m := range sched {
			if m.dst == me {
				key := [2]int{m.src, m.tag}
				perKey[key] = append(perKey[key], i)
			}
		}
		keys := make([][2]int, 0, len(perKey))
		for k := range perKey {
			keys = append(keys, k)
		}
		rng := rand.New(rand.NewSource(seed + int64(me)))
		rng.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
		for _, k := range keys {
			for _, i := range perKey[k] {
				m := sched[i]
				buf := make([]byte, m.size)
				req, err := w.Irecv(buf, m.size, Byte, m.src, m.tag)
				if err != nil {
					return fmt.Errorf("irecv %d: %v", i, err)
				}
				mine = append(mine, rx{idx: i, buf: buf, req: req})
			}
		}

		// Send my share, in schedule order, through a random variant.
		for i, m := range sched {
			if m.src != me {
				continue
			}
			data := payload(i, m.size)
			var err error
			switch m.variant {
			case 1:
				worldDst, e := w.WorldRank(m.dst)
				if e != nil {
					return e
				}
				var req *Request
				req, err = w.IsendGlobal(data, m.size, Byte, worldDst, m.tag)
				if err == nil {
					_, err = req.Wait()
				}
			case 2:
				var req *Request
				req, err = w.IsendNPN(data, m.size, Byte, m.dst, m.tag)
				if err == nil {
					_, err = req.Wait()
				}
			case 3:
				err = w.IsendNoReq(data, m.size, Byte, m.dst, m.tag)
			default:
				err = w.Send(data, m.size, Byte, m.dst, m.tag)
			}
			if err != nil {
				return fmt.Errorf("send %d: %v", i, err)
			}
		}
		if err := w.CommWaitall(); err != nil {
			return err
		}

		// Verify every delivery.
		for _, r := range mine {
			st, err := r.req.Wait()
			if err != nil {
				return fmt.Errorf("recv %d: %v", r.idx, err)
			}
			m := sched[r.idx]
			if st.Source != m.src || st.Tag != m.tag || st.Count != m.size {
				return fmt.Errorf("msg %d status %+v, want src %d tag %d size %d",
					r.idx, st, m.src, m.tag, m.size)
			}
			if !bytes.Equal(r.buf, payload(r.idx, m.size)) {
				return fmt.Errorf("msg %d payload corrupted", r.idx)
			}
		}
		return w.Barrier()
	})
}

// TestChaosThreadMultipleVCIs is the multi-threaded round: every rank
// runs several goroutines concurrently under MPI_THREAD_MULTIPLE, each
// on its own hinted communicator — so each goroutine's traffic rides
// that communicator's virtual communication interface — and
// byte-verifies a ring exchange. Run under -race this is the main
// data-race probe for the multi-VCI engine (and, for the original
// device, the global critical section).
func TestChaosThreadMultipleVCIs(t *testing.T) {
	configs := []Config{
		{Device: "ch4", Fabric: "inf", ThreadMultiple: true, VCIs: 4},
		{Device: "ch4", Fabric: "ofi", ThreadMultiple: true, VCIs: 4, RanksPerNode: 2},
		{Device: "original", Fabric: "ofi", ThreadMultiple: true},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfgName(cfg), func(t *testing.T) {
			chaosThreadMultipleRound(t, cfg)
		})
	}
}

func chaosThreadMultipleRound(t *testing.T, cfg Config) {
	const ranks, lanes, rounds = 4, 4, 24
	run(t, ranks, cfg, func(p *Proc) error {
		w := p.World()
		me := p.Rank()
		// Communicator creation is collective: build every lane's hinted
		// duplicate on the main goroutine before any thread starts.
		comms := make([]*Comm, lanes)
		for g := range comms {
			c, err := w.DupOpt(CommOptions{Hints: CommHints{NoAnySource: true, NoAnyTag: true, ExactLength: true}})
			if err != nil {
				return err
			}
			comms[g] = c
		}
		right := (me + 1) % ranks
		left := (me - 1 + ranks) % ranks
		errs := make(chan error, lanes)
		for g := 0; g < lanes; g++ {
			go func(g int) {
				c := comms[g]
				for i := 0; i < rounds; i++ {
					size := 1 + (g*97+i*13)%600 // crosses eager header sizes
					out := make([]byte, size)
					for j := range out {
						out[j] = byte(me ^ g*31 ^ i*7 ^ j)
					}
					sreq, err := c.Isend(out, size, Byte, right, i)
					if err != nil {
						errs <- fmt.Errorf("lane %d round %d isend: %v", g, i, err)
						return
					}
					in := make([]byte, size)
					st, err := c.Recv(in, size, Byte, left, i)
					if err != nil {
						errs <- fmt.Errorf("lane %d round %d recv: %v", g, i, err)
						return
					}
					if st.Source != left || st.Tag != i || st.Count != size {
						errs <- fmt.Errorf("lane %d round %d status %+v", g, i, st)
						return
					}
					for j := range in {
						if in[j] != byte(left^g*31^i*7^j) {
							errs <- fmt.Errorf("lane %d round %d byte %d corrupted", g, i, j)
							return
						}
					}
					if _, err := sreq.Wait(); err != nil {
						errs <- fmt.Errorf("lane %d round %d send wait: %v", g, i, err)
						return
					}
				}
				errs <- nil
			}(g)
		}
		for g := 0; g < lanes; g++ {
			if err := <-errs; err != nil {
				return err
			}
		}
		return w.Barrier()
	})
}

// TestChaosCollectiveStorm interleaves every collective in a long
// random-but-agreed sequence; each result is independently checkable.
func TestChaosCollectiveStorm(t *testing.T) {
	const ranks, rounds = 6, 40
	run(t, ranks, Config{Fabric: "ofi", RanksPerNode: 3}, func(p *Proc) error {
		w := p.World()
		rng := rand.New(rand.NewSource(777)) // same stream on all ranks
		for round := 0; round < rounds; round++ {
			switch rng.Intn(6) {
			case 0:
				if err := w.Barrier(); err != nil {
					return err
				}
			case 1:
				root := rng.Intn(ranks)
				buf := []byte{0}
				if p.Rank() == root {
					buf[0] = byte(round)
				}
				if err := w.Bcast(buf, 1, Byte, root); err != nil {
					return err
				}
				if buf[0] != byte(round) {
					return fmt.Errorf("round %d bcast got %d", round, buf[0])
				}
			case 2:
				vals, err := w.AllreduceFloat64([]float64{float64(p.Rank() + round)}, OpSum)
				if err != nil {
					return err
				}
				want := float64(ranks*(ranks-1)/2 + ranks*round)
				if vals[0] != want {
					return fmt.Errorf("round %d allreduce %v, want %v", round, vals[0], want)
				}
			case 3:
				mine := []byte{byte(p.Rank()*7 + round)}
				all := make([]byte, ranks)
				if err := w.Allgather(mine, all, 1, Byte); err != nil {
					return err
				}
				for r := 0; r < ranks; r++ {
					if all[r] != byte(r*7+round) {
						return fmt.Errorf("round %d allgather %v", round, all)
					}
				}
			case 4:
				send := Int64Bytes([]int64{int64(p.Rank())}, nil)
				recv := make([]byte, 8)
				root := rng.Intn(ranks)
				if err := w.Reduce(send, recv, 1, Long, OpMax, root); err != nil {
					return err
				}
				if p.Rank() == root {
					if got := BytesInt64(recv, nil)[0]; got != int64(ranks-1) {
						return fmt.Errorf("round %d reduce-max %d", round, got)
					}
				}
			default:
				send := Int64Bytes([]int64{int64(round)}, nil)
				recv := make([]byte, 8)
				if err := w.Scan(send, recv, 1, Long, OpSum); err != nil {
					return err
				}
				if got := BytesInt64(recv, nil)[0]; got != int64(round*(p.Rank()+1)) {
					return fmt.Errorf("round %d scan %d", round, got)
				}
			}
		}
		return nil
	})
}

// TestChaosMixedPt2ptAndRMA interleaves fence-epoch RMA with tagged
// traffic on the same ranks.
func TestChaosMixedPt2ptAndRMA(t *testing.T) {
	const ranks = 4
	run(t, ranks, Config{Fabric: "ucx"}, func(p *Proc) error {
		w := p.World()
		win, mem, err := w.WinAllocate(8*ranks, 8)
		if err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		for round := 0; round < 10; round++ {
			right := (p.Rank() + 1) % ranks
			left := (p.Rank() - 1 + ranks) % ranks
			// Tagged ring exchange...
			out := Int64Bytes([]int64{int64(p.Rank()*100 + round)}, nil)
			in := make([]byte, 8)
			if _, err := w.Sendrecv(out, 8, Byte, right, round, in, 8, Byte, left, round); err != nil {
				return err
			}
			if got := BytesInt64(in, nil)[0]; got != int64(left*100+round) {
				return fmt.Errorf("round %d ring got %d", round, got)
			}
			// ...and a put into the right neighbor's slot for me.
			if err := win.Put(out, 8, Byte, right, p.Rank()); err != nil {
				return err
			}
			if err := win.Fence(); err != nil {
				return err
			}
			if got := BytesInt64(mem[8*left:8*left+8], nil)[0]; got != int64(left*100+round) {
				return fmt.Errorf("round %d window got %d", round, got)
			}
			// Separate the local reads above from the next round's
			// puts: reading the window while a peer's next-epoch put
			// lands is erroneous under MPI RMA semantics.
			if err := win.Fence(); err != nil {
				return err
			}
		}
		return win.Free()
	})
}
