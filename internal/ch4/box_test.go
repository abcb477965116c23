package ch4

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"gompi/internal/comm"
	"gompi/internal/core"
	"gompi/internal/datatype"
	"gompi/internal/fabric"
	"gompi/internal/metrics"
	"gompi/internal/proc"
	"gompi/internal/request"
)

// A ch4 receive and a lent send are each one object: the box holds the
// request it drives, and freeing the request recycles the box.

// lentSize is past both lending thresholds the box tests use: OFI's
// 8 KiB eager limit and a 4 KiB shm handoff threshold.
const lentSize = 16 << 10

// boxConfigs are the two ways a send is lent: a netmod rendezvous
// between nodes and an shm handoff on one node.
var boxConfigs = []struct {
	name string
	rpn  int
}{{"rendezvous", 1}, {"handoff", 2}}

func boxConfig(threadMultiple bool) core.Config {
	cfg := core.Default
	cfg.ShmEagerMax = 4096
	cfg.ThreadMultiple = threadMultiple
	return cfg
}

// pattern is the payload of round i of goroutine g.
func pattern(g, i int) []byte { return bytes.Repeat([]byte{byte(g*64 + i)}, lentSize) }

// TestBoxRequestsSkipPool: once warm, a receive and a lent send take
// their requests with their boxes, off the box freelists — none from
// the device's request pool, which only requests complete at issue
// use — and each get still counts as a reused request in the rank's
// registry (request.reuse_ratio).
func TestBoxRequestsSkipPool(t *testing.T) {
	const warm, rounds = 2, 20
	for _, tc := range boxConfigs {
		t.Run(tc.name, func(t *testing.T) {
			runWorld(t, 2, tc.rpn, fabric.OFI, boxConfig(false), func(e *env) error {
				peer := 1 - e.c.Rank()
				rbuf := make([]byte, lentSize)
				exchange := func(i int) error {
					r, err := e.d.Irecv(rbuf, lentSize, datatype.Byte, peer, 0, e.c, 0)
					if err != nil {
						return err
					}
					s, err := e.d.Isend(pattern(e.c.Rank(), i), lentSize, datatype.Byte, peer, 0, e.c, 0)
					if err != nil {
						return err
					}
					r.Wait()
					s.Wait()
					r.Free()
					s.Free()
					if !bytes.Equal(rbuf, pattern(peer, i)) {
						return fmt.Errorf("round %d: wrong payload", i)
					}
					return nil
				}
				for i := 0; i < warm; i++ {
					if err := exchange(i); err != nil {
						return err
					}
				}
				var pool metrics.Rank
				e.d.pool.Metrics = &pool
				before := e.d.rank.Metrics().Snapshot().Req
				for i := warm; i < warm+rounds; i++ {
					if err := exchange(i); err != nil {
						return err
					}
				}
				after := e.d.rank.Metrics().Snapshot().Req
				if got := pool.Snapshot().Req.Allocs; got != 0 {
					return fmt.Errorf("%d requests taken from the pool over %d receives and lent sends, want 0", got, 2*rounds)
				}
				if gets, reuses := after.Allocs-before.Allocs, after.Reuses-before.Reuses; gets != 2*rounds || reuses != 2*rounds {
					return fmt.Errorf("registry counted %d request gets, %d reused; want %d, %d", gets, reuses, 2*rounds, 2*rounds)
				}
				return nil
			})
		})
	}
}

// TestBoxRequestsThreadMultiple: under MPI_THREAD_MULTIPLE two
// goroutines of each rank post receives and lent sends and hand the
// requests to each other, each waiting on and freeing its sibling's, so
// boxes are taken on one goroutine and recycled on another. Run it
// under -race: the box freelists are the rank's shared state.
func TestBoxRequestsThreadMultiple(t *testing.T) {
	const rounds = 40
	for _, tc := range boxConfigs {
		t.Run(tc.name, func(t *testing.T) {
			w := proc.NewWorld(2, tc.rpn, 2.2e9)
			w.SetThreadMultiple(true)
			g := NewGlobal(w, fabric.OFI, boxConfig(true))
			reg := comm.NewRegistry()
			err := errors.Join(w.RunAll(func(r *proc.Rank) error {
				d := g.Open(r)
				c := comm.NewWorld(reg, 2, r.ID())
				c.Exchange(d, nil)
				peer := 1 - c.Rank()
				type pair struct {
					recv, send *request.Request
					buf        []byte
					round      int
				}
				handoff := [2]chan pair{make(chan pair, 1), make(chan pair, 1)}
				errs := make([]error, 2)
				var wg sync.WaitGroup
				for gr := 0; gr < 2; gr++ {
					wg.Add(1)
					go func(gr int) {
						defer wg.Done()
						for i := 0; i < rounds; i++ {
							buf := make([]byte, lentSize)
							rr, err := d.Irecv(buf, lentSize, datatype.Byte, peer, gr, c, 0)
							if err != nil {
								errs[gr] = err
								return
							}
							sr, err := d.Isend(pattern(gr, i), lentSize, datatype.Byte, peer, gr, c, 0)
							if err != nil {
								errs[gr] = err
								return
							}
							handoff[1-gr] <- pair{rr, sr, buf, i}
							p := <-handoff[gr]
							p.recv.Wait()
							p.send.Wait()
							st := p.recv.Status
							p.recv.Free()
							p.send.Free()
							if errs[gr] == nil && (st.Count != lentSize || st.Tag != 1-gr || !bytes.Equal(p.buf, pattern(1-gr, p.round))) {
								errs[gr] = fmt.Errorf("goroutine %d, round %d of its sibling: status %+v or payload wrong", gr, p.round, st)
							}
						}
					}(gr)
				}
				wg.Wait()
				return errors.Join(errs...)
			})...)
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
