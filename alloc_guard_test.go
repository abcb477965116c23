package gompi_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gompi"
)

// Allocation-regression guards for the steady-state hot paths: the
// 1-byte eager Isend and the 1-byte Put must not allocate once the
// endpoint pools and free lists are warm, so a future PR that
// reintroduces a per-message allocation fails here rather than only
// showing up in benchmark numbers.
//
// testing.AllocsPerRun counts mallocs process-wide, so each guard parks
// the peer rank on an operation that cannot complete until the
// measurement is over, leaving the measuring rank the only goroutine
// doing work.

// TestIsendSteadyStateAllocs measures the sender-side eager path. The
// warm-up phase pushes `warm` messages through the unexpected queue so
// the receive side returns that many payload buffers, message
// envelopes, and match nodes to the free lists; the measured sends then
// recycle them. A requestless send allocates nothing; an Isend that
// returns a Request allocates only its slot of the rank's Request slab,
// so a run of ReqSlabLen Isend+Wait pairs is exactly one malloc.
func TestIsendSteadyStateAllocs(t *testing.T) {
	const runs, slabRuns = 200, 10
	// Every measured message waits unexpected too, so warm covers them
	// all (AllocsPerRun makes one extra warm-up run of each function).
	const warm = runs + 1 + (slabRuns+1)*gompi.ReqSlabLen + 1
	var allocs, slabAllocs float64
	err := gompi.Run(2, gompi.Config{Fabric: "inf", Build: "no-err-single-ipo"}, func(p *gompi.Proc) error {
		w := p.World()
		buf := []byte{1}
		if p.Rank() == 0 {
			for i := 0; i < warm; i++ {
				if err := w.IsendNoReq(buf, 1, gompi.Byte, 1, 0); err != nil {
					return err
				}
			}
			// Release the receiver only now (messages of a pair arrive in
			// order), so every warm message sat in the unexpected queue
			// however the two goroutines were scheduled; then wait for it
			// to drain, and let it park.
			if err := w.Send(buf, 1, gompi.Byte, 1, 3); err != nil {
				return err
			}
			ack := make([]byte, 1)
			if _, err := w.Recv(ack, 1, gompi.Byte, 1, 2); err != nil {
				return err
			}
			time.Sleep(20 * time.Millisecond)
			allocs = testing.AllocsPerRun(runs, func() {
				if err := w.IsendNoReq(buf, 1, gompi.Byte, 1, 0); err != nil {
					t.Error(err)
				}
			})
			slabAllocs = testing.AllocsPerRun(slabRuns, func() {
				for i := 0; i < gompi.ReqSlabLen; i++ {
					r, err := w.Isend(buf, 1, gompi.Byte, 1, 0)
					if err == nil {
						_, err = r.Wait()
					}
					if err != nil {
						t.Error(err)
					}
				}
			})
			// Release the parked receiver and let it drain the
			// measured messages.
			if err := w.IsendNoReq(buf, 1, gompi.Byte, 1, 1); err != nil {
				return err
			}
			return w.CommWaitall()
		}
		rbuf := make([]byte, 1)
		if _, err := w.Recv(rbuf, 1, gompi.Byte, 0, 3); err != nil {
			return err
		}
		for i := 0; i < warm; i++ {
			if _, err := w.Recv(rbuf, 1, gompi.Byte, 0, 0); err != nil {
				return err
			}
		}
		if err := w.Send([]byte{1}, 1, gompi.Byte, 0, 2); err != nil {
			return err
		}
		if _, err := w.Recv(rbuf, 1, gompi.Byte, 0, 1); err != nil {
			return err
		}
		for i := 0; i < runs+1+(slabRuns+1)*gompi.ReqSlabLen; i++ {
			if _, err := w.Recv(rbuf, 1, gompi.Byte, 0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 0 {
		t.Errorf("steady-state 1-byte Isend allocates %.1f objects/op, want 0", allocs)
	}
	if slabAllocs != 1 {
		t.Errorf("%d steady-state 1-byte Isend+Wait allocate %.1f objects, want 1 (one Request slab)", gompi.ReqSlabLen, slabAllocs)
	}
}

// TestPutSteadyStateAllocs measures the one-sided fast path inside a
// fence epoch while the target rank waits in the closing fence.
func TestPutSteadyStateAllocs(t *testing.T) {
	var allocs float64
	err := gompi.Run(2, gompi.Config{Fabric: "inf", Build: "no-err-single-ipo"}, func(p *gompi.Proc) error {
		w := p.World()
		win, _, err := w.WinAllocate(64, 1)
		if err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			data := []byte{9}
			if err := win.Put(data, 1, gompi.Byte, 1, 0); err != nil {
				return err
			}
			time.Sleep(20 * time.Millisecond) // let rank 1 park in its fence
			allocs = testing.AllocsPerRun(200, func() {
				if err := win.Put(data, 1, gompi.Byte, 1, 0); err != nil {
					t.Error(err)
				}
			})
		}
		if err := win.Fence(); err != nil {
			return err
		}
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 0 {
		t.Errorf("steady-state 1-byte Put allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFlushEmptyEpochAllocs guards the flush fast path: a Flush inside
// a passive epoch with nothing outstanding must not allocate — it is
// the polling primitive flush-based applications sit in.
func TestFlushEmptyEpochAllocs(t *testing.T) {
	var allocs float64
	err := gompi.Run(2, gompi.Config{Fabric: "inf", Build: "no-err-single-ipo"}, func(p *gompi.Proc) error {
		w := p.World()
		win, _, err := w.WinAllocate(8, 1)
		if err != nil {
			return err
		}
		if err := win.LockAll(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			time.Sleep(20 * time.Millisecond) // let rank 1 park in its barrier below
			allocs = testing.AllocsPerRun(200, func() {
				if err := win.Flush(1); err != nil {
					t.Error(err)
				}
			})
		}
		if err := win.UnlockAll(); err != nil {
			return err
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 0 {
		t.Errorf("Flush on an empty epoch allocates %.1f objects/op, want 0", allocs)
	}
}

// TestShmPutSteadyStateAllocs guards the zero-copy intra-node Put: a
// small put on an shm-backed window inside a LockAll epoch must stay
// allocation-free (it is one memcpy plus accounting).
func TestShmPutSteadyStateAllocs(t *testing.T) {
	var allocs float64
	err := gompi.Run(2, gompi.Config{Fabric: "inf", Build: "no-err-single-ipo", RanksPerNode: 2}, func(p *gompi.Proc) error {
		w := p.World()
		win, _, err := w.WinAllocate(64, 1)
		if err != nil {
			return err
		}
		if err := win.LockAll(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			data := []byte{9}
			if err := win.Put(data, 1, gompi.Byte, 1, 0); err != nil {
				return err
			}
			time.Sleep(20 * time.Millisecond)
			allocs = testing.AllocsPerRun(200, func() {
				if err := win.Put(data, 1, gompi.Byte, 1, 0); err != nil {
					t.Error(err)
				}
			})
		}
		if err := win.UnlockAll(); err != nil {
			return err
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 0 {
		t.Errorf("steady-state 1-byte shm Put allocates %.1f objects/op, want 0", allocs)
	}
}

// mallocSlope is the guard for operations every rank takes part in,
// where no rank can be parked out of the way: each rank warms its op
// with n calls, then all ranks run n calls and then 10n calls together,
// with rank 0 reading the process-wide malloc counter at the three
// edges (ranks meet at each edge on atomics, which allocate nothing).
// It returns mallocs(10n) - mallocs(n). An allocation per op shows as
// at least 9n; the high-water growth that goroutine interleaving causes
// now and then (a match bin the first time some peer's message beats
// its receive, an unexpected-pool buffer, a receive box, an envelope, a
// request, one of the runtime's lazily built type-assert caches) is a
// one-time cost that does not scale with the window and stays far
// below it — but it is there: one pair of windows reads 3599 or 3601
// for 3600 in nearly every run, with the collector on or off, so a
// guard that wants an exact count takes it per call (perCall), the
// way testing.AllocsPerRun does. prep builds a rank's op, which is
// handed a running call index.
func mallocSlope(t *testing.T, ranks int, cfg gompi.Config, n int, prep func(p *gompi.Proc) (func(i int) error, error)) int64 {
	t.Helper()
	mallocs, _ := allocSlope(t, ranks, cfg, n, prep)
	return mallocs
}

// allocSlope is mallocSlope reporting the heap bytes allocated too, by
// the same difference of windows.
func allocSlope(t *testing.T, ranks int, cfg gompi.Config, n int, prep func(p *gompi.Proc) (func(i int) error, error)) (mallocs, bytes int64) {
	t.Helper()
	// One P: a goroutine that parks takes its wait record from the P's
	// cache and returns it to the same one, so parking — which the
	// runtime otherwise pays for with a malloc whenever one P's cache
	// runs dry while another's fills — stays out of the count, with or
	// without other load on the machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var arrived, edge atomic.Int64
	var failed atomic.Bool
	var objs, heap [3]uint64
	// meet is edge k: every rank arrives, rank 0 samples, all leave.
	meet := func(p *gompi.Proc, k int64) {
		arrived.Add(1)
		if p.Rank() == 0 {
			for arrived.Load() < k*int64(ranks) && !failed.Load() {
				runtime.Gosched()
			}
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			objs[k-1], heap[k-1] = m.Mallocs, m.TotalAlloc
			edge.Store(k)
		}
		for edge.Load() < k && !failed.Load() {
			runtime.Gosched()
		}
	}
	err := gompi.Run(ranks, cfg, func(p *gompi.Proc) (err error) {
		defer func() {
			if err != nil {
				failed.Store(true)
			}
		}()
		op, err := prep(p)
		if err != nil {
			return err
		}
		i := 0
		for k, calls := range []int{n, n, 10 * n} {
			if k > 0 {
				meet(p, int64(k))
			}
			for end := i + calls; i < end; i++ {
				if err := op(i); err != nil {
					return err
				}
			}
		}
		meet(p, 3)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slope := func(w [3]uint64) int64 { return int64(w[2]-w[1]) - int64(w[1]-w[0]) }
	return slope(objs), slope(heap)
}

// TestPersistentCollReplayZeroAlloc is the acceptance guard: once warm,
// Start/Wait replays of a persistent allreduce must not allocate — the
// compiled schedule, the device's pooled receive descriptors, and the
// request freelists absorb everything. The same run checks that every
// Start is a schedule-cache hit and the only miss is Init's compilation.
func TestPersistentCollReplayZeroAlloc(t *testing.T) {
	const ranks, n = 4, 100
	var st gompi.Stats
	cfg := gompi.Config{
		Device: gompi.DeviceCH4, Fabric: "ofi", RanksPerNode: 2,
		EagerPeers: true, Stats: &st,
	}
	slope := mallocSlope(t, ranks, cfg, n, func(p *gompi.Proc) (func(int) error, error) {
		op, err := p.World().AllreduceInit(make([]byte, 64), make([]byte, 64), 8, gompi.Long, gompi.OpSum)
		return func(int) error {
			if err := op.Start(); err != nil {
				return err
			}
			return op.Wait()
		}, err
	})
	if slope >= n/10 {
		t.Errorf("persistent replays allocate: %d more mallocs over %d replays than over %d (x %d ranks)",
			slope, 10*n, n, ranks)
	}
	agg := st.Aggregate()
	if want := int64(12 * n * ranks); agg.Sched.CacheHits != want {
		t.Errorf("sched cache hits = %d, want %d", agg.Sched.CacheHits, want)
	}
	if agg.Sched.CacheMisses != int64(ranks) {
		t.Errorf("sched cache misses = %d, want %d", agg.Sched.CacheMisses, ranks)
	}
}

// TestBlockingCollSteadyStateAllocs: the blocking collectives compile
// into the communicator's one reusable schedule, so once it has seen
// their shapes Allreduce, Bcast, Barrier and AllreduceFloat64 allocate
// nothing, whether the caller passes the same buffers every call or
// buffers the library has never seen (drawn here from a pool built
// before the measured window). On ch4 that is zero. The
// baseline device allocates per message by design (packet, receive
// state, request from the locked pool), so there the guard is that
// fresh buffers cost exactly what stable ones do; the layer above the
// device is the same code on both.
func TestBlockingCollSteadyStateAllocs(t *testing.T) {
	const ranks, n = 4, 50
	slope := func(dev gompi.DeviceKind, fresh bool) int64 {
		cfg := gompi.Config{Device: dev, Fabric: "ofi", RanksPerNode: 2, EagerPeers: true}
		return mallocSlope(t, ranks, cfg, n, func(p *gompi.Proc) (func(int) error, error) {
			w := p.World()
			pool := make([][]byte, 1)
			if fresh {
				pool = make([][]byte, 12*n)
			}
			for i := range pool {
				pool[i] = make([]byte, 3*64)
			}
			vals := []float64{1, 2}
			return func(i int) error {
				b := pool[i%len(pool)]
				if err := w.Allreduce(b[:64], b[64:128], 8, gompi.Long, gompi.OpSum); err != nil {
					return err
				}
				if err := w.Bcast(b[128:], 64, gompi.Byte, 1); err != nil {
					return err
				}
				if err := w.Barrier(); err != nil {
					return err
				}
				_, err := w.AllreduceFloat64(vals, gompi.OpMax)
				return err
			}, nil
		})
	}
	// Zero to within one high-water event: a rank that for once has one
	// more message unexpected than ever before grows its message, buffer
	// and match-node freelists by two objects each (8 over the ranks, seen
	// in 1-2 % of runs on a loaded machine) — TestICollSteadyStateAllocs'
	// slack, for the reason given there. A cost per call is 9n x ranks.
	const slack = 24
	for _, fresh := range []bool{false, true} {
		if got := slope(gompi.DeviceCH4, fresh); got > slack {
			t.Errorf("ch4, fresh buffers %v: blocking collectives allocate: %d more mallocs over %d rounds than over %d (x %d ranks)",
				fresh, got, 10*n, n, ranks)
		}
	}
	// The device's own garbage makes the collector run inside the window,
	// and each cycle empties the runtime's caches of parked-goroutine
	// records, so the two counts agree to tens of objects, not to the
	// digit (54 has been seen). What the guard is for is a cost per call
	// on fresh buffers: that would be 9n x ranks = 1800 mallocs over the
	// window, so the bound is a quarter of it, well clear of both.
	const perCall = 9 * n * ranks
	stable, fresh := slope(gompi.DeviceOriginal, false), slope(gompi.DeviceOriginal, true)
	if d := fresh - stable; d >= perCall/4 || -d >= perCall/4 {
		t.Errorf("original: fresh buffers cost %d mallocs over the window, stable ones %d (bound %d)", fresh, stable, perCall/4)
	}
}

// TestICollSteadyStateAllocs: a nonblocking collective compiles in place
// into a recycled op — schedule, internal request and completion
// closures together — so once the communicator holds one, Iallreduce +
// Wait and Ibarrier + Wait allocate exactly the public Request they
// return: one slab of ReqSlabLen Requests per ReqSlabLen calls and rank,
// whether the caller passes the same buffers every call or buffers the
// library has never seen. n is a multiple of ReqSlabLen/callsPerRound,
// so each window refills a whole number of slabs.
func TestICollSteadyStateAllocs(t *testing.T) {
	const ranks, n, callsPerRound = 4, 64, 2
	cfg := gompi.Config{Device: gompi.DeviceCH4, Fabric: "ofi", RanksPerNode: 2, EagerPeers: true}
	for _, fresh := range []bool{false, true} {
		slope := mallocSlope(t, ranks, cfg, n, func(p *gompi.Proc) (func(int) error, error) {
			w := p.World()
			pool := make([][]byte, 1)
			if fresh {
				pool = make([][]byte, 12*n)
			}
			for i := range pool {
				pool[i] = make([]byte, 2*64)
			}
			return func(i int) error {
				b := pool[i%len(pool)]
				req, err := w.Iallreduce(b[:64], b[64:], 8, gompi.Long, gompi.OpSum)
				if err != nil {
					return err
				}
				if _, err := req.Wait(); err != nil {
					return err
				}
				if req, err = w.Ibarrier(); err != nil {
					return err
				}
				_, err = req.Wait()
				return err
			}, nil
		})
		// The two windows differ by 9n rounds, so the count is 9n x ranks x
		// callsPerRound / ReqSlabLen slabs to within the one-time
		// high-water objects that land in one window or the other (a match
		// bin, an unexpected-pool buffer, a lazily built runtime
		// type-assert cache: -17..+4 over 300 runs, whatever n is). One
		// stray object per call would be 9n x ranks x callsPerRound off.
		const want, slack = 9 * n * ranks * callsPerRound / gompi.ReqSlabLen, 24
		if d := slope - want; d > slack || -d > slack {
			t.Errorf("fresh buffers %v: %d more mallocs over %d rounds than over %d, want %d +/- %d: a round of %d I-collectives allocates its %d Requests' share of a slab per rank and nothing else",
				fresh, slope, 10*n, n, want, slack, callsPerRound, callsPerRound)
		}
	}
}

// TestBlockingPt2ptSteadyStateAllocs: the blocking forms wait on the
// rank's scratch Request, so once the pools are warm a Send, a Recv and
// a Sendrecv allocate nothing (each heap-allocated the public Request
// it dropped on the next line: 4 objects a round). Isend and Irecv keep
// returning a fresh one from the rank's slab, which
// TestThreadMultipleSteadyStateAllocs counts.
func TestBlockingPt2ptSteadyStateAllocs(t *testing.T) {
	const ranks, n = 2, 200
	cfg := gompi.Config{Device: gompi.DeviceCH4, Fabric: "ofi"}
	slope := mallocSlope(t, ranks, cfg, n, func(p *gompi.Proc) (func(int) error, error) {
		w := p.World()
		peer := 1 - p.Rank()
		sbuf, rbuf := []byte{1}, make([]byte, 1)
		return func(int) error {
			if p.Rank() == 0 {
				if err := w.Send(sbuf, 1, gompi.Byte, peer, 0); err != nil {
					return err
				}
				if _, err := w.Recv(rbuf, 1, gompi.Byte, peer, 0); err != nil {
					return err
				}
			} else {
				if _, err := w.Recv(rbuf, 1, gompi.Byte, peer, 0); err != nil {
					return err
				}
				if err := w.Send(sbuf, 1, gompi.Byte, peer, 0); err != nil {
					return err
				}
			}
			_, err := w.Sendrecv(sbuf, 1, gompi.Byte, peer, 1, rbuf, 1, gompi.Byte, peer, 1)
			return err
		}, nil
	})
	if slope >= n/10 {
		t.Errorf("blocking Send/Recv/Sendrecv allocate: %d more mallocs over %d rounds than over %d (x %d ranks)",
			slope, 10*n, n, ranks)
	}
}

// TestThreadMultipleSteadyStateAllocs: MPI_THREAD_MULTIPLE adds a lock
// and its charge to every call, and one heap object per public Request.
// The unlock a call defers is bound once per communicator, so Isend +
// Irecv + Waitall allocates its two Requests and nothing else: a slab
// of ReqSlabLen per ReqSlabLen Requests with the thread level off, and
// two objects per exchange with it on, where several goroutines start
// operations on one Proc and the owner-only slab is bypassed. A method
// value made per call would show as two more per exchange either way.
// n x 2 Requests is a multiple of ReqSlabLen, so the windows refill
// whole slabs.
func TestThreadMultipleSteadyStateAllocs(t *testing.T) {
	const ranks, n = 2, 200
	slope := func(threadMultiple bool) int64 {
		cfg := gompi.Config{Device: gompi.DeviceCH4, Fabric: "ofi", ThreadMultiple: threadMultiple}
		return mallocSlope(t, ranks, cfg, n, func(p *gompi.Proc) (func(int) error, error) {
			w := p.World()
			peer := 1 - p.Rank()
			sbuf, rbuf := []byte{1}, make([]byte, 1)
			reqs := make([]*gompi.Request, 2)
			return func(int) error {
				var err error
				if reqs[0], err = w.Irecv(rbuf, 1, gompi.Byte, peer, 0); err != nil {
					return err
				}
				if reqs[1], err = w.Isend(sbuf, 1, gompi.Byte, peer, 0); err != nil {
					return err
				}
				return gompi.Waitall(reqs)
			}, nil
		})
	}
	// TestICollSteadyStateAllocs' one-time high-water slack.
	const reqs, slack = 9 * n * ranks * 2, 24
	for _, tc := range []struct {
		threadMultiple bool
		want           int64
	}{{false, reqs / gompi.ReqSlabLen}, {true, reqs}} {
		if got := slope(tc.threadMultiple); got-tc.want > slack || tc.want-got > slack {
			t.Errorf("ThreadMultiple %v: %d more mallocs over %d exchanges than over %d (x %d ranks), want %d +/- %d",
				tc.threadMultiple, got, 10*n, n, ranks, tc.want, slack)
		}
	}
}

// TestLentSendSteadyStateAllocs: a lent send — off-node above the eager
// limit, on-node above the shm handoff threshold — allocates nothing of
// its own once warm. Before the netmod lent, every unexpected 256 KiB
// rendezvous cost a 256 KiB staging buffer; before the send box, every
// handoff three completion closures. Now an exchange allocates exactly
// the public Requests of its Isend and Irecv, one per rank, from the
// ranks' Request slabs, and no payload bytes. Every message is
// unexpected: the receiver probes for it before posting its receive.
// n is a multiple of ReqSlabLen, so the windows refill whole slabs.
func TestLentSendSteadyStateAllocs(t *testing.T) {
	const ranks, n, size = 2, 64, 256 << 10
	for _, tc := range []struct {
		name string
		cfg  gompi.Config
	}{
		{"rendezvous", gompi.Config{Device: gompi.DeviceCH4, Fabric: "ofi"}},
		{"handoff", gompi.Config{Device: gompi.DeviceCH4, Fabric: "ofi", RanksPerNode: 2, ShmEagerMax: 16384}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mallocs, bytes := allocSlope(t, ranks, tc.cfg, n, func(p *gompi.Proc) (func(int) error, error) {
				w := p.World()
				buf := make([]byte, size)
				if p.Rank() == 0 {
					return func(int) error {
						r, err := w.Isend(buf, size, gompi.Byte, 1, 0)
						if err != nil {
							return err
						}
						_, err = r.Wait()
						return err
					}, nil
				}
				return func(int) error {
					if _, err := w.Probe(0, 0); err != nil {
						return err
					}
					r, err := w.Irecv(buf, size, gompi.Byte, 0, 0)
					if err != nil {
						return err
					}
					_, err = r.Wait()
					return err
				}, nil
			})
			// The windows differ by 9n exchanges: 2 Requests each, one slab
			// per ReqSlabLen of them, to within TestICollSteadyStateAllocs'
			// one-time high-water slack.
			const want, slack = 9 * n * ranks / gompi.ReqSlabLen, 24
			if d := mallocs - want; d > slack || -d > slack {
				t.Errorf("%d more mallocs over %d exchanges than over %d, want %d +/- %d: an exchange allocates its 2 Requests' share of a slab and nothing else",
					mallocs, 10*n, n, want, slack)
			}
			if perMsg := bytes / (9 * n); perMsg >= 1024 {
				t.Errorf("%d heap bytes per %d-byte message: the payload is staged, not lent", perMsg, size)
			}
		})
	}
}

// TestOperationOwnsRequestAllocs: a request lives in the object that
// completes its operation, so completing it builds no closure. A
// baseline Irecv + Isend + Waitall still allocates by design — packet,
// envelope, payload copy, matching state, a request from the locked
// pool — but its receive's matching state drives the request itself:
// 8 objects per exchange and rank plus its 2 Requests' share of a slab,
// three fewer than when every Irecv built a poll, a block and a finish
// closure (11.1). A ch4 Rput + Wait in a pure-RDMA LockAll epoch
// completes at issue with a pooled request, so it allocates only its
// public Request's slot of a slab, 1/ReqSlabLen per op, where a per-call
// completion closure made it 1.06. n is a multiple of ReqSlabLen, so
// the windows refill whole slabs.
func TestOperationOwnsRequestAllocs(t *testing.T) {
	const ranks, n = 2, 160
	const calls = 9 * n * ranks // the windows' difference, summed over the ranks
	exchange := mallocSlope(t, ranks, gompi.Config{Device: gompi.DeviceOriginal, Fabric: "ofi"}, n,
		func(p *gompi.Proc) (func(int) error, error) {
			w := p.World()
			peer := 1 - p.Rank()
			sbuf, rbuf := []byte{1}, make([]byte, 1)
			reqs := make([]*gompi.Request, 2)
			return func(int) error {
				var err error
				if reqs[0], err = w.Irecv(rbuf, 1, gompi.Byte, peer, 0); err != nil {
					return err
				}
				if reqs[1], err = w.Isend(sbuf, 1, gompi.Byte, peer, 0); err != nil {
					return err
				}
				return gompi.Waitall(reqs)
			}, nil
		})
	// TestICollSteadyStateAllocs' one-time high-water slack.
	const slack = 24
	if want := int64(calls*8 + calls*2/gompi.ReqSlabLen); exchange > want+slack {
		t.Errorf("baseline Irecv+Isend+Waitall: %d more mallocs over %d exchanges than over %d (x %d ranks), want <= %d + %d (%.2f per exchange and rank)",
			exchange, 10*n, n, ranks, want, slack, float64(exchange)/calls)
	}
	rput := mallocSlope(t, ranks, gompi.Config{Device: gompi.DeviceCH4, Fabric: "ofi"}, n,
		func(p *gompi.Proc) (func(int) error, error) {
			win, _, err := p.World().WinAllocate(64, 1)
			if err != nil {
				return nil, err
			}
			if err := win.LockAll(); err != nil {
				return nil, err
			}
			peer := 1 - p.Rank()
			data := []byte{9}
			return func(int) error {
				r, err := win.Rput(data, 1, gompi.Byte, peer, 0)
				if err != nil {
					return err
				}
				_, err = r.Wait()
				return err
			}, nil
		})
	if perOp := float64(rput) / calls; perOp > 0.1 {
		t.Errorf("ch4 Rput+Wait in LockAll: %.3f mallocs per op, want <= 0.1 (1/%d is the Request slab)", perOp, gompi.ReqSlabLen)
	}
}

// TestPersistentStartAllocs: a persistent operation owns the Request of
// its activation, so a self exchange of a persistent receive and send —
// Start, Start, Wait, Wait — allocates nothing once warm, where taking
// a fresh Request from the rank's slab on every Start cost one slab per
// ReqSlabLen Starts. The windows' difference is 9n exchanges.
func TestPersistentStartAllocs(t *testing.T) {
	const n = 200
	slope := mallocSlope(t, 1, gompi.Config{Device: gompi.DeviceCH4, Fabric: "ofi"}, n,
		func(p *gompi.Proc) (func(int) error, error) {
			w := p.World()
			recv, err := w.RecvInit(make([]byte, 1), 1, gompi.Byte, 0, 0)
			if err != nil {
				return nil, err
			}
			send, err := w.SendInit([]byte{1}, 1, gompi.Byte, 0, 0)
			if err != nil {
				return nil, err
			}
			return func(int) error {
				if err := recv.Start(); err != nil {
					return err
				}
				if err := send.Start(); err != nil {
					return err
				}
				if _, err := send.Wait(); err != nil {
					return err
				}
				_, err := recv.Wait()
				return err
			}, nil
		})
	if slope != 0 {
		t.Errorf("persistent Start/Wait: %d more mallocs over %d exchanges than over %d, want 0", slope, 10*n, n)
	}
}
