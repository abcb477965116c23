package request

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"gompi/internal/metrics"
)

func TestImmediateCompletion(t *testing.T) {
	var r Request
	r.MarkComplete(Status{Source: 3, Tag: 7, Count: 16})
	if !r.Done() {
		t.Fatal("completed request not done")
	}
	r.Wait() // must not hang
	if r.Status.Source != 3 || r.Status.Tag != 7 || r.Status.Count != 16 {
		t.Errorf("status = %+v", r.Status)
	}
}

// testDriver completes its request on the third poll, or at once when
// blocked on, and counts what the request asked of it.
type testDriver struct {
	polls, blocks, recycles int
}

func (d *testDriver) Poll(r *Request) bool {
	d.polls++
	if d.polls < 3 {
		return false
	}
	r.MarkComplete(Status{Count: 1})
	return true
}

func (d *testDriver) Block(r *Request) {
	d.blocks++
	r.MarkComplete(Status{})
}

func (d *testDriver) Recycle(*Request) { d.recycles++ }

func TestPollDrivenCompletion(t *testing.T) {
	var d testDriver
	var r Request
	r.Bind(KindRecv, &d)
	if r.Done() || r.Done() {
		t.Fatal("request completed early")
	}
	if !r.Done() {
		t.Fatal("request did not complete on third poll")
	}
	if !r.Done() { // must stay complete without re-polling
		t.Fatal("completion not sticky")
	}
	if d.polls != 3 {
		t.Errorf("poll fired %d times, want 3", d.polls)
	}
}

func TestBlockDrivenCompletion(t *testing.T) {
	var d testDriver
	var r Request
	r.Bind(KindSend, &d)
	r.Wait()
	if d.blocks != 1 || !r.Done() {
		t.Fatal("Wait did not run Block")
	}
	r.Wait() // second wait must not block again
	if d.blocks != 1 {
		t.Fatal("Wait re-ran Block on a complete request")
	}
}

// TestFreeRecyclesThroughDriver: Free hands the request to its driver
// once, and Reset readies it for the next operation with its kind and
// driver kept, so the next activation polls the same driver.
func TestFreeRecyclesThroughDriver(t *testing.T) {
	var d testDriver
	var r Request
	r.Bind(KindRecv, &d)
	r.Issued = 7
	r.Wait()
	r.Free()
	if d.recycles != 1 {
		t.Fatalf("Free recycled %d times, want 1", d.recycles)
	}
	r.Reset()
	if r.Kind != KindRecv || r.complete || r.Issued != 0 || r.Status != (Status{}) || r.drv != &d {
		t.Fatalf("Reset left %+v", r)
	}
	if r.Done() || d.polls != 1 {
		t.Fatalf("reset request did not poll its driver: polls %d", d.polls)
	}
	var bare Request // no driver: Free is a no-op
	bare.Free()
}

func TestPoolRecycling(t *testing.T) {
	var p Pool
	r1 := p.Get(KindSend)
	r1.MarkComplete(Status{Count: 99})
	r1.Free()
	if len(p.free) != 1 {
		t.Fatalf("pool len = %d, want 1", len(p.free))
	}
	r2 := p.Get(KindRecv)
	if r2 != r1 {
		t.Error("pool did not recycle the freed request")
	}
	if r2.Done() || r2.Status.Count != 0 || r2.Kind != KindRecv {
		t.Error("recycled request not zeroed")
	}
}

func TestPoolGrowth(t *testing.T) {
	var p Pool
	rs := make([]*Request, 10)
	for i := range rs {
		rs[i] = p.Get(KindSend)
	}
	for _, r := range rs {
		r.Free()
	}
	if len(p.free) != 10 {
		t.Fatalf("pool len = %d, want 10", len(p.free))
	}
}

func TestLockedPoolConcurrent(t *testing.T) {
	var p LockedPool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r := p.GetFor(KindSend, nil, nil)
				r.MarkComplete(Status{})
				r.Free()
			}
		}()
	}
	wg.Wait()
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Add()
	c.Add()
	if c.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", c.Pending())
	}
	c.Done()
	c.Done()
	if c.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", c.Pending())
	}
}

func TestCounterUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("counter underflow did not panic")
		}
	}()
	var c Counter
	c.Done()
}

// Property: pool Get/Free conserves requests — after n gets and n
// frees, pool depth grows by exactly the number of distinct requests
// freed.
func TestPoolConservation(t *testing.T) {
	f := func(n uint8) bool {
		var p Pool
		k := int(n % 50)
		rs := make([]*Request, k)
		for i := range rs {
			rs[i] = p.Get(KindSend)
		}
		if len(p.free) != 0 {
			return false
		}
		for _, r := range rs {
			r.Free()
		}
		return len(p.free) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: counter pending equals adds minus dones for any valid
// prefix sequence.
func TestCounterBalance(t *testing.T) {
	f := func(ops []bool) bool {
		var c Counter
		var bal int64
		for _, add := range ops {
			if add {
				c.Add()
				bal++
			} else if bal > 0 {
				c.Done()
				bal--
			}
			if c.Pending() != bal {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSingleVsSharedPool: one seeded get/free stream leaves a
// single-writer pool and a shared one in the same state, with the same
// reuse counts.
func TestSingleVsSharedPool(t *testing.T) {
	run := func(shared bool) (depth int, m metrics.Snapshot) {
		var reg metrics.Rank
		p := &Pool{Metrics: &reg}
		if shared {
			p.Share()
			reg.Share()
		}
		rng := rand.New(rand.NewSource(22))
		var live []*Request
		for i := 0; i < 5000; i++ {
			if len(live) == 0 || rng.Intn(3) > 0 {
				r := p.Get(Kind(rng.Intn(4)))
				if r.complete || r.drv != p || r.Issued != 0 || r.Status != (Status{}) {
					t.Fatalf("shared %v: Get returned a dirty request %+v", shared, r)
				}
				r.Issued = int64(i)
				r.MarkComplete(Status{Source: i, Count: 1})
				live = append(live, r)
			} else {
				k := rng.Intn(len(live))
				live[k].Free()
				live = append(live[:k], live[k+1:]...)
			}
		}
		return len(p.free), reg.Snapshot()
	}
	d0, m0 := run(false)
	d1, m1 := run(true)
	if d0 != d1 || m0.Req != m1.Req || m0.Req.Reuses == 0 {
		t.Fatalf("single-writer pool: depth %d, %+v; shared: depth %d, %+v", d0, m0.Req, d1, m1.Req)
	}
}

// TestSharedPoolConcurrent: 8 goroutines get and free on one shared
// pool (run under -race); every request comes back.
func TestSharedPoolConcurrent(t *testing.T) {
	var p Pool
	p.Share()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				a, b := p.Get(KindSend), p.Get(KindRecv)
				a.Free()
				b.Free()
			}
		}()
	}
	wg.Wait()
	if n := len(p.free); n < 2 || n > 16 {
		t.Fatalf("freelist depth %d after 8 goroutines held 2 requests each", n)
	}
}

// BenchmarkPoolGetFree is the ladder's request.get_free_ns probe, in
// both modes.
func BenchmarkPoolGetFree(b *testing.B) {
	for _, mode := range []string{"owner", "shared"} {
		b.Run(mode, func(b *testing.B) {
			var m metrics.Rank
			pool := &Pool{Metrics: &m}
			if mode == "shared" {
				pool.Share()
				m.Share()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pool.Get(KindSend).Free()
			}
		})
	}
}
