package fabric

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// mustPanic runs fn and fails unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestRegionTableKeys: the table resolves exactly the (rank, key) pairs
// that are registered — across chunk boundaries — and everything else
// panics like an unregistered region: a key never issued, key 0, a
// negative key, a revoked key, and a live key under the wrong rank.
func TestRegionTableKeys(t *testing.T) {
	f, _ := newTestFabric(t, INF, 4)
	const n = 3*regionChunkSlots + 5
	mems := make([][]byte, n+1)
	for i := 1; i <= n; i++ {
		mems[i] = []byte{byte(i)}
		if key := f.RegisterRegion(i%4, mems[i]); key != i {
			t.Fatalf("registration %d got key %d: keys are no longer dense", i, key)
		}
	}
	for i := 1; i <= n; i++ {
		if got := f.RegionMem(i%4, i); &got[0] != &mems[i][0] {
			t.Fatalf("key %d resolved to another region", i)
		}
	}
	for _, bad := range []int{0, -1, -regionChunkSlots, n + 1, 1 << 40} {
		mustPanic(t, "lookup of a key never issued", func() { f.RegionMem(bad%4, bad) })
	}
	mustPanic(t, "lookup under the wrong rank", func() { f.RegionMem(0, 1) })
	mustPanic(t, "Put under the wrong rank", func() { f.Endpoint(0).Put(3, 1, 0, []byte{9}) })

	stale := regionChunkSlots + 1
	f.UnregisterRegion(3, stale) // wrong rank: must not revoke
	if got := f.RegionMem(stale%4, stale); got[0] != byte(stale) {
		t.Fatal("UnregisterRegion under the wrong rank revoked the region")
	}
	f.UnregisterRegion(stale%4, stale)
	mustPanic(t, "lookup of a revoked key", func() { f.RegionMem(stale%4, stale) })
	mustPanic(t, "Put to a revoked key", func() { f.Endpoint(0).Put(stale%4, stale, 0, []byte{9}) })
	f.UnregisterRegion(stale%4, stale) // revoking twice is a no-op
	if key := f.RegisterRegion(1, []byte{0}); key != n+1 {
		t.Fatalf("a revoked key was reissued: got %d, want %d", key, n+1)
	}
	for i := 1; i <= n; i++ {
		if i != stale && f.RegionMem(i%4, i)[0] != byte(i) {
			t.Fatalf("revoking key %d disturbed key %d", stale, i)
		}
	}
}

// TestRegisterWhilePut: origins Put through the table while windows are
// registered and revoked around them (run under -race): a lookup takes
// no lock and must still never see a half-built table.
func TestRegisterWhilePut(t *testing.T) {
	f, _ := newTestFabric(t, INF, 3)
	target := make([]byte, 2)
	key := f.RegisterRegion(0, target)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for origin := 1; origin <= 2; origin++ {
		wg.Add(1)
		go func(origin int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				f.Endpoint(origin).Put(0, key, origin-1, []byte{byte(i)})
			}
		}(origin)
	}
	for i := 0; i < 20*regionChunkSlots; i++ {
		k := f.RegisterRegion(i%3, make([]byte, 1))
		f.PutLocal(i%3, k, 0, []byte{1}, 0)
		if i%2 == 0 {
			f.UnregisterRegion(i%3, k)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestRegionChurn: windows created and freed in a loop leave behind
// their 8-byte slot and nothing else — not the region, not a table copy
// per chunk — and the last key still resolves.
func TestRegionChurn(t *testing.T) {
	const n = 100_000
	f, _ := newTestFabric(t, INF, 2)
	mem := make([]byte, 8)
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for i := 0; i < n; i++ {
		f.UnregisterRegion(i%2, f.RegisterRegion(i%2, mem))
	}
	key := f.RegisterRegion(1, mem)
	grown := int64(heap() - before)
	if key != n+1 || &f.RegionMem(1, key)[0] != &mem[0] {
		t.Fatalf("after %d register/revoke pairs the next key is %d", n, key)
	}
	mustPanic(t, "lookup of a key revoked long ago", func() { f.RegionMem(1, 1) })
	// 8 B of slot per key, and a table of n/regionChunkSlots pointers
	// with at most as much again in spare capacity.
	if limit := int64(8*n + 2*8*n/regionChunkSlots + 4096); grown > limit {
		t.Errorf("%d register/revoke pairs grew the heap by %d bytes, want at most %d", n, grown, limit)
	}
	if table := *f.regions.Load(); cap(table) == len(table) && len(table) > 64 {
		t.Errorf("table of %d chunks has no spare capacity: it is copied on every chunk", len(table))
	}
}

// TestRegionLookupNoAllocs: resolving a key allocates nothing.
func TestRegionLookupNoAllocs(t *testing.T) {
	f, _ := newTestFabric(t, INF, 2)
	var key int
	for i := 0; i < 2*regionChunkSlots; i++ {
		key = f.RegisterRegion(1, make([]byte, 8))
	}
	if a := testing.AllocsPerRun(1000, func() { _ = f.region(1, key) }); a != 0 {
		t.Fatalf("region lookup allocates %g objects/op", a)
	}
}

var regionSink *region

// BenchmarkRegionLookup: the per-Put lookup from one goroutine (owner)
// and from all Ps at once (shared) — it touches nothing shared, so the
// two should read alike.
func BenchmarkRegionLookup(b *testing.B) {
	f := New(INF, 2)
	var key int
	for i := 0; i < 2*regionChunkSlots; i++ {
		key = f.RegisterRegion(1, make([]byte, 8))
	}
	b.Run("owner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			regionSink = f.region(1, key)
		}
	})
	b.Run("shared", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			var r *region
			for pb.Next() {
				r = f.region(1, key)
			}
			_ = r
		})
	})
}
