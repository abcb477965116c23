package hist

import (
	"math/rand"
	"sync"
	"testing"
)

func TestEmptyHistogram(t *testing.T) {
	var h H
	s := h.Snapshot()
	for _, p := range []float64{0, 50, 90, 99, 100} {
		if got := s.percentile(p); got != 0 {
			t.Fatalf("empty histogram p%g = %d, want 0", p, got)
		}
	}
	if s.Count != 0 || s.Sum != 0 || s.P50 != 0 || s.P99 != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
}

func TestPercentileOrdering(t *testing.T) {
	var h H
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		h.Observe(rng.Int63n(1 << 20))
	}
	s := h.Snapshot()
	if !(s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max) {
		t.Fatalf("percentile ordering violated: p50=%d p90=%d p99=%d max=%d", s.P50, s.P90, s.P99, s.Max)
	}
	if s.Count != 5000 {
		t.Fatalf("count = %d, want 5000", s.Count)
	}
}

func TestSingleValue(t *testing.T) {
	var h H
	h.Observe(100)
	// 100 lands in bucket ceil(log2(100)) = 7, upper bound 128,
	// clamped to max=100.
	s := h.Snapshot()
	for _, p := range []float64{1, 50, 99, 100} {
		if got := s.percentile(p); got != 100 {
			t.Fatalf("p%g = %d, want 100 (single observation clamped to max)", p, got)
		}
	}
	if s.Sum != 100 || s.Max != 100 || s.Count != 1 {
		t.Fatalf("sum/max/count = %d/%d/%d", s.Sum, s.Max, s.Count)
	}
}

func TestNegativeClampsToZero(t *testing.T) {
	var h H
	h.Observe(-5)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 0 || s.Max != 0 {
		t.Fatalf("negative observation not clamped: count=%d sum=%d max=%d", s.Count, s.Sum, s.Max)
	}
	if s.P50 != 0 {
		t.Fatalf("p50 after clamped observation = %d, want 0", s.P50)
	}
}

// TestMergeShardsEqualsWhole: observing a stream into K shards and
// merging must reproduce the histogram of the whole stream exactly.
func TestMergeShardsEqualsWhole(t *testing.T) {
	const shards = 4
	var whole H
	var parts [shards]H
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 8000; i++ {
		v := rng.Int63n(1 << 30)
		whole.Observe(v)
		parts[i%shards].Observe(v)
	}
	ws := whole.Snapshot()
	var sm Snapshot
	for i := range parts {
		sm.Merge(parts[i].Snapshot())
	}
	if sm != ws {
		t.Fatalf("snapshot merge != whole:\nwhole %+v\nsnap  %+v", ws, sm)
	}
}

func TestConcurrentObserve(t *testing.T) {
	var h H
	h.Share()
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(rng.Int63n(1 << 16))
			}
		}(int64(g))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	var bsum int64
	for _, b := range s.Buckets {
		bsum += b
	}
	if bsum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bsum, s.Count)
	}
}

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 20, 20}, {(1 << 20) + 1, 21},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestObserveAllocFree(t *testing.T) {
	var h H
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates: %g allocs/op", allocs)
	}
}

// TestSingleVsSharedHist: one seeded stream of observations gives the
// same snapshot from a single-writer histogram and a shared one.
func TestSingleVsSharedHist(t *testing.T) {
	var single, shared H
	shared.Share()
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 20000; i++ {
		v := rng.Int63n(1<<uint(rng.Intn(40))) - 3 // some negative: clamped
		single.Observe(v)
		shared.Observe(v)
	}
	a, b := single.Snapshot(), shared.Snapshot()
	if a != b {
		t.Fatalf("single-writer and shared histograms differ:\n%+v\n%+v", a, b)
	}
	if a.percentile(37) != b.percentile(37) || a.Count != 20000 {
		t.Fatalf("p37 %d vs %d, count %d", a.percentile(37), b.percentile(37), a.Count)
	}
}

// BenchmarkObserve is the ladder's hist.observe_ns probe, in both modes.
func BenchmarkObserve(b *testing.B) {
	for _, mode := range []string{"owner", "shared"} {
		b.Run(mode, func(b *testing.B) {
			var h H
			if mode == "shared" {
				h.Share()
			}
			for i := 0; i < b.N; i++ {
				h.Observe(int64(i & 4095))
			}
		})
	}
}
