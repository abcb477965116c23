// Package hist provides allocation-free, mergeable log2-bucketed
// histograms over virtual cycles.
//
// H is a fixed-size value type: embedding it in a per-rank metrics
// registry costs no allocation. It is single-writer by default — one
// goroutine observes and reads it (or several do under a lock they
// already hold), with plain loads and stores — and atomic only after
// Share, for a histogram several goroutines observe into at once
// (MPI_THREAD_MULTIPLE). Both modes produce the same numbers. This
// mirrors the contract of internal/metrics.
//
// Buckets are powers of two: bucket i counts observations v with
// 2^(i-1) < v <= 2^i (bucket 0 counts v <= 1, which includes zero).
// Percentile estimates return the upper bound of the bucket holding
// the requested quantile, so they are conservative (never under-report
// latency) and exact for the common small-value cases.
package hist

import (
	"math/bits"
	"sync/atomic"
)

// NumBuckets covers the full non-negative int64 range: bucket 63
// holds everything above 2^62.
const NumBuckets = 64

// H is a log2-bucketed histogram. The zero value is an empty
// single-writer histogram ready for use; see Share.
type H struct {
	buckets [NumBuckets]int64
	sum     int64
	max     int64
	shared  bool
}

// Share makes every access atomic, for a histogram several goroutines
// observe into; call it before the first Observe.
func (h *H) Share() { h.shared = true }

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	// bits.Len64(v-1) is ceil(log2(v)) for v >= 2.
	b := bits.Len64(uint64(v - 1))
	if b >= NumBuckets {
		return NumBuckets - 1
	}
	return b
}

// Observe records one value. Negative values are clamped to zero:
// span observations are differences of virtual clocks that can only
// run backwards through benign races, and a clamped zero keeps the
// count honest without poisoning the distribution.
func (h *H) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if !h.shared {
		h.buckets[bucketOf(v)]++
		h.sum += v
		if v > h.max {
			h.max = v
		}
		return
	}
	atomic.AddInt64(&h.buckets[bucketOf(v)], 1)
	atomic.AddInt64(&h.sum, v)
	for {
		cur := atomic.LoadInt64(&h.max)
		if v <= cur || atomic.CompareAndSwapInt64(&h.max, cur, v) {
			return
		}
	}
}

// bucketUpper is the inclusive upper bound of bucket i.
func bucketUpper(i int) int64 {
	if i >= 63 {
		return int64(^uint64(0) >> 1) // MaxInt64
	}
	return int64(1) << uint(i)
}

// Snapshot is a plain-value copy of a histogram with derived
// percentiles, suitable for JSON export and cross-rank aggregation.
type Snapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`

	Buckets [NumBuckets]int64 `json:"-"`
}

// load reads the histogram once: buckets, their sum as Count, Sum and
// Max, percentiles not yet derived.
func (h *H) load() Snapshot {
	var s Snapshot
	if h.shared {
		s.Sum, s.Max = atomic.LoadInt64(&h.sum), atomic.LoadInt64(&h.max)
		for i := range s.Buckets {
			s.Buckets[i] = atomic.LoadInt64(&h.buckets[i])
		}
	} else {
		s.Sum, s.Max, s.Buckets = h.sum, h.max, h.buckets
	}
	for _, b := range s.Buckets {
		s.Count += b
	}
	return s
}

// Snapshot captures the histogram's current state.
func (h *H) Snapshot() Snapshot {
	s := h.load()
	s.P50, s.P90, s.P99 = s.percentile(50), s.percentile(90), s.percentile(99)
	return s
}

// Merge folds o into s, recomputing nothing: percentiles of a merged
// snapshot are derived from the combined buckets.
func (s *Snapshot) Merge(o Snapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
	for i := 0; i < NumBuckets; i++ {
		s.Buckets[i] += o.Buckets[i]
	}
	s.P50, s.P90, s.P99 = s.percentile(50), s.percentile(90), s.percentile(99)
}

// percentile recomputes a percentile from the snapshot's buckets.
func (s *Snapshot) percentile(p float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(float64(s.Count)*p/100 + 0.9999999)
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		cum += s.Buckets[i]
		if cum >= target {
			ub := bucketUpper(i)
			if ub > s.Max {
				ub = s.Max
			}
			return ub
		}
	}
	return s.Max
}
