package fabric

import "gompi/internal/metrics"

// Size-classed payload buffer pool. Every eager message that cannot
// complete immediately needs a stable copy of its payload while it sits
// on the unexpected queue; recycling those copies keeps the
// steady-state eager path allocation-free. The pool is per endpoint and
// guarded by the endpoint lock, so no atomics are paid beyond the lock
// the deposit already takes.

// poolClasses are the rounded-up buffer capacities kept, sized for the
// workloads the figures run: tiny latency-test payloads, cache-line
// packets, one page (bgq's eager limit), ofi's and ucx's eager limit
// (also the fragment a collective segments a long message into there),
// and 64 KiB for what is eager at any size: inf, which has no
// rendezvous, and shm messages below the handoff threshold. A class per
// power of two was tried: the benchmark's app_md, whose ghost messages
// vary in size, held less heap but ran 1.3 % slower (three pairs).
var poolClasses = [...]int{64, 512, 4096, 8192, 65536}

// The metrics package sizes its per-class hit/miss arrays to match.
var _ [metrics.NumPoolClasses]int64 = [len(poolClasses)]int64{}

// bufPool holds free buffers by class. Buffers are allocated at exactly
// the class capacity so put can recognize them by cap alone; anything
// larger than the top class is not pooled.
type bufPool struct {
	classes [len(poolClasses)][][]byte
}

// get returns a length-n buffer, recycled when a fit is free, counting
// the hit or miss on a (the arrival counters of the VCI whose lock
// guards the pool).
func (p *bufPool) get(n int, a *metrics.Arrivals) []byte {
	if n == 0 {
		return nil
	}
	for i, c := range poolClasses {
		if n <= c {
			s := p.classes[i]
			if len(s) == 0 {
				a.PoolMisses[i]++
				return make([]byte, n, c)
			}
			a.PoolHits[i]++
			b := s[len(s)-1]
			p.classes[i] = s[:len(s)-1]
			return b[:n]
		}
	}
	a.PoolOversize++
	return make([]byte, n)
}

// put recycles a buffer handed out by get. Oversized (unpooled) and
// foreign buffers are dropped for the GC.
func (p *bufPool) put(b []byte) {
	for i, c := range poolClasses {
		if cap(b) == c {
			p.classes[i] = append(p.classes[i], b[:0])
			return
		}
	}
}
