package nbc

// The schedule cache: compiled nonblocking-collective schedules keyed
// by everything that shaped the compilation, so a repeated collective
// with identical arguments replays the compiled round structure instead
// of rebuilding it. The paper's Section 4 charges MPI's per-call setup
// against the wire time; caching the schedule DAG removes exactly that
// setup from every call after the first.
//
// The cache is owned by the calling rank (collectives on one
// communicator are serialized per rank), so no locking is needed.

import (
	"reflect"
	"unsafe"
)

// CacheKind discriminates the collective family a cached schedule
// implements — two collectives with equal buffers but different shapes
// (say Ibcast and Iallreduce over the same slice) must never collide.
type CacheKind uint8

// Cached collective families.
const (
	CacheBarrier CacheKind = iota
	CacheBcast
	CacheReduce
	CacheAllreduce
	CacheAllgather
	CacheAlltoall
	CacheNeighborAllgather
	CacheNeighborAlltoall
)

// CacheKey identifies one compiled schedule. Buffer identity — base
// pointer and length — is part of the key: the compilers capture
// sub-slices of the caller's buffers inside the compiled steps, so a
// schedule is only replayable against the exact same memory. Value
// comparability (==) makes the key directly usable as a map key.
type CacheKey struct {
	Kind    CacheKind
	Algo    int     // resolved algorithm id (metrics.Coll*)
	Root    int     // rooted collectives; -1 otherwise
	Op      uint8   // reduction op; 0 otherwise
	Elem    uintptr // element datatype identity; 0 otherwise
	Send    uintptr // send buffer base (0 for in-place/absent)
	SendLen int
	Recv    uintptr // recv buffer base
	RecvLen int
	// Shape folds in any remaining shape the buffer identities miss —
	// the counts/displacements of ragged (v-variant) collectives.
	Shape uint64
}

// ShapeHash folds integer shape vectors (counts, displacements) into a
// CacheKey.Shape value with FNV-1a.
func ShapeHash(vecs ...[]int) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vecs {
		for _, x := range v {
			h ^= uint64(x)
			h *= 1099511628211
		}
		h ^= 0xff // separator so ([1],[2]) differs from ([1,2])
		h *= 1099511628211
	}
	return h
}

// BufKey derives the (base, len) identity of a buffer for CacheKey
// fields. A nil or empty buffer keys as (0, 0).
func BufKey(b []byte) (uintptr, int) {
	if len(b) == 0 {
		return 0, 0
	}
	return uintptr(unsafe.Pointer(unsafe.SliceData(b))), len(b)
}

// PtrKey derives an identity for a pointer-shaped key component (e.g.
// the element datatype) via reflection, avoiding unsafe on arbitrary
// types.
func PtrKey(v any) uintptr {
	if v == nil {
		return 0
	}
	return reflect.ValueOf(v).Pointer()
}

// CacheCap bounds the schedules one Cache retains. An application that
// calls I-collectives on freshly allocated buffers never repeats a key,
// so without a bound every call would strand one compiled schedule.
const CacheCap = 16

// Cache maps keys to compiled schedules, at most CacheCap of them,
// evicting in insertion order. The zero value is ready to use. One
// cache hangs off each public communicator, created lazily on the
// first cacheable collective.
type Cache struct {
	m      map[CacheKey]*Schedule
	order  []CacheKey // keys of m, oldest first
	hits   int64
	misses int64
}

// Get returns the cached schedule for key if one exists and is not
// currently running. A Running schedule cannot be replayed — the
// caller started the same collective twice with identical arguments
// before finishing the first — so the lookup deliberately misses and
// the caller compiles a fresh schedule for the overlapping call.
func (c *Cache) Get(key CacheKey) (*Schedule, bool) {
	s, ok := c.m[key]
	if ok && !s.Running() {
		c.hits++
		return s, true
	}
	c.misses++
	return nil, false
}

// Put stores a freshly compiled schedule under key, replacing any
// previous (necessarily running, per Get) occupant, and evicts the
// oldest entry when the cache is full. An evicted or replaced schedule
// that is still running simply leaves the map: its request keeps
// driving it, and nothing can Reset it any more.
func (c *Cache) Put(key CacheKey, s *Schedule) {
	if c.m == nil {
		c.m = make(map[CacheKey]*Schedule, CacheCap)
	}
	if _, ok := c.m[key]; !ok {
		if len(c.order) == CacheCap {
			delete(c.m, c.order[0])
			c.order = append(c.order[:0], c.order[1:]...)
		}
		c.order = append(c.order, key)
	}
	c.m[key] = s
}

// Len reports the number of schedules retained.
func (c *Cache) Len() int { return len(c.m) }

// Stats returns the lifetime hit/miss counts.
func (c *Cache) Stats() (hits, misses int64) { return c.hits, c.misses }
