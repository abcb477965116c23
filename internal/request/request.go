// Package request implements MPI request objects and their allocation
// strategies. The paper's Section 3.5 identifies per-operation request
// management as a mandatory overhead of MPI-3.1 point-to-point
// semantics; this package provides both the request machinery (with a
// per-rank freelist for the lightweight device and a globally locked
// pool reproducing the baseline CH3 cost structure) and the counter
// completion model of the proposed MPI_ISEND_NOREQ / MPI_COMM_WAITALL
// extension.
package request

import (
	"sync"

	"gompi/internal/metrics"
)

// Kind says what operation a request tracks.
type Kind uint8

// Request kinds.
const (
	KindSend Kind = iota
	KindRecv
	KindRMA
	KindColl
)

// Status is the MPI_Status equivalent delivered at completion.
type Status struct {
	Source    int
	Tag       int
	Count     int  // received bytes
	Truncated bool // receive buffer was too small (MPI_ERR_TRUNCATE)
}

// Request tracks one outstanding operation. A request is owned by the
// rank that created it; the transport signals completion through the
// Poll/Block hooks installed by the device.
type Request struct {
	Kind     Kind
	Status   Status
	complete bool

	// Issued is the owning rank's virtual clock when the operation was
	// issued. The device stamps it at Isend/Irecv time and observes the
	// issue→completion latency into the rank's registry when the request
	// finishes. Zero when the device does not track request lifetime.
	Issued int64

	// Poll returns true once the underlying transport operation has
	// finished, filling Status via Finish. Nil for operations that
	// completed immediately.
	Poll func(r *Request) bool
	// Block waits for the underlying operation to finish. Nil for
	// immediately complete operations.
	Block func(r *Request)

	pool *Pool
}

// MarkComplete finalizes the request with the given status.
func (r *Request) MarkComplete(st Status) {
	r.Status = st
	r.complete = true
}

// Done polls the request.
func (r *Request) Done() bool {
	if r.complete {
		return true
	}
	if r.Poll != nil && r.Poll(r) {
		r.complete = true
		return true
	}
	return false
}

// Wait blocks until the request completes.
func (r *Request) Wait() {
	if r.complete {
		return
	}
	if r.Block != nil {
		r.Block(r)
	}
	r.complete = true
}

// Free recycles the request into its pool, if pooled. The request must
// not be used afterward.
func (r *Request) Free() {
	if r.pool != nil {
		r.pool.put(r)
	}
}

// Pool is a per-rank request freelist. The zero value is ready to use
// and single-writer: only the owning rank's goroutine gets and frees.
// A pool several goroutines of one rank use (MPI_THREAD_MULTIPLE) is
// marked with Share and guards the freelist with a short mutex; the
// requests handed out are owned by single goroutines either way.
type Pool struct {
	mu     sync.Mutex
	shared bool
	free   []*Request

	// Metrics, when set, counts gets and freelist reuses (the
	// request-recycling rate the paper's Section 3.5 is about).
	Metrics *metrics.Rank
}

// Share marks the pool as used by several goroutines, before the first
// Get.
func (p *Pool) Share() { p.shared = true }

// Get returns a zeroed request.
func (p *Pool) Get(kind Kind) *Request {
	if p.shared {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	var r *Request
	n := len(p.free)
	if n > 0 {
		r = p.free[n-1]
		p.free = p.free[:n-1]
		*r = Request{}
	} else {
		r = &Request{}
	}
	if p.Metrics != nil {
		p.Metrics.NoteReqAlloc(n > 0)
	}
	r.Kind = kind
	r.pool = p
	return r
}

func (p *Pool) put(r *Request) {
	r.Poll, r.Block = nil, nil
	if p.shared {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	p.free = append(p.free, r)
}

// LockedPool is the baseline device's globally locked request pool: the
// CH3-era structure whose atomics show up in the paper's MPI_PUT
// instruction count.
type LockedPool struct {
	mu   sync.Mutex
	pool Pool
}

// GetFor allocates under the global lock, attributing the get to m
// (the pool is shared across ranks, so per-rank attribution must come
// from the caller).
func (p *LockedPool) GetFor(kind Kind, m *metrics.Rank) *Request {
	p.mu.Lock()
	reused := len(p.pool.free) > 0
	r := p.pool.Get(kind)
	r.pool = nil // Free does not recycle into the locked pool
	p.mu.Unlock()
	if m != nil {
		m.NoteReqAlloc(reused)
	}
	return r
}

// Counter implements the bulk-completion model of Section 3.5: issued
// operations increment it, completions decrement it, and
// MPI_COMM_WAITALL waits for zero — roughly three instructions per
// operation instead of a request object. One Counter lives on each
// communicator, owned by the rank.
type Counter struct {
	pending int64
}

// Add notes an issued requestless operation that has not completed.
func (c *Counter) Add() { c.pending++ }

// Done notes a completion.
func (c *Counter) Done() {
	if c.pending == 0 {
		panic("request: counter completion underflow")
	}
	c.pending--
}

// Pending returns the number of incomplete requestless operations.
func (c *Counter) Pending() int64 { return c.pending }
