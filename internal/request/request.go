// Package request implements MPI request objects, the per-operation
// management the paper's Section 3.5 counts as a mandatory overhead. A
// request lives in the object that completes its operation, its Driver,
// and is recycled with it; requests complete at issue come from a
// per-rank Pool, the baseline's from a globally locked one (the CH3
// cost structure). Counter is the completion model of the proposed
// MPI_ISEND_NOREQ / MPI_COMM_WAITALL extension.
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

// Driver is the object that completes a request and takes it back,
// bound to it once (Bind). Poll (true once done) and Block run until
// the request completes, each marking it complete; Free calls Recycle.
type Driver interface {
	Poll(r *Request) bool
	Block(r *Request)
	Recycle(r *Request)
}

// Request tracks one outstanding operation. A request is owned by the
// rank that created it; its driver signals completion.
type Request struct {
	Kind     Kind
	Status   Status
	complete bool

	// Issued is the owning rank's virtual clock when the operation was
	// issued. The device stamps it at Isend/Irecv time and observes the
	// issue→completion latency into the rank's registry when the request
	// finishes. Zero when the device does not track request lifetime.
	Issued int64

	drv Driver // nil: complete at issue, never recycled
}

// Bind readies r for an operation of kind driven by d; Reset readies it
// for its next one, keeping both.
func (r *Request) Bind(kind Kind, d Driver) { *r = Request{Kind: kind, drv: d} }
func (r *Request) Reset()                   { r.Bind(r.Kind, r.drv) }

// Driver returns the object driving the request.
func (r *Request) Driver() Driver { return r.drv }

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
	if r.drv != nil && r.drv.Poll(r) {
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
	if r.drv != nil {
		r.drv.Block(r)
	}
	r.complete = true
}

// Free hands the request back to its driver for reuse. The request
// must not be used afterward.
func (r *Request) Free() {
	if r.drv != nil {
		r.drv.Recycle(r)
	}
}

// Freelist is a per-rank LIFO of recycled request holders: requests
// (Pool) or the objects a request lives in. The zero value is
// single-writer; one several goroutines of a rank use
// (MPI_THREAD_MULTIPLE) is marked with Share and takes a short mutex.
type Freelist[T any] struct {
	mu     sync.Mutex
	shared bool
	free   []*T
}

// Share marks the list as used by several goroutines, before the first
// Get.
func (f *Freelist[T]) Share() { f.shared = true }

// Get pops a recycled holder or returns nil, noting in m, when set,
// the request get and whether it reused one.
func (f *Freelist[T]) Get(m *metrics.Rank) *T {
	if f.shared {
		f.mu.Lock()
		defer f.mu.Unlock()
	}
	var x *T
	if n := len(f.free); n > 0 {
		x = f.free[n-1]
		f.free = f.free[:n-1]
	}
	if m != nil {
		m.Add(&m.Req.Allocs, 1)
		if x != nil {
			m.Add(&m.Req.Reuses, 1)
		}
	}
	return x
}

// Put pushes a holder back for reuse.
func (f *Freelist[T]) Put(x *T) {
	if f.shared {
		f.mu.Lock()
		defer f.mu.Unlock()
	}
	f.free = append(f.free, x)
}

// Pool hands out requests that are complete when issued, from its
// freelist, and is their Driver. Metrics, when set, counts the gets.
type Pool struct {
	Freelist[Request]
	Metrics *metrics.Rank
}

// Get returns a zeroed request.
func (p *Pool) Get(kind Kind) *Request {
	r := p.Freelist.Get(p.Metrics)
	if r == nil {
		r = new(Request)
	}
	r.Bind(kind, p)
	return r
}

// Poll, Block and Recycle make the pool the Driver of its requests:
// nothing is in flight, and Free puts a request back on the freelist.
func (p *Pool) Poll(*Request) bool { return false }
func (p *Pool) Block(*Request)     {}
func (p *Pool) Recycle(r *Request) { p.Put(r) }

// LockedPool is the baseline device's globally locked request
// allocator: the CH3-era structure whose atomics show up in the paper's
// MPI_PUT instruction count. It keeps no freelist; a request it hands
// out is never recycled.
type LockedPool struct {
	mu sync.Mutex
}

// GetFor allocates a request driven by d (nil: complete at issue) under
// the global lock, attributing the get to m (the lock is shared across
// ranks, so per-rank attribution must come from the caller).
func (p *LockedPool) GetFor(kind Kind, d Driver, m *metrics.Rank) *Request {
	p.mu.Lock()
	r := &Request{Kind: kind, drv: d}
	p.mu.Unlock()
	if m != nil {
		m.Add(&m.Req.Allocs, 1)
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
