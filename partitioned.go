package gompi

import (
	"sync"

	"gompi/internal/core"
	"gompi/internal/flight"
	"gompi/internal/match"
	"gompi/internal/request"
)

// Partitioned point-to-point communication (MPI-4 MPI_PSEND_INIT /
// MPI_PRECV_INIT / MPI_PREADY / MPI_PARRIVED): the application declares
// the full transfer shape once — a buffer divided into partitions — and
// then marks partitions ready from as many producer goroutines as it
// likes. The library aggregates consecutive partitions into chunks
// bounded by the shm-handoff threshold (falling back to the eager
// limit) and publishes each chunk the moment its last partition is
// ready. Chunk tags are drawn from a reserved range and differ per
// chunk; every chunk rides the virtual interface of the operation's
// communicator, so producers of operations on different communicators
// never share a lane lock. A partition larger than the threshold
// becomes its own chunk and rides the zero-copy handoff path on-node
// automatically.

// PartitionedOp is an initialized partitioned send or receive. Start,
// Wait, and Parrived belong to the owning rank; Pready and PreadyRange
// may be called concurrently from any number of producer goroutines.
type PartitionedOp struct {
	c          *Comm
	send       bool
	buf        []byte
	partitions int
	partBytes  int
	peer       int
	tag        int

	chunks  []partChunk
	toChunk []int // partition index -> chunk index

	// mu guards the activation state and serializes this operation's
	// device injections: producers of one operation contend only here,
	// never on a process-wide lock.
	mu       sync.Mutex
	started  bool
	ready    []bool // per partition (send side)
	readyCnt []int  // per chunk: partitions marked ready (send side)
	arrived  []bool // per chunk: completion observed (recv side)
	reqs     []*request.Request
	opErr    error
}

// partChunk is one wire transfer: partitions [lo,hi) occupying
// buf[off:off+n].
type partChunk struct {
	lo, hi int
	off, n int
}

// partChunkBound resolves the aggregation bound: the zero-copy handoff
// threshold when the device has one, else the eager limit, else a page.
func (c *Comm) partChunkBound() int {
	if h := c.nbcPort().HandoffEager(); h > 0 {
		return h
	}
	if c.p.eagerLimit > 0 {
		return c.p.eagerLimit
	}
	return 4096
}

// partitionChunks derives the deterministic chunking: greedy
// aggregation of consecutive partitions up to bound bytes, an
// oversized partition forming its own chunk. Sender and receiver run
// this from the same declared shape, so both sides agree on every
// chunk's byte range and tag without negotiation.
func partitionChunks(partitions, partBytes, bound int) []partChunk {
	chunks := make([]partChunk, 0, 4)
	lo := 0
	for lo < partitions {
		hi := lo + 1
		n := partBytes
		for hi < partitions && n+partBytes <= bound {
			n += partBytes
			hi++
		}
		chunks = append(chunks, partChunk{lo: lo, hi: hi, off: lo * partBytes, n: n})
		lo = hi
	}
	return chunks
}

// pinit validates and builds one side of a partitioned operation.
func (c *Comm) pinit(buf []byte, partitions, count int, dt *Datatype, peer, tag int, send bool) (*PartitionedOp, error) {
	if c.p.bc.ErrorChecking {
		if err := c.p.checkSendArgs(buf, partitions*count, dt, peer, tag, c, false); err != nil {
			return nil, err
		}
		if partitions < 1 {
			return nil, errc(ErrArg, "partitioned: %d partitions", partitions)
		}
		if tag >= match.TagPartMaxUserTag {
			return nil, errc(ErrTag, "partitioned: tag %d exceeds %d", tag, match.TagPartMaxUserTag-1)
		}
	}
	o := &PartitionedOp{
		c: c, send: send, buf: buf,
		partitions: partitions, partBytes: count * dt.Size(),
		peer: peer, tag: tag,
	}
	if send {
		// Readiness is tracked even against PROC_NULL: Pready must
		// still enforce the once-per-partition contract there.
		o.ready = make([]bool, partitions)
	}
	if peer != ProcNull {
		o.chunks = partitionChunks(partitions, o.partBytes, c.partChunkBound())
		if len(o.chunks) > match.TagPartMaxChunks {
			return nil, errc(ErrArg, "partitioned: %d chunks exceed the %d-tag window", len(o.chunks), match.TagPartMaxChunks)
		}
		o.toChunk = make([]int, partitions)
		for ci, ch := range o.chunks {
			for i := ch.lo; i < ch.hi; i++ {
				o.toChunk[i] = ci
			}
		}
		o.reqs = make([]*request.Request, len(o.chunks))
		if send {
			o.readyCnt = make([]int, len(o.chunks))
		} else {
			o.arrived = make([]bool, len(o.chunks))
		}
	}
	return o, nil
}

// PsendInit declares a partitioned send (MPI_PSEND_INIT): partitions
// partitions of count elements each, transferred to dest as each is
// marked ready. Arguments are validated once, here.
func (c *Comm) PsendInit(buf []byte, partitions, count int, dt *Datatype, dest, tag int) (*PartitionedOp, error) {
	return c.pinit(buf, partitions, count, dt, dest, tag, true)
}

// PrecvInit declares a partitioned receive (MPI_PRECV_INIT). The
// declared shape must match the sender's: same partition count, same
// per-partition size.
func (c *Comm) PrecvInit(buf []byte, partitions, count int, dt *Datatype, src, tag int) (*PartitionedOp, error) {
	return c.pinit(buf, partitions, count, dt, src, tag, false)
}

// chunkTag encodes chunk ci's matching tag in the reserved partitioned
// range on the collective context.
func (o *PartitionedOp) chunkTag(ci int) int {
	return match.TagPartBase + o.tag*match.TagPartMaxChunks + ci
}

// Start activates the operation (MPI_START). On the send side it only
// arms the readiness tracking — nothing moves until Pready. On the
// receive side every chunk receive is posted immediately, on the
// virtual interface of the communicator.
func (o *PartitionedOp) Start() error {
	p := o.c.p
	p.chargeCall()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.started {
		return errc(ErrRequest, "partitioned operation already active")
	}
	o.started = true
	o.opErr = nil
	if o.send {
		for i := range o.ready {
			o.ready[i] = false
		}
		for i := range o.readyCnt {
			o.readyCnt[i] = 0
		}
		return nil
	}
	cv := o.c.c.CollView()
	for ci, ch := range o.chunks {
		o.arrived[ci] = false
		r, err := p.dev.Irecv(o.buf[ch.off:ch.off+ch.n], ch.n, Byte, o.peer, o.chunkTag(ci), cv, core.FlagNoProcNull)
		if err != nil {
			o.opErr = errc(ErrOther, "%v", err)
			return o.opErr
		}
		o.reqs[ci] = r
	}
	return nil
}

// Pready marks one partition of an active partitioned send ready
// (MPI_PREADY). Safe to call from any goroutine: concurrent producers
// of one operation serialize on the operation's own mutex, and chunks
// of operations on different communicators ride different VCI lanes. The
// chunk containing the partition is injected the moment its last
// partition is readied.
func (o *PartitionedOp) Pready(i int) error {
	return o.PreadyRange(i, i+1)
}

// PreadyRange marks partitions [lo, hi) ready (MPI_PREADY_RANGE).
func (o *PartitionedOp) PreadyRange(lo, hi int) error {
	if !o.send {
		return errc(ErrRequest, "Pready on a partitioned receive")
	}
	if lo < 0 || hi > o.partitions || lo >= hi {
		return errc(ErrArg, "partitioned: ready range [%d,%d) outside [0,%d)", lo, hi, o.partitions)
	}
	p := o.c.p
	p.chargeCall()
	m := p.rank.Metrics()
	o.mu.Lock()
	if !o.started {
		o.mu.Unlock()
		return errc(ErrRequest, "partitioned operation not active")
	}
	cv := o.c.c.CollView()
	var err error
	for i := lo; i < hi; i++ {
		if o.ready[i] {
			o.mu.Unlock()
			return errc(ErrRequest, "partition %d already marked ready", i)
		}
		o.ready[i] = true
		if o.peer == ProcNull {
			continue
		}
		ci := o.toChunk[i]
		o.readyCnt[ci]++
		ch := o.chunks[ci]
		if o.readyCnt[ci] == ch.hi-ch.lo {
			r, e := p.dev.Isend(o.buf[ch.off:ch.off+ch.n], ch.n, Byte, o.peer, o.chunkTag(ci), cv, core.FlagNoProcNull)
			if e != nil {
				err = errc(ErrOther, "%v", e)
				if o.opErr == nil {
					o.opErr = err
				}
				break
			}
			o.reqs[ci] = r
		}
	}
	o.mu.Unlock()
	// Owner-goroutine-only observability (trace spans) is off limits
	// here; the flight ring and metrics are concurrency-safe.
	m.Add(&m.Sched.PartitionsReady, int64(hi-lo))
	m.Flight.Record(flight.Pready, int64(p.rank.Now()), o.peer, (hi-lo)*o.partBytes, -1)
	return err
}

// Parrived reports whether partition i of an active partitioned
// receive has landed (MPI_PARRIVED). Polling it pumps device progress,
// so a consumer loop over Parrived drains the fabric.
func (o *PartitionedOp) Parrived(i int) (bool, error) {
	if o.send {
		return false, errc(ErrRequest, "Parrived on a partitioned send")
	}
	if i < 0 || i >= o.partitions {
		return false, errc(ErrArg, "partitioned: partition %d outside [0,%d)", i, o.partitions)
	}
	p := o.c.p
	p.chargeCall()
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.started {
		return false, errc(ErrRequest, "partitioned operation not active")
	}
	if o.peer == ProcNull {
		return true, nil
	}
	ci := o.toChunk[i]
	if o.arrived[ci] {
		return true, nil
	}
	r := o.reqs[ci]
	if r == nil || !r.Done() {
		pollMiss()
		return false, nil
	}
	o.arrived[ci] = true
	ch := o.chunks[ci]
	m := p.rank.Metrics()
	m.Flight.Record(flight.Parrived, int64(p.rank.Now()), o.peer, ch.n, -1)
	return true, nil
}

// Wait completes the current activation (MPI_WAIT on the partitioned
// request): the send side drains every chunk injection — erroring if
// some partitions were never marked ready, which in MPI would be a
// silent deadlock — and the receive side blocks until every chunk has
// landed. The operation is then ready for the next Start.
func (o *PartitionedOp) Wait() error {
	p := o.c.p
	p.chargeCall()
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.started {
		return errc(ErrRequest, "partitioned operation not active")
	}
	if o.send {
		for i, rdy := range o.ready {
			if !rdy && o.peer != ProcNull {
				return errc(ErrRequest, "partitioned wait: partition %d never marked ready", i)
			}
		}
	}
	m := p.rank.Metrics()
	for ci, r := range o.reqs {
		if r == nil {
			continue
		}
		r.Wait()
		trunc := r.Status.Truncated
		r.Free()
		o.reqs[ci] = nil
		if !o.send && !o.arrived[ci] {
			o.arrived[ci] = true
			m.Flight.Record(flight.Parrived, int64(p.rank.Now()), o.peer, o.chunks[ci].n, -1)
		}
		if trunc && o.opErr == nil {
			o.opErr = errc(ErrTruncate, "partitioned chunk %d truncated", ci)
		}
	}
	o.started = false
	err := o.opErr
	o.opErr = nil
	return err
}

// Partitions returns the declared partition count.
func (o *PartitionedOp) Partitions() int { return o.partitions }

// Chunks returns how many wire transfers the declared shape aggregates
// into — diagnostic, so benchmarks can report the aggregation factor.
func (o *PartitionedOp) Chunks() int { return len(o.chunks) }
