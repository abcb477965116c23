package gompi

import (
	"gompi/internal/coll"
	"gompi/internal/metrics"
	"gompi/internal/nbc"
)

// Op is a predefined reduction operator.
type Op = coll.Op

// Predefined reduction operators.
const (
	OpSum     = coll.OpSum
	OpProd    = coll.OpProd
	OpMax     = coll.OpMax
	OpMin     = coll.OpMin
	OpLAnd    = coll.OpLAnd
	OpLOr     = coll.OpLOr
	OpBAnd    = coll.OpBAnd
	OpBOr     = coll.OpBOr
	OpReplace = coll.OpReplace
	OpNoOp    = coll.OpNoOp
)

// collBegin charges what every collective call pays whether or not it
// validates — the call frame and the thread check — and opens its
// TraceColl span. The returned func (deferred by the caller) both
// unlocks and records the traced interval; with tracing and profiling
// off it is the unlock itself, so entering a collective allocates
// nothing.
func (c *Comm) collBegin() func() {
	p := c.p
	end := p.span(TraceColl, -1, 0)
	p.chargeCall()
	done := p.chargeThread(c.c, false)
	if end == nil {
		return done
	}
	return func() {
		done()
		end()
	}
}

// collEnter is collBegin plus the communicator check: the entry of
// every collective that takes arguments (a persistent Start, which
// validated at Init, uses collBegin alone).
func (c *Comm) collEnter() (func(), error) {
	done := c.collBegin()
	if c.p.bc.ErrorChecking {
		if err := c.p.checkComm(c); err != nil {
			done()
			return nil, err
		}
	}
	return done, nil
}

// collBuf is the length check every collective entry point makes on
// the buffers it is about to slice: each of bufs must hold count
// elements of dt. It returns that byte length. The check is memory
// safety, not MPI error checking — without it a short buffer with spare
// capacity is silently written past its length — so it runs in every
// build and charges nothing. Call it after the tag is drawn: a rank that
// rejects its arguments must still advance the tag sequence with its
// peers.
func collBuf(count int, dt *Datatype, bufs ...[]byte) (int, error) {
	if dt == nil {
		return 0, errc(ErrType, "nil datatype")
	}
	if count < 0 {
		return 0, errc(ErrCount, "negative count %d", count)
	}
	n := count * dt.Size()
	for _, b := range bufs {
		if len(b) < n {
			return 0, errc(ErrBuffer, "buffer %d bytes < %d (%d x %s)", len(b), n, count, dt.Name())
		}
	}
	return n, nil
}

// Blocking collectives run on the same engine as the nonblocking and
// persistent ones: each entry point below compiles its algorithm into
// the communicator's one reusable schedule (internal/nbc) and waits on
// it. MPI forbids a rank from running two collectives on one
// communicator at once, and an outstanding I-collective lives in its
// own schedule, so one schedule per communicator is enough; recompiling
// it in place allocates nothing once it has seen the largest shape.
//
// The algorithm is a constant at each call site — dissemination
// barrier, binomial bcast, binomial reduce (chain when the operator is
// non-commutative), recursive-doubling allreduce on power-of-two sizes
// and reduce+bcast otherwise, linear gather/scatter, ring allgather,
// pairwise alltoall, chain scans — and deliberately ignores
// Config.CollAlgorithm and CollAlgorithmKey, which steer only the I-
// and persistent collectives: the blocking entry points are what the
// paper-facing benchmarks count instructions on, and size/topology
// selection would change rank 0's message counts under them. Switching
// one to nbc.Select* is a one-line change here.

// collWait finishes a blocking collective whose compilation into the
// communicator's schedule returned err: it launches the schedule and
// drives it to completion. Errors pass through unwrapped, so they keep
// the class they were raised with.
func (c *Comm) collWait(err error) error {
	if err != nil {
		return err
	}
	return c.p.launch(&c.bsched, true)
}

// Barrier blocks until every rank of the communicator has entered
// (MPI_BARRIER).
func (c *Comm) Barrier() error {
	done, err := c.collEnter()
	if err != nil {
		return err
	}
	defer done()
	nbc.Barrier(&c.bsched, c.nbcPort(), c.nbcTag())
	return c.collWait(nil)
}

// Bcast broadcasts root's buffer to all ranks (MPI_BCAST). buf must be
// count elements of dt on every rank; contiguous layouts only (derived
// types take the pack path in the devices; collectives here move raw
// bytes, as the machine-independent layer does).
func (c *Comm) Bcast(buf []byte, count int, dt *Datatype, root int) error {
	done, err := c.collEnter()
	if err != nil {
		return err
	}
	defer done()
	// The tag is drawn before any argument check can fail: a rank that
	// rejects its arguments still advances the sequence with its peers.
	tag := c.nbcTag()
	n, err := collBuf(count, dt, buf)
	if err != nil {
		return err
	}
	return c.collWait(nbc.Bcast(&c.bsched, c.nbcPort(), tag, buf[:n], root, metrics.CollBcastBinomial))
}

// Reduce folds count elements of elem from every rank into recv on root
// (MPI_REDUCE). recv is ignored elsewhere.
func (c *Comm) Reduce(send, recv []byte, count int, elem *Datatype, op Op, root int) error {
	done, err := c.collEnter()
	if err != nil {
		return err
	}
	defer done()
	tag := c.nbcTag()
	n, err := collBuf(count, elem, send)
	if err != nil {
		return err
	}
	var out []byte
	if c.Rank() == root {
		if _, err := collBuf(count, elem, recv); err != nil {
			return err
		}
		out = recv[:n]
	}
	return c.collWait(nbc.Reduce(&c.bsched, c.nbcPort(), tag, op, elem, send[:n], out, root, metrics.CollReduceBinomial))
}

// Allreduce folds contributions and delivers the result everywhere
// (MPI_ALLREDUCE).
func (c *Comm) Allreduce(send, recv []byte, count int, elem *Datatype, op Op) error {
	done, err := c.collEnter()
	if err != nil {
		return err
	}
	defer done()
	tag := c.nbcTag()
	n, err := collBuf(count, elem, send, recv)
	if err != nil {
		return err
	}
	nbc.Allreduce(&c.bsched, c.nbcPort(), tag, op, elem, send[:n], recv[:n], metrics.CollAllreduceRecDoubling)
	return c.collWait(nil)
}

// Gather concentrates equal-size blocks on root (MPI_GATHER).
func (c *Comm) Gather(send, recv []byte, count int, dt *Datatype, root int) error {
	done, err := c.collEnter()
	if err != nil {
		return err
	}
	defer done()
	tag := c.nbcTag()
	n, err := collBuf(count, dt, send)
	if err == nil && c.Rank() == root {
		_, err = collBuf(count*c.Size(), dt, recv)
	}
	if err != nil {
		return err
	}
	return c.collWait(nbc.Gather(&c.bsched, c.nbcPort(), tag, send[:n], recv, root))
}

// Scatter distributes root's equal-size blocks (MPI_SCATTER).
func (c *Comm) Scatter(send, recv []byte, count int, dt *Datatype, root int) error {
	done, err := c.collEnter()
	if err != nil {
		return err
	}
	defer done()
	tag := c.nbcTag()
	n, err := collBuf(count, dt, recv)
	if err == nil && c.Rank() == root {
		_, err = collBuf(count*c.Size(), dt, send)
	}
	if err != nil {
		return err
	}
	return c.collWait(nbc.Scatter(&c.bsched, c.nbcPort(), tag, send, recv[:n], root))
}

// Allgather concentrates equal-size blocks everywhere (MPI_ALLGATHER,
// ring algorithm).
func (c *Comm) Allgather(send, recv []byte, count int, dt *Datatype) error {
	done, err := c.collEnter()
	if err != nil {
		return err
	}
	defer done()
	tag := c.nbcTag()
	n, err := collBuf(count, dt, send)
	if err == nil {
		_, err = collBuf(count*c.Size(), dt, recv)
	}
	if err != nil {
		return err
	}
	return c.collWait(nbc.Allgather(&c.bsched, c.nbcPort(), tag, send[:n], recv, metrics.CollAllgatherRing))
}

// Alltoall exchanges equal-size blocks pairwise (MPI_ALLTOALL).
func (c *Comm) Alltoall(send, recv []byte, count int, dt *Datatype) error {
	done, err := c.collEnter()
	if err != nil {
		return err
	}
	defer done()
	tag := c.nbcTag()
	n, err := collBuf(count*c.Size(), dt, send, recv)
	if err != nil {
		return err
	}
	return c.collWait(nbc.Alltoall(&c.bsched, c.nbcPort(), tag, send[:n], recv[:n], metrics.CollAlltoallPairwise))
}

// ReduceScatterBlock reduces and scatters equal blocks
// (MPI_REDUCE_SCATTER_BLOCK).
func (c *Comm) ReduceScatterBlock(send, recv []byte, count int, elem *Datatype, op Op) error {
	done, err := c.collEnter()
	if err != nil {
		return err
	}
	defer done()
	tag := c.nbcTag()
	n, err := collBuf(count, elem, recv)
	if err == nil {
		_, err = collBuf(count*c.Size(), elem, send)
	}
	if err != nil {
		return err
	}
	return c.collWait(nbc.ReduceScatterBlock(&c.bsched, c.nbcPort(), tag, op, elem, send[:n*c.Size()], recv[:n]))
}

// OpCreate registers a user-defined reduction operator (MPI_OP_CREATE)
// usable in every reduction collective and in ReduceLocal. fn folds
// `in` into `inout` elementwise for count elements of elem; it must be
// associative. commute declares whether it is also commutative: a
// non-commutative operator makes every reduction collective fold
// contributions in strict rank order (the chain algorithms), exactly
// as MPI requires.
func OpCreate(fn func(in, inout []byte, count int, elem *Datatype) error, commute bool) Op {
	return coll.CreateOp(coll.UserFunc(fn), commute)
}

// OpCommutative reports whether op was declared commutative
// (MPI_OP_COMMUTATIVE). Predefined operators always are.
func OpCommutative(op Op) bool { return coll.Commutative(op) }

// ReduceLocal folds inbuf into inoutbuf with op (MPI_REDUCE_LOCAL): a
// purely local building block for user-level reduction trees.
func ReduceLocal(inbuf, inoutbuf []byte, count int, elem *Datatype, op Op) error {
	n := count * elem.Size()
	if err := coll.Apply(op, elem, inoutbuf[:n], inbuf[:n]); err != nil {
		return errc(ErrArg, "%v", err)
	}
	return nil
}

// AllreduceFloat64 is a typed convenience for the dominant application
// pattern: allreduce over float64 values. The wire bytes live in a
// per-communicator scratch buffer reduced in place, and the result is
// decoded back into vals, which is returned.
func (c *Comm) AllreduceFloat64(vals []float64, op Op) ([]float64, error) {
	c.f64 = Float64Bytes(vals, c.f64)
	if err := c.Allreduce(c.f64, c.f64, len(vals), Double, op); err != nil {
		return nil, err
	}
	return BytesFloat64(c.f64, vals), nil
}
