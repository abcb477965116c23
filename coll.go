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

// collEnter charges the MPI-layer costs every collective entry pays.
// The returned func (deferred by the collective) both unlocks and
// records the traced interval; with tracing and profiling off it is the
// unlock itself, so entering a collective allocates nothing.
func (c *Comm) collEnter() (func(), error) {
	p := c.p
	end := p.span(TraceColl, -1, 0)
	p.chargeCall()
	done := p.chargeThread(c.c, false)
	if end != nil {
		unlock := done
		done = func() {
			unlock()
			end()
		}
	}
	if p.bc.ErrorChecking {
		if err := p.checkComm(c); err != nil {
			done()
			return nil, err
		}
	}
	return done, nil
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
// communicator's schedule returned err: it records the algorithm and
// drives the schedule to completion. Errors pass through unwrapped, so
// they keep the class they were raised with.
func (c *Comm) collWait(err error) error {
	if err != nil {
		return err
	}
	s := &c.bsched
	c.p.noteColl(s.Algo, s.Bytes)
	c.p.traceRounds(s)
	return s.Wait()
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
	n := count * dt.Size()
	return c.collWait(nbc.Bcast(&c.bsched, c.nbcPort(), c.nbcTag(), buf[:n], root, metrics.CollBcastBinomial))
}

// Reduce folds count elements of elem from every rank into recv on root
// (MPI_REDUCE). recv is ignored elsewhere.
func (c *Comm) Reduce(send, recv []byte, count int, elem *Datatype, op Op, root int) error {
	done, err := c.collEnter()
	if err != nil {
		return err
	}
	defer done()
	n := count * elem.Size()
	var out []byte
	if c.Rank() == root {
		out = recv[:n]
	}
	return c.collWait(nbc.Reduce(&c.bsched, c.nbcPort(), c.nbcTag(), op, elem, send[:n], out, root, metrics.CollReduceBinomial))
}

// Allreduce folds contributions and delivers the result everywhere
// (MPI_ALLREDUCE).
func (c *Comm) Allreduce(send, recv []byte, count int, elem *Datatype, op Op) error {
	done, err := c.collEnter()
	if err != nil {
		return err
	}
	defer done()
	n := count * elem.Size()
	nbc.Allreduce(&c.bsched, c.nbcPort(), c.nbcTag(), op, elem, send[:n], recv[:n], metrics.CollAllreduceRecDoubling)
	return c.collWait(nil)
}

// Gather concentrates equal-size blocks on root (MPI_GATHER).
func (c *Comm) Gather(send, recv []byte, count int, dt *Datatype, root int) error {
	done, err := c.collEnter()
	if err != nil {
		return err
	}
	defer done()
	// The tag is drawn before any argument check can fail: a rank that
	// rejects its arguments still advances the sequence with its peers.
	tag := c.nbcTag()
	n := count * dt.Size()
	if c.Rank() == root && len(recv) < n*c.Size() {
		return errc(ErrBuffer, "gather recv buffer %d < %d", len(recv), n*c.Size())
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
	n := count * dt.Size()
	if c.Rank() == root && len(send) < n*c.Size() {
		return errc(ErrBuffer, "scatter send buffer %d < %d", len(send), n*c.Size())
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
	n := count * dt.Size()
	if len(recv) < n*c.Size() {
		return errc(ErrBuffer, "allgather recv buffer %d < %d", len(recv), n*c.Size())
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
	n := count * dt.Size() * c.Size()
	if len(send) < n || len(recv) < n {
		return errc(ErrBuffer, "alltoall buffers short")
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
	n := count * elem.Size()
	if len(send) < n*c.Size() || len(recv) < n {
		return errc(ErrBuffer, "reduce_scatter buffers short")
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
