package gompi

import (
	"gompi/internal/coll"
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
	var end func()
	if p.observed() {
		end = p.span(TraceColl, -1, 0)
	}
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

// Every collective is stated once, as a compileFn, and run in one of
// three frames. A definition checks its buffers and hands them, with
// the Force it is given, to the schedule compiler (internal/nbc), which
// picks the algorithm; it sees its arguments and the port, and knows
// nothing of how it will be waited on. The frames differ only in
// where the schedule lives and who chooses f: bcoll (blocking: the
// communicator's one reusable schedule, parked on until done; f is the
// pin at the call site), icoll (nonblocking: a recycled op behind a
// Request; f from collForce) and pcoll (persistent: a schedule the
// operation owns, compiled once; f from collForce).
//
// MPI forbids a rank from running two collectives on one communicator
// at once, and an outstanding I-collective lives in its own schedule, so
// one blocking schedule per communicator is enough; recompiling it in
// place allocates nothing once it has seen the largest shape.
//
// The pins below — binomial bcast, recursive-doubling allreduce
// (reduce+bcast off power-of-two sizes), ring allgather, pairwise
// alltoall — are the whole blocking policy, and deliberately ignore
// Config.CollAlgorithm and CollAlgorithmKey: the blocking entry points
// are what the paper-facing benchmarks count instructions on, and
// size/topology selection would change rank 0's message counts under
// them (ROADMAP item 6 records what unpinning costs). Unpinning one is
// replacing its pin by nbc.ForceAuto; what that would select is on the
// collective's I-form (icoll.go).
type compileFn func(s *nbc.Schedule, t *nbcPort, tag int, f nbc.Force) error

// bcoll is the frame of every blocking collective: enter, draw the tag,
// let compile validate the arguments and build the schedule in place in
// the communicator's blocking schedule under the call site's pin, then
// launch it and park until it finishes. The tag is drawn before anything
// can fail: a rank that rejects its arguments still advances the
// sequence with its peers.
func (c *Comm) bcoll(pin nbc.Force, compile compileFn) error {
	done, err := c.collEnter()
	if err != nil {
		return err
	}
	defer done()
	if err := compile(&c.bsched, c.nbcPort(), c.nbcTag(), pin); err != nil {
		return argErr(err)
	}
	return c.p.launch(&c.bsched, true)
}

// argErr classes what a frame's compile step returned: a definition's
// own argument checks come classed already, a schedule compiler's
// complaint (a root out of range) becomes an ErrArg.
func argErr(err error) error {
	if _, classed := err.(*Error); classed {
		return err
	}
	return errc(ErrArg, "%v", err)
}

// barrier defines MPI_BARRIER (dissemination; nothing to select).
func barrier(s *nbc.Schedule, t *nbcPort, tag int, _ nbc.Force) error {
	nbc.Barrier(s, t, tag)
	return nil
}

// bcast defines MPI_BCAST.
func bcast(buf []byte, count int, dt *Datatype, root int) compileFn {
	return func(s *nbc.Schedule, t *nbcPort, tag int, f nbc.Force) error {
		n, err := collBuf(count, dt, buf)
		if err != nil {
			return err
		}
		return nbc.Bcast(s, t, tag, buf[:n], root, f)
	}
}

// reduce defines MPI_REDUCE; recv is checked and consumed on the root only.
func reduce(send, recv []byte, count int, elem *Datatype, op Op, root int) compileFn {
	return func(s *nbc.Schedule, t *nbcPort, tag int, f nbc.Force) error {
		n, err := collBuf(count, elem, send)
		if err != nil {
			return err
		}
		var out []byte
		if t.Rank() == root {
			if _, err := collBuf(count, elem, recv); err != nil {
				return err
			}
			out = recv[:n]
		}
		return nbc.Reduce(s, t, tag, op, elem, send[:n], out, root, f)
	}
}

// allreduce defines MPI_ALLREDUCE.
func allreduce(send, recv []byte, count int, elem *Datatype, op Op) compileFn {
	return func(s *nbc.Schedule, t *nbcPort, tag int, f nbc.Force) error {
		n, err := collBuf(count, elem, send, recv)
		if err != nil {
			return err
		}
		nbc.Allreduce(s, t, tag, op, elem, send[:n], recv[:n], f)
		return nil
	}
}

// allgather defines MPI_ALLGATHER.
func allgather(send, recv []byte, count int, dt *Datatype) compileFn {
	return func(s *nbc.Schedule, t *nbcPort, tag int, f nbc.Force) error {
		n, err := collBuf(count, dt, send)
		if err == nil {
			_, err = collBuf(count*t.Size(), dt, recv)
		}
		if err != nil {
			return err
		}
		return nbc.Allgather(s, t, tag, send[:n], recv[:n*t.Size()], f)
	}
}

// alltoall defines MPI_ALLTOALL.
func alltoall(send, recv []byte, count int, dt *Datatype) compileFn {
	return func(s *nbc.Schedule, t *nbcPort, tag int, f nbc.Force) error {
		n, err := collBuf(count*t.Size(), dt, send, recv)
		if err != nil {
			return err
		}
		return nbc.Alltoall(s, t, tag, send[:n], recv[:n], f)
	}
}

// Barrier blocks until every rank of the communicator has entered
// (MPI_BARRIER).
func (c *Comm) Barrier() error { return c.bcoll(nbc.ForceAuto, barrier) }

// Bcast broadcasts root's buffer to all ranks (MPI_BCAST). buf must be
// count elements of dt on every rank; contiguous layouts only (derived
// types take the pack path in the devices; collectives here move raw
// bytes, as the machine-independent layer does).
func (c *Comm) Bcast(buf []byte, count int, dt *Datatype, root int) error {
	return c.bcoll(nbc.ForceBinomial, bcast(buf, count, dt, root))
}

// Reduce folds count elements of elem from every rank into recv on root
// (MPI_REDUCE). recv is ignored elsewhere.
func (c *Comm) Reduce(send, recv []byte, count int, elem *Datatype, op Op, root int) error {
	return c.bcoll(nbc.ForceAuto, reduce(send, recv, count, elem, op, root))
}

// Allreduce folds contributions and delivers the result everywhere
// (MPI_ALLREDUCE).
func (c *Comm) Allreduce(send, recv []byte, count int, elem *Datatype, op Op) error {
	return c.bcoll(nbc.ForceRDouble, allreduce(send, recv, count, elem, op))
}

// Gather concentrates equal-size blocks on root (MPI_GATHER).
func (c *Comm) Gather(send, recv []byte, count int, dt *Datatype, root int) error {
	return c.bcoll(nbc.ForceAuto, func(s *nbc.Schedule, t *nbcPort, tag int, _ nbc.Force) error {
		n, err := collBuf(count, dt, send)
		if err == nil && t.Rank() == root {
			_, err = collBuf(count*t.Size(), dt, recv)
		}
		if err != nil {
			return err
		}
		return nbc.Gather(s, t, tag, send[:n], recv, root)
	})
}

// Scatter distributes root's equal-size blocks (MPI_SCATTER).
func (c *Comm) Scatter(send, recv []byte, count int, dt *Datatype, root int) error {
	return c.bcoll(nbc.ForceAuto, func(s *nbc.Schedule, t *nbcPort, tag int, _ nbc.Force) error {
		n, err := collBuf(count, dt, recv)
		if err == nil && t.Rank() == root {
			_, err = collBuf(count*t.Size(), dt, send)
		}
		if err != nil {
			return err
		}
		return nbc.Scatter(s, t, tag, send, recv[:n], root)
	})
}

// Allgather concentrates equal-size blocks everywhere (MPI_ALLGATHER,
// ring algorithm).
func (c *Comm) Allgather(send, recv []byte, count int, dt *Datatype) error {
	return c.bcoll(nbc.ForceRing, allgather(send, recv, count, dt))
}

// Alltoall exchanges equal-size blocks pairwise (MPI_ALLTOALL).
func (c *Comm) Alltoall(send, recv []byte, count int, dt *Datatype) error {
	return c.bcoll(nbc.ForcePairwise, alltoall(send, recv, count, dt))
}

// ReduceScatterBlock reduces and scatters equal blocks
// (MPI_REDUCE_SCATTER_BLOCK).
func (c *Comm) ReduceScatterBlock(send, recv []byte, count int, elem *Datatype, op Op) error {
	return c.bcoll(nbc.ForceAuto, func(s *nbc.Schedule, t *nbcPort, tag int, _ nbc.Force) error {
		n, err := collBuf(count, elem, recv)
		if err == nil {
			_, err = collBuf(count*t.Size(), elem, send)
		}
		if err != nil {
			return err
		}
		return nbc.ReduceScatterBlock(s, t, tag, op, elem, send[:n*t.Size()], recv[:n])
	})
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
	n, err := collBuf(count, elem, inbuf, inoutbuf)
	if err != nil {
		return err
	}
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
