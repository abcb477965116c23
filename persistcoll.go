package gompi

import (
	"gompi/internal/coll"
	"gompi/internal/match"
	"gompi/internal/nbc"
)

// Persistent collectives (MPI-4 MPI_BCAST_INIT / MPI_ALLREDUCE_INIT /
// MPI_ALLTOALL_INIT): the collective's schedule DAG is compiled exactly
// once, at Init — argument validation, algorithm selection, topology
// derivation, round construction, buffer seeding all happen there — and
// every Start replays the compiled rounds against the bound buffers.
// The replay allocates nothing: Reset rewinds cursors and re-runs the
// recorded prologue copies, the pending list keeps its capacity, and
// the device's pooled descriptors cover the per-round receives. Each
// Init draws one tag from the reserved persistent-collective range;
// Inits are collective calls made in the same order on every rank, so
// the replayed tags agree globally without negotiation.

// PersistentColl is an initialized, restartable collective operation.
// It satisfies the same Start contract as PersistentOp and
// PartitionedOp, so StartAll restarts mixed sets.
type PersistentColl struct {
	c      *Comm
	s      *nbc.Schedule
	tag    int
	active bool
}

// persistTag draws the operation's fixed schedule tag.
func (c *Comm) persistTag() int {
	return match.TagPersistCollBase + c.c.NextPersistSeq()%match.TagPersistCollSpan
}

// persistWrap finishes an Init: the compiled schedule becomes a
// restartable operation, with round tracing attached once here rather
// than per Start.
func (c *Comm) persistWrap(s *nbc.Schedule, tag int) *PersistentColl {
	c.p.rank.Metrics().NoteSchedCache(false) // the one compilation
	c.p.traceRounds(s)
	return &PersistentColl{c: c, s: s, tag: tag}
}

// Start restarts the collective (MPI_START). Every rank of the
// communicator must restart the same operation; the call only rewinds
// the schedule and kicks round 0's sends into flight — a schedule-cache
// hit by construction, with no compilation, no validation, and no
// allocation on the way down.
func (o *PersistentColl) Start() error {
	if o.active {
		return errc(ErrRequest, "persistent collective already active")
	}
	p := o.c.p
	p.chargeCall()
	unlock := p.chargeThread(o.c.c, false)
	m := p.rank.Metrics()
	m.NoteSchedCache(true)
	p.noteColl(o.s.Algo, o.s.Bytes)
	o.s.Reset(o.tag)
	o.active = true
	_, err := o.s.Test() // issue round 0 before returning
	unlock()
	if err != nil {
		o.active = false
		return errc(ErrOther, "%v", err)
	}
	return nil
}

// Wait drives the current activation to completion (MPI_WAIT), leaving
// the operation ready for the next Start.
func (o *PersistentColl) Wait() error {
	if !o.active {
		return errc(ErrRequest, "persistent collective not active")
	}
	err := o.s.Wait()
	o.active = false
	if err != nil {
		return errc(ErrOther, "%v", err)
	}
	return nil
}

// Test polls the current activation.
func (o *PersistentColl) Test() (bool, error) {
	if !o.active {
		return false, errc(ErrRequest, "persistent collective not active")
	}
	done, err := o.s.Test()
	if done {
		o.active = false
	}
	if err != nil {
		return done, errc(ErrOther, "%v", err)
	}
	return done, nil
}

// BcastInit binds a persistent broadcast (MPI_BCAST_INIT).
func (c *Comm) BcastInit(buf []byte, count int, dt *Datatype, root int) (*PersistentColl, error) {
	done, err := c.collEnter()
	if err != nil {
		return nil, err
	}
	defer done()
	f, err := c.collForce()
	if err != nil {
		return nil, err
	}
	n := count * dt.Size()
	t := c.nbcPort()
	tag := c.persistTag()
	s := new(nbc.Schedule)
	if err := nbc.Bcast(s, t, tag, buf[:n], root, nbc.SelectBcast(t, n, f)); err != nil {
		return nil, errc(ErrArg, "%v", err)
	}
	return c.persistWrap(s, tag), nil
}

// AllreduceInit binds a persistent allreduce (MPI_ALLREDUCE_INIT).
func (c *Comm) AllreduceInit(send, recv []byte, count int, elem *Datatype, op Op) (*PersistentColl, error) {
	done, err := c.collEnter()
	if err != nil {
		return nil, err
	}
	defer done()
	f, err := c.collForce()
	if err != nil {
		return nil, err
	}
	n := count * elem.Size()
	t := c.nbcPort()
	tag := c.persistTag()
	s := new(nbc.Schedule)
	nbc.Allreduce(s, t, tag, op, elem, send[:n], recv[:n],
		nbc.SelectAllreduce(t, count, elem.Size(), coll.Commutative(op), f))
	return c.persistWrap(s, tag), nil
}

// AlltoallInit binds a persistent all-to-all (MPI_ALLTOALL_INIT).
func (c *Comm) AlltoallInit(send, recv []byte, count int, dt *Datatype) (*PersistentColl, error) {
	done, err := c.collEnter()
	if err != nil {
		return nil, err
	}
	defer done()
	f, err := c.collForce()
	if err != nil {
		return nil, err
	}
	n := count * dt.Size()
	if len(send) < n*c.Size() || len(recv) < n*c.Size() {
		return nil, errc(ErrBuffer, "alltoall_init buffers short")
	}
	t := c.nbcPort()
	tag := c.persistTag()
	s := new(nbc.Schedule)
	if err := nbc.Alltoall(s, t, tag, send[:n*c.Size()], recv[:n*c.Size()],
		nbc.SelectAlltoall(t, n, f)); err != nil {
		return nil, errc(ErrArg, "%v", err)
	}
	return c.persistWrap(s, tag), nil
}
