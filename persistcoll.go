package gompi

import (
	"gompi/internal/match"
	"gompi/internal/nbc"
)

// Persistent collectives (MPI-4 MPI_BCAST_INIT / MPI_ALLREDUCE_INIT /
// MPI_ALLTOALL_INIT): the collective's schedule DAG is compiled exactly
// once, at Init — argument validation, algorithm selection, topology
// derivation, round construction, buffer seeding all happen there — and
// the operation owns it: every Start replays the compiled rounds against
// the bound buffers. The replay allocates nothing: Reset rewinds cursors
// and re-runs the recorded prologue copies, the pending list keeps its
// capacity, and the device's pooled descriptors cover the per-round
// receives. Each Init draws one tag from the reserved
// persistent-collective range; Inits are collective calls made in the
// same order on every rank, so the replayed tags agree globally without
// negotiation.

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

// pcoll is the frame of every persistent-collective Init: enter, draw the
// operation's tag, resolve the algorithm pin, then let compile validate
// the arguments and build the schedule the operation will own. The tag is
// drawn before anything can fail, as in the non-persistent calls, so the
// sequence advances in lockstep across ranks. This is the one compilation
// the schedule counters record as a miss; every Start is a hit.
func (c *Comm) pcoll(compile compileFn) (*PersistentColl, error) {
	done, err := c.collEnter()
	if err != nil {
		return nil, err
	}
	defer done()
	tag, s := c.persistTag(), new(nbc.Schedule)
	f, err := c.collForce()
	if err != nil {
		return nil, err
	}
	if err := compile(s, c.nbcPort(), tag, f); err != nil {
		return nil, argErr(err)
	}
	m := c.p.rank.Metrics()
	m.Add(&m.Sched.CacheMisses, 1)
	return &PersistentColl{c: c, s: s, tag: tag}, nil
}

// Start restarts the collective (MPI_START). Every rank of the
// communicator must restart the same operation; the call only rewinds
// the schedule and kicks round 0's sends into flight, with no
// compilation, no validation, and no allocation on the way down.
func (o *PersistentColl) Start() error {
	if o.active {
		return errc(ErrRequest, "persistent collective already active")
	}
	done := o.c.collBegin()
	defer done()
	m := o.c.p.rank.Metrics()
	m.Add(&m.Sched.CacheHits, 1)
	o.s.Reset(o.tag)
	if err := o.c.p.launch(o.s, false); err != nil {
		return errc(ErrOther, "%v", err)
	}
	o.active = true
	return nil
}

// Wait drives the current activation to completion (MPI_WAIT), leaving
// the operation ready for the next Start.
func (o *PersistentColl) Wait() error {
	if !o.active {
		return errc(ErrRequest, "persistent collective not active")
	}
	if o.c.p.observed() {
		defer o.c.p.span(TraceWait, -1, 0)()
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
	return c.pcoll(bcast(buf, count, dt, root))
}

// AllreduceInit binds a persistent allreduce (MPI_ALLREDUCE_INIT).
func (c *Comm) AllreduceInit(send, recv []byte, count int, elem *Datatype, op Op) (*PersistentColl, error) {
	return c.pcoll(allreduce(send, recv, count, elem, op))
}

// AlltoallInit binds a persistent all-to-all (MPI_ALLTOALL_INIT).
func (c *Comm) AlltoallInit(send, recv []byte, count int, dt *Datatype) (*PersistentColl, error) {
	return c.pcoll(alltoall(send, recv, count, dt))
}
