package gompi

// Persistent requests (MPI_SEND_INIT / MPI_RECV_INIT / MPI_START):
// applications with fixed communication patterns bind the arguments
// once and restart the operation every iteration. This amortizes the
// argument validation of Table 1's error-checking row — validation
// happens at Init, not per Start — which is the standard-conformant
// cousin of the paper's per-call overhead analysis.

import "gompi/internal/datatype"

// PersistentOp is an initialized, restartable operation.
type PersistentOp struct {
	c     *Comm
	send  bool
	buf   []byte
	count int
	dt    *Datatype
	peer  int
	tag   int

	// req is the activation's Request, owned by the operation so a
	// Start allocates none: an activation is in flight while req.r is
	// set, and completing it (Wait, or a Test that finds it done)
	// clears req.r. A receive on an ExactLength communicator arms
	// req's exact-length check once, at Init; every activation keeps it.
	req Request
}

// SendInit binds a persistent send (MPI_SEND_INIT). Arguments are
// validated once, here.
func (c *Comm) SendInit(buf []byte, count int, dt *Datatype, dest, tag int) (*PersistentOp, error) {
	if c.p.bc.ErrorChecking {
		if err := c.p.checkSendArgs(buf, count, dt, dest, tag, c, false); err != nil {
			return nil, err
		}
	}
	return &PersistentOp{c: c, send: true, buf: buf, count: count, dt: dt, peer: dest, tag: tag}, nil
}

// RecvInit binds a persistent receive (MPI_RECV_INIT). The
// communicator's hints are enforced as irecv enforces them: a wildcard
// it rules out is ErrHint here, and its exact-length assertion is
// checked at the completion of every activation.
func (c *Comm) RecvInit(buf []byte, count int, dt *Datatype, src, tag int) (*PersistentOp, error) {
	if c.p.bc.ErrorChecking {
		if err := c.p.checkSendArgs(buf, count, dt, src, tag, c, true); err != nil {
			return nil, err
		}
	}
	if err := checkHints(c.c, src, tag); err != nil {
		return nil, err
	}
	o := &PersistentOp{c: c, send: false, buf: buf, count: count, dt: dt, peer: src, tag: tag}
	if c.c.Hints.ExactLength && src != ProcNull {
		o.req.exact, o.req.exactLen = true, datatype.PackedSize(dt, count)
	}
	return o, nil
}

// Start restarts the operation (MPI_START). The previous activation
// must have completed (Wait returned). No argument validation runs: the
// MPI layer charges only the call and thread-check costs of the
// two-sided entry, descending straight into the device — which is why
// persistent operations are cheaper per iteration than fresh Isends on
// the default build.
func (o *PersistentOp) Start() error {
	if o.req.r != nil {
		return errc(ErrRequest, "persistent operation already active")
	}
	p := o.c.p
	kind, start := TraceRecv, p.dev.Irecv
	if o.send {
		kind, start = TraceSend, p.dev.Isend
	}
	defer o.c.p2pEnter(kind, o.peer, o.count, o.dt)()
	r, err := start(o.buf, o.count, o.dt, o.peer, o.tag, o.c.c, 0)
	o.req.r, o.req.p = r, p
	return devErr(ErrOther, err)
}

// Wait completes the current activation, leaving the operation ready
// for the next Start.
func (o *PersistentOp) Wait() (Status, error) {
	if o.req.r == nil {
		return Status{}, errc(ErrRequest, "persistent operation not active")
	}
	return o.req.Wait()
}

// Test polls the current activation.
func (o *PersistentOp) Test() (Status, bool, error) {
	if o.req.r == nil {
		return Status{}, false, errc(ErrRequest, "persistent operation not active")
	}
	return o.req.Test()
}

// StartAll restarts a set of persistent operations (MPI_STARTALL). It
// is generic over everything restartable — persistent point-to-point
// operations, persistent collectives, and partitioned operations all
// share the Start contract. The first error stops the sweep;
// already-started operations stay started, as in MPI.
func StartAll[T interface{ Start() error }](ops []T) error {
	for _, o := range ops {
		if err := o.Start(); err != nil {
			return err
		}
	}
	return nil
}
