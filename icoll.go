package gompi

import (
	"gompi/internal/coll"
	"gompi/internal/comm"
	"gompi/internal/core"
	"gompi/internal/match"
	"gompi/internal/nbc"
	"gompi/internal/request"
	"gompi/internal/trace"
	"gompi/internal/vtime"
)

// CollAlgorithmKey is the communicator info key that pins collective
// algorithm selection (MPI_COMM_SET_INFO): values are the algorithm
// family names of Config.CollAlgorithm ("auto", "flat", "two-level",
// "binomial", "scatter-allgather", "rdouble", "rsag", "reduce-bcast",
// "chain", "ring", "bruck", "pairwise", "posted"). The info key takes
// precedence over Config.CollAlgorithm.
const CollAlgorithmKey = comm.HintCollAlgorithm

// Every non-persistent collective call — blocking or nonblocking —
// draws a fresh tag from one per-communicator sequence on the
// collective context, so several schedules can be outstanding on one
// communicator without their traffic cross-matching (same-tag traffic
// of one schedule matches in FIFO order, which is exactly what fragment
// reassembly needs). The range is carved out in internal/match
// alongside the partitioned and persistent-collective tag spaces.
const (
	nbcTagBase = match.TagNBCBase
	nbcTagSpan = match.TagNBCSpan
)

// nbcPending adapts a device receive request to the schedule engine.
type nbcPending struct {
	r *request.Request
}

func (pd nbcPending) settle() (int, error) {
	n, trunc := pd.r.Status.Count, pd.r.Status.Truncated
	pd.r.Free()
	if trunc {
		return n, errc(ErrTruncate, "collective fragment truncated")
	}
	return n, nil
}

// Done implements nbc.Pending: a poll that pumps device progress.
func (pd nbcPending) Done() (int, bool, error) {
	if !pd.r.Done() {
		return 0, false, nil
	}
	n, err := pd.settle()
	return n, true, err
}

// Wait implements nbc.Pending: park until the fragment lands.
func (pd nbcPending) Wait() (int, error) {
	pd.r.Wait()
	return pd.settle()
}

// nbcPort adapts the device to the schedule engine: eager requestless
// sends and nonblocking matched receives on the communicator's
// collective context, plus the topology and protocol facts selection
// and segmentation need.
type nbcPort struct {
	p  *Proc
	cv *comm.Comm
}

// Rank implements nbc.Transport.
func (np nbcPort) Rank() int { return np.cv.MyRank }

// Size implements nbc.Transport.
func (np nbcPort) Size() int { return np.cv.Size() }

// Send implements nbc.Transport with a requestless eager send: the
// payload is captured at injection and the call never blocks, which is
// what makes schedule rounds deadlock-free.
func (np nbcPort) Send(data []byte, dest, tag int) error {
	_, err := np.p.dev.Isend(data, len(data), Byte, dest, tag, np.cv, core.FlagNoReq|core.FlagNoProcNull)
	return err
}

// Recv implements nbc.Transport with a nonblocking matched receive.
func (np nbcPort) Recv(buf []byte, src, tag int) (nbc.Pending, error) {
	r, err := np.p.dev.Irecv(buf, len(buf), Byte, src, tag, np.cv, core.FlagNoProcNull)
	if err != nil {
		return nil, err
	}
	return nbcPending{r: r}, nil
}

// Node implements nbc.Transport: communicator rank to node id, through
// the world mapping.
func (np nbcPort) Node(rank int) int {
	w, err := np.cv.WorldRank(rank)
	if err != nil {
		return 0
	}
	return np.p.rank.World().Node(w)
}

// RanksPerNodeBlock implements nbc.Transport: identity-table
// communicators inherit the world's contiguous block mapping
// node(r) = r/rpn, so two-level compilers can derive the node
// structure arithmetically instead of scanning all ranks.
func (np nbcPort) RanksPerNodeBlock() (int, bool) {
	if np.cv.Table.Kind() == comm.TableIdentity {
		return np.p.rank.World().RanksPerNode(), true
	}
	return 0, false
}

// LoadTopo / StoreTopo implement nbc.Transport on the communicator, so
// repeated collectives reuse the derived node structure.
func (np nbcPort) LoadTopo(key int) (any, bool) { return np.cv.LoadTopo(key) }
func (np nbcPort) StoreTopo(key int, v any)     { np.cv.StoreTopo(key, v) }

// HandoffEager implements nbc.Transport: the device's shm
// staged/handoff threshold, 0 when it has no zero-copy path.
func (np nbcPort) HandoffEager() int { return np.p.dev.ShmHandoffMax() }

// SendNoCopy implements nbc.Transport: lend data over the shm handoff
// path when the geometry applies (on-node peer, payload above the
// threshold). ok=false sends nothing and the schedule sends eagerly.
func (np nbcPort) SendNoCopy(data []byte, dest, tag int) (nbc.Pending, bool, error) {
	r, sent, err := np.p.dev.IsendNoCopy(data, dest, tag, np.cv)
	if err != nil || !sent {
		return nil, false, err
	}
	return nbcPending{r: r}, true, nil
}

// RecvReduce implements nbc.Transport: post a receive that folds the
// incoming payload into acc in place, reading the sender's lent view
// directly — zero copies.
func (np nbcPort) RecvReduce(acc []byte, op coll.Op, elem *Datatype, src, tag int) (nbc.Pending, error) {
	r, err := np.p.dev.IrecvReduce(acc, src, tag, np.cv, func(dst, incoming []byte) {
		coll.Apply(op, elem, dst, incoming)
	})
	if err != nil {
		return nil, err
	}
	return nbcPending{r: r}, nil
}

// SegLimit implements nbc.Transport: on-node peers of a
// handoff-capable device are unsegmented (shm has no rendezvous to
// avoid, and whole payloads are what the handoff path lends); anything
// else keeps the flat eager limit, the resolved fabric threshold, so
// schedules segment rather than rendezvous. Symmetric in the pair, so
// senders and receivers derive identical fragment cuts.
func (np nbcPort) SegLimit(peer int) int {
	if np.HandoffEager() > 0 && np.Node(peer) == np.Node(np.cv.MyRank) {
		return 0
	}
	return np.p.eagerLimit
}

// nbcPort returns the communicator's transport adapter. It is stored in
// the communicator and handed out by pointer, so converting it to
// nbc.Transport does not allocate per call.
func (c *Comm) nbcPort() *nbcPort {
	if c.port.p == nil {
		c.port = nbcPort{p: c.p, cv: c.c.CollView()}
	}
	return &c.port
}

// nbcTag draws the next schedule tag from the communicator's sequence.
func (c *Comm) nbcTag() int { return nbcTagBase + c.c.NextNBCSeq()%nbcTagSpan }

// collForce resolves the pinned algorithm family for this
// communicator: the gompi_coll_algorithm info key wins over
// Config.CollAlgorithm; empty means automatic selection.
func (c *Comm) collForce() (nbc.Force, error) {
	raw := c.c.CollAlgo
	if raw == "" {
		raw = c.p.collAlgo
	}
	f, err := nbc.ParseForce(raw)
	if err != nil {
		return nbc.ForceAuto, errc(ErrArg, "%v", err)
	}
	return f, nil
}

// traceRounds hangs the per-round KindSched trace spans off s when
// tracing is on; with tracing off no closure is ever built. The hook
// reads s.Bytes when it fires, so it survives s being recompiled.
func (p *Proc) traceRounds(s *nbc.Schedule) {
	if s.OnRound != nil || !p.tlog.Enabled() {
		return
	}
	var roundStart vtime.Time
	s.OnRound = func(idx int, start bool) {
		if start {
			roundStart = p.rank.Now()
			return
		}
		p.tlog.Record(trace.Event{
			Kind: trace.KindSched, Peer: idx, Bytes: s.Bytes, VCI: -1,
			Start: roundStart, End: p.rank.Now(),
		})
	}
}

// collOp is one in-flight nonblocking collective: its schedule and the
// internal request the public Request wraps, which the op drives
// (request.Driver). Ops are recycled through the communicator's
// freelist when their request is freed, so a steady-state I-collective
// allocates only its public Request's slot of a slab (newRequest), and
// the communicator retains as many ops as it ever had I-collectives
// outstanding at once.
type collOp struct {
	c   *Comm
	s   nbc.Schedule
	r   request.Request
	err error // the schedule's error, for Request.finish
}

// getOp pops a recycled op or builds one.
func (c *Comm) getOp() *collOp {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	if n := len(c.opFree); n > 0 {
		op := c.opFree[n-1]
		c.opFree = c.opFree[:n-1]
		return op
	}
	return &collOp{c: c}
}

// Poll, Block and Recycle make the op its request's driver
// (request.Driver): Poll runs one pass of the schedule, Block drives it
// to its end, and Recycle hands the op back for the next I-collective.
// Only a completed request is freed, so an op on the freelist is never
// running; one that failed may still have receives posted into its
// buffers and is left to the collector instead.
func (op *collOp) Poll(rq *request.Request) bool {
	done, err := op.s.Test()
	if done {
		op.err = err
		rq.MarkComplete(request.Status{})
	}
	return done
}

func (op *collOp) Block(rq *request.Request) {
	op.err = op.s.Wait()
	rq.MarkComplete(request.Status{})
}

func (op *collOp) Recycle(*request.Request) {
	if op.err != nil {
		return
	}
	op.c.opMu.Lock()
	op.c.opFree = append(op.c.opFree, op)
	op.c.opMu.Unlock()
}

// launch starts a compiled schedule, the step every kind of collective
// shares: record the algorithm, hang the round trace, then drive. A
// blocking collective parks until the schedule finishes; the others
// issue round 0 before the call returns, so peers make progress even if
// this rank computes for a long time before waiting.
func (p *Proc) launch(s *nbc.Schedule, park bool) error {
	p.noteColl(s.Algo, s.Bytes)
	p.traceRounds(s)
	if park {
		return s.Wait()
	}
	_, err := s.Test()
	return err
}

// istart makes a compiled op the public Request of a nonblocking
// collective, progressed off the request engine: Test polls the schedule
// (issuing rounds and running local reduction steps as receives land),
// Wait drives it to completion parking on the transport.
func (c *Comm) istart(op *collOp) *Request {
	op.r.Bind(request.KindColl, op)
	// The outcome stays latched in the schedule; the request's first
	// poll collects it.
	_ = c.p.launch(&op.s, false)
	req := c.p.newRequest()
	*req = Request{r: &op.r, p: c.p}
	return req
}

// icoll is the frame of every nonblocking collective: enter, draw the
// tag, resolve the algorithm pin, then let compile validate the
// arguments and build the schedule in a recycled op, and launch it. The
// tag is drawn before anything can fail: a rank that rejects its
// arguments still advances the sequence with its peers.
func (c *Comm) icoll(compile compileFn) (*Request, error) {
	done, err := c.collEnter()
	if err != nil {
		return nil, err
	}
	defer done()
	tag := c.nbcTag()
	f, err := c.collForce()
	if err != nil {
		return nil, err
	}
	op := c.getOp()
	if err := compile(&op.s, c.nbcPort(), tag, f); err != nil {
		op.Recycle(nil)
		return nil, argErr(err)
	}
	return c.istart(op), nil
}

// Ibarrier starts a nonblocking barrier (MPI_IBARRIER): the returned
// request completes once every rank of the communicator has entered.
func (c *Comm) Ibarrier() (*Request, error) { return c.icoll(barrier) }

// Ibcast starts a nonblocking broadcast (MPI_IBCAST). Algorithm
// selection is size- and topology-based: two-level on hierarchical
// layouts, binomial tree for short messages, scatter+ring-allgather
// for long ones; pin it with CollAlgorithmKey or Config.CollAlgorithm.
func (c *Comm) Ibcast(buf []byte, count int, dt *Datatype, root int) (*Request, error) {
	return c.icoll(bcast(buf, count, dt, root))
}

// Ireduce starts a nonblocking reduction to root (MPI_IREDUCE). recv
// is consumed only on the root. Non-commutative operators fold in
// strict rank order (the chain algorithm).
func (c *Comm) Ireduce(send, recv []byte, count int, elem *Datatype, op Op, root int) (*Request, error) {
	return c.icoll(reduce(send, recv, count, elem, op, root))
}

// Iallreduce starts a nonblocking allreduce (MPI_IALLREDUCE).
// Selection: two-level on hierarchical layouts, recursive doubling for
// short messages on power-of-two worlds, Rabenseifner reduce-scatter +
// allgather for long ones, reduce+bcast otherwise; non-commutative
// operators always take the rank-ordered chain composition.
func (c *Comm) Iallreduce(send, recv []byte, count int, elem *Datatype, op Op) (*Request, error) {
	return c.icoll(allreduce(send, recv, count, elem, op))
}

// Iallgather starts a nonblocking allgather (MPI_IALLGATHER): Bruck
// for short blocks, ring for long ones.
func (c *Comm) Iallgather(send, recv []byte, count int, dt *Datatype) (*Request, error) {
	return c.icoll(allgather(send, recv, count, dt))
}

// Ialltoall starts a nonblocking all-to-all exchange (MPI_IALLTOALL):
// all sends and receives posted in one round for small blocks on small
// worlds, pairwise exchange rounds otherwise.
func (c *Comm) Ialltoall(send, recv []byte, count int, dt *Datatype) (*Request, error) {
	return c.icoll(alltoall(send, recv, count, dt))
}
