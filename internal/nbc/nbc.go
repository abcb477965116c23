// Package nbc is the collectives engine: every collective — blocking,
// nonblocking, persistent, neighborhood — compiles into a Schedule, a
// DAG of primitive steps (eager send, nonblocking recv, local reduce,
// local copy) organized in dependency rounds. A blocking call compiles
// and waits; an I-collective progresses its schedule incrementally off
// the request engine, so it returns immediately and genuinely overlaps
// with user computation; a persistent one replays it.
//
// The round structure encodes the DAG: every communication step of
// round k is issued as soon as round k-1 completes, every local step of
// round k runs once all of round k's receives have landed, and steps
// within a round are independent. Sends are eager (the transport copies
// the payload at injection and never blocks), so a schedule can never
// deadlock as long as its receive dependencies are acyclic — which each
// compiler here guarantees by construction. Payloads larger than the
// transport's eager limit are segmented into eager-sized fragments
// (same tag, FIFO-matched in order), so schedules never enter the
// rendezvous protocol.
//
// One tag isolates one schedule instance: the MPI layer allocates a
// fresh tag per collective call from a per-communicator sequence, so
// several collectives may be outstanding on one communicator at once,
// and a rank that runs ahead into round k+1 cannot confuse a peer still
// matching round k (same-tag traffic matches FIFO).
package nbc

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"

	"gompi/internal/coll"
	"gompi/internal/datatype"
)

// Pending is one outstanding nonblocking receive. Done must be
// non-blocking (pumping transport progress is allowed); Wait parks
// until the message lands. Both report the delivered byte count on
// completion, which the engine holds against the fragment it posted.
// After either reports completion the Pending is dead — the engine
// never calls into it again.
type Pending interface {
	Done() (n int, ok bool, err error)
	Wait() (n int, err error)
}

// Transport is what a schedule runs over: the eager matched send /
// nonblocking matched receive pair of the device's collective context,
// the zero-copy handoff pair, and the topology and protocol facts the
// compiler and the segmenter need. It is the whole contract: a
// transport without a capability answers for it (HandoffEager 0,
// SendNoCopy "not sent", RanksPerNodeBlock false, a LoadTopo miss)
// instead of leaving the method out.
type Transport interface {
	Rank() int
	Size() int
	// Send transmits data to dest with the given tag, eagerly: the
	// payload is captured at injection and the call never blocks.
	Send(data []byte, dest, tag int) error
	// Recv posts a nonblocking matched receive and returns its handle.
	Recv(buf []byte, src, tag int) (Pending, error)
	// Node maps a communicator rank to its node id (two-level
	// algorithms exchange through one leader per node).
	Node(rank int) int
	// SegLimit is the fragment limit toward peer in bytes (0 =
	// unsegmented): the eager/rendezvous threshold, or 0 for a peer
	// reachable without rendezvous (on-node shm with handoff enabled),
	// so large payloads stay whole and can ride the handoff path.
	// Senders and receivers derive the same cuts because it is
	// symmetric in the pair.
	SegLimit(peer int) int
	// RanksPerNodeBlock returns (rpn, true) when the rank→node mapping
	// is the contiguous block mapping node(r) = r/rpn, (0, false)
	// otherwise (irregular subcommunicators). The two-level compilers
	// then derive the node structure arithmetically in O(nodes + rpn)
	// instead of an O(size) scan with a per-call map — the difference
	// between a 10K-rank allreduce compiling in microseconds and
	// burning 100M map operations per call.
	RanksPerNodeBlock() (int, bool)
	// LoadTopo and StoreTopo memoize the derived node structure per
	// prefer-rank on a long-lived communicator, so repeated
	// collectives skip even the fast derivation. Values are opaque to
	// the transport.
	LoadTopo(prefer int) (any, bool)
	StoreTopo(prefer int, v any)
	// SendNoCopy lends data to dest over the zero-copy handoff path.
	// ok=false means the path does not apply (off-node peer, payload
	// under the threshold, handoff disabled) and nothing was sent —
	// the caller falls back to ordinary eager sends. On ok=true the
	// returned Pending completes when the receiver has released the
	// buffer; data must stay untouched until then, so schedules gate
	// the round on it like a receive. A nil Pending with ok=true means
	// the transport staged after all and the buffer is already free.
	SendNoCopy(data []byte, dest, tag int) (Pending, bool, error)
	// HandoffEager is the zero-copy threshold in bytes (0 = handoff
	// unavailable); the algorithm selection keys off it.
	HandoffEager() int
	// RecvReduce posts a receive that consumes its payload by folding
	// it into acc element-wise instead of copying. Over a zero-copy
	// handoff view the payload is reduced where the sender left it —
	// zero copies end to end. Compilers emit it only when HandoffEager
	// is nonzero.
	RecvReduce(acc []byte, op coll.Op, elem *datatype.Type, src, tag int) (Pending, error)
}

// stepKind enumerates the primitive operations a schedule is built of.
type stepKind uint8

// The first three are communication (issued when their round starts),
// the rest local (run when its receives have landed).
const (
	opSend stepKind = iota
	opRecv
	opRecvReduce // fold the incoming payload into a in place
	opReduce     // a = b OP a (coll.Apply operand order)
	opCopy       // copy(a, b)
	opZero       // clear(a); prologue only
)

// step is one primitive, packed so a parked rank's retained schedule
// stays small (56 bytes): a send moves a to peer; a recv lands in a and,
// when b is set, then folds it into b (b = a OP b) with the round's
// other local steps; recv-reduce folds the payload from peer into a in
// place; reduce and copy write a from b. The operator and element type
// of every fold are the schedule's. noCopy marks a send whose buffer
// may be lent over the zero-copy handoff path when the transport offers
// one.
type step struct {
	a, b   []byte
	peer   int32
	kind   stepKind
	noCopy bool
}

// pend is one outstanding completion of the current round. want is the
// byte count the fragment must deliver (every collective receive is
// exact-size by construction, so a short delivery means the ranks
// disagree on a count); -1 for completions that carry no payload.
type pend struct {
	p    Pending
	want int
}

// Schedule is one compiled collective instance. It is owned by the
// rank that built it; Test and Wait must be called from that rank's
// goroutine (they run local reduction steps and post receives).
//
// Storage is flat so a schedule can be recompiled in place without
// allocating: one step array with per-round end offsets (round k is
// steps[ends[k-1]:ends[k]]; its communication steps are issued together
// when the round starts, its local steps run in order once every
// receive of the round has landed), one prologue array, and one byte
// slab the compilers carve scratch vectors from. Begin truncates all of
// it keeping capacity.
type Schedule struct {
	// Algo is the metrics algorithm id the compiler settled on.
	Algo int
	// Bytes is the per-rank payload size, for metrics and tracing.
	Bytes int

	// OnRound, when set, fires at each round boundary on the owning
	// goroutine: (idx, true) as round idx's communication is issued,
	// (idx, false) as its local steps finish. The MPI layer hangs the
	// Chrome-trace round spans off it. Begin leaves it in place.
	OnRound func(idx int, start bool)

	t     Transport
	tag   int
	op    coll.Op        // what the fold steps apply; set by the
	elem  *datatype.Type // reduction compilers
	steps []step
	ends  []int32
	// prologue records the compile-time buffer initializations (the
	// seed copies compilers perform while building the rounds) so Reset
	// can re-run them: a persistent schedule replays from the caller's
	// current buffer contents instead of a stale snapshot.
	prologue []step
	slab     []byte
	slabNeed int // scratch bytes requested since Begin

	cur     int
	issued  bool
	pending []pend
	done    bool
	err     error
}

// Begin binds s to a new compilation, dropping whatever it held: the
// zero Schedule and a finished one are equally valid targets. Beginning
// over a schedule that has issued traffic it has not completed is a
// programming error (its in-flight receives would orphan).
func (s *Schedule) Begin(t Transport, tag, algo, bytes int) {
	s.t, s.Algo, s.Bytes = t, algo, bytes
	s.op, s.elem = 0, nil
	if s.steps == nil {
		// Room for a logarithmic collective at two steps a round, so
		// the usual first compilation does not grow step by step.
		r := bits.Len(uint(t.Size()))
		s.steps, s.ends = make([]step, 0, 2*r), make([]int32, 0, r)
	}
	// Cleared, not just truncated: stale steps would keep the previous
	// caller's buffers reachable.
	clear(s.steps)
	clear(s.prologue)
	s.steps, s.ends, s.prologue = s.steps[:0], s.ends[:0], s.prologue[:0]
	s.slab, s.slabNeed = s.slab[:0], 0
	s.Reset(tag)
}

// scratch carves an n-byte working vector from the slab. Its contents
// are unspecified (a reused slab is not re-zeroed). When the slab is
// full a larger one replaces it — vectors already handed out stay
// where the compiled steps point — sized so that the next compilation
// of the same shape fits whole and allocates nothing.
func (s *Schedule) scratch(n int) []byte {
	s.slabNeed += n
	if len(s.slab)+n > cap(s.slab) {
		s.slab = make([]byte, 0, max(2*cap(s.slab), s.slabNeed))
	}
	off := len(s.slab)
	s.slab = s.slab[:off+n]
	return s.slab[off : off+n : off+n]
}

// The step emitters append to the round under construction; endRound
// closes it. Within a round the order of communication steps is the
// issue order and the order of local steps (the fold of a recvFold
// included) is the execution order.
func (s *Schedule) emit(st step) {
	if len(s.steps) == cap(s.steps) {
		// By half, not double: a rank parked in a collective retains
		// this array, a thousand ranks a thousand of them.
		s.steps = slices.Grow(s.steps, max(4, len(s.steps)/2))
	}
	s.steps = append(s.steps, st)
}

func (s *Schedule) send(buf []byte, peer int) {
	s.emit(step{kind: opSend, a: buf, peer: int32(peer)})
}

// sendNoCopy marks a send eligible for the zero-copy handoff path: the
// buffer may be lent to the receiver for the rest of the round, so only
// use it for buffers the round does not mutate. Falls back to a plain
// send when the transport has no handoff or the payload is small, so
// compilers may mark on-node sends unconditionally.
func (s *Schedule) sendNoCopy(buf []byte, peer int) {
	s.emit(step{kind: opSend, a: buf, peer: int32(peer), noCopy: true})
}

func (s *Schedule) recv(buf []byte, peer int) {
	s.emit(step{kind: opRecv, a: buf, peer: int32(peer)})
}

// recvFold receives into tmp and, once the round's receives have
// landed, folds it into acc: acc = tmp OP acc.
func (s *Schedule) recvFold(tmp, acc []byte, peer int) {
	s.emit(step{kind: opRecv, a: tmp, b: acc, peer: int32(peer)})
}

// recvReduce folds the incoming payload from peer into acc in place
// (acc = incoming OP acc, arrival order). Emit only toward unsegmented
// peers — the payload must arrive as one message.
func (s *Schedule) recvReduce(acc []byte, peer int) {
	s.emit(step{kind: opRecvReduce, a: acc, peer: int32(peer)})
}

// reduce folds src into dst: dst = src OP dst.
func (s *Schedule) reduce(dst, src []byte) {
	s.emit(step{kind: opReduce, a: dst, b: src})
}

func (s *Schedule) copy(dst, src []byte) {
	s.emit(step{kind: opCopy, a: dst, b: src})
}

// endRound closes the dependency round under construction; a round
// with no steps is dropped.
func (s *Schedule) endRound() {
	if n := int32(len(s.steps)); n > s.roundStart(len(s.ends)) {
		s.ends = append(s.ends, n)
	}
}

// roundStart is the index of round k's first step.
func (s *Schedule) roundStart(k int) int32 {
	if k == 0 {
		return 0
	}
	return s.ends[k-1]
}

// init copies src into dst immediately (the compiler needs the seed in
// place while building later rounds) and records the copy in the
// schedule's prologue so Reset can re-run it before a replay.
func (s *Schedule) init(dst, src []byte) {
	copy(dst, src)
	s.prologue = append(s.prologue, step{kind: opCopy, a: dst, b: src})
}

// zero is init with an all-zero source.
func (s *Schedule) zero(dst []byte) {
	clear(dst)
	s.prologue = append(s.prologue, step{kind: opZero, a: dst})
}

// Reset rewinds a completed (or never-started) schedule for replay
// under the given tag: the compiled round structure — the expensive
// part — is kept verbatim, only the progress cursor is cleared. The
// pending slice keeps its capacity, so a replayed schedule issues with
// zero allocations once warm. Resetting a schedule in flight is a
// programming error, as for Begin; the persistent operation that owns
// the schedule refuses a second Start until the first has been waited.
func (s *Schedule) Reset(tag int) {
	s.tag = tag
	s.cur = 0
	s.issued = false
	s.done = false
	s.err = nil
	s.pending = s.pending[:0]
	// Re-seed working buffers from the caller's current payload: the
	// compilers' initialization copies ran once at compile time, and a
	// replay must not fold into stale accumulator contents.
	for _, st := range s.prologue {
		if st.kind == opZero {
			clear(st.a)
		} else {
			copy(st.a, st.b)
		}
	}
}

// fail latches the first error and finishes the schedule: a transport
// error is not recoverable mid-collective.
func (s *Schedule) fail(err error) error {
	if s.err == nil {
		s.err = err
	}
	s.done = true
	return s.err
}

// fragments calls f on each eager-sized cut of buf toward peer, in
// order: buf whole when it fits the limit, ceil(n/limit) cuts
// otherwise. It is the one segmenter both directions share.
func (s *Schedule) fragments(buf []byte, peer int, f func(frag []byte) error) error {
	lim := s.t.SegLimit(peer)
	if lim <= 0 || len(buf) <= lim {
		return f(buf)
	}
	for off := 0; off < len(buf); off += lim {
		if err := f(buf[off:min(off+lim, len(buf))]); err != nil {
			return err
		}
	}
	return nil
}

// issueSend injects one send step, segmenting above the eager limit. A
// noCopy step first offers the payload to the transport's zero-copy
// handoff; when accepted, the returned completion gates the round like
// a receive (the buffer is lent until the receiver releases it).
func (s *Schedule) issueSend(st *step) error {
	peer := int(st.peer)
	if st.noCopy {
		p, sent, err := s.t.SendNoCopy(st.a, peer, s.tag)
		if err != nil {
			return err
		}
		if sent {
			if p != nil {
				s.pending = append(s.pending, pend{p, -1})
			}
			return nil
		}
	}
	return s.fragments(st.a, peer, func(frag []byte) error {
		return s.t.Send(frag, peer, s.tag)
	})
}

// issueRecv posts one receive step, segmenting above the eager limit,
// and appends the resulting Pendings.
func (s *Schedule) issueRecv(st *step) error {
	peer := int(st.peer)
	return s.fragments(st.a, peer, func(frag []byte) error {
		p, err := s.t.Recv(frag, peer, s.tag)
		if err != nil {
			return err
		}
		s.pending = append(s.pending, pend{p, len(frag)})
		return nil
	})
}

// issueRecvReduce posts one in-place receive-reduce step. Compilers
// emit these only toward unsegmented peers (SegLimit 0), so the whole
// payload arrives as one message and folds once.
func (s *Schedule) issueRecvReduce(st *step) error {
	p, err := s.t.RecvReduce(st.a, s.op, s.elem, int(st.peer), s.tag)
	if err != nil {
		return err
	}
	s.pending = append(s.pending, pend{p, -1})
	return nil
}

// round returns the current round's steps.
func (s *Schedule) round() []step {
	return s.steps[s.roundStart(s.cur):s.ends[s.cur]]
}

// startRound issues the current round's communication: sends inject
// immediately (eager), receives post and become pending.
func (s *Schedule) startRound() error {
	if s.OnRound != nil {
		s.OnRound(s.cur, true)
	}
	r := s.round()
	for i := range r {
		st := &r[i]
		var err error
		switch st.kind {
		case opSend:
			err = s.issueSend(st)
		case opRecv:
			err = s.issueRecv(st)
		case opRecvReduce:
			err = s.issueRecvReduce(st)
		}
		if err != nil {
			return err
		}
	}
	s.issued = true
	return nil
}

// finishRound runs the current round's local steps and advances.
func (s *Schedule) finishRound() error {
	r := s.round()
	for i := range r {
		var err error
		switch st := &r[i]; st.kind {
		case opRecv:
			if st.b != nil {
				err = coll.Apply(s.op, s.elem, st.b, st.a)
			}
		case opReduce:
			err = coll.Apply(s.op, s.elem, st.a, st.b)
		case opCopy:
			copy(st.a, st.b)
		}
		if err != nil {
			return err
		}
	}
	if s.OnRound != nil {
		s.OnRound(s.cur, false)
	}
	s.cur++
	s.issued = false
	s.pending = s.pending[:0]
	return nil
}

// Test makes non-blocking progress: it issues any ready round, polls
// the outstanding receives, and runs local steps as rounds complete.
// It returns true once the whole schedule has finished (possibly with
// the schedule's first error).
func (s *Schedule) Test() (bool, error) { return s.progress(false) }

// Wait drives the schedule to completion, parking on each outstanding
// receive in turn. Deadlock-free: sends are eager and every compiler
// emits acyclic receive dependencies.
func (s *Schedule) Wait() error {
	_, err := s.progress(true)
	return err
}

// progress is the one driver behind Test and Wait: park says whether an
// unfinished receive is waited for or ends the call.
func (s *Schedule) progress(park bool) (bool, error) {
	for !s.done {
		if s.cur >= len(s.ends) {
			s.done = true
			break
		}
		if !s.issued {
			if err := s.startRound(); err != nil {
				return true, s.fail(err)
			}
		}
		for i := range s.pending {
			pd := &s.pending[i]
			if pd.p == nil {
				continue
			}
			n, ok, err := 0, true, error(nil)
			if park {
				n, err = pd.p.Wait()
			} else {
				n, ok, err = pd.p.Done()
			}
			if err != nil {
				return true, s.fail(err)
			}
			if !ok {
				// Yield before reporting "not yet": ranks are
				// goroutines, and a rank spinning Test on an
				// oversubscribed machine would otherwise starve the
				// peers whose sends it is waiting for.
				runtime.Gosched()
				return false, nil
			}
			pd.p = nil
			if pd.want >= 0 && n != pd.want {
				return true, s.fail(fmt.Errorf("nbc: fragment delivered %d bytes, expected %d", n, pd.want))
			}
		}
		if err := s.finishRound(); err != nil {
			return true, s.fail(err)
		}
	}
	return true, s.err
}
