package gompi

import (
	"runtime"

	"gompi/internal/core"
	"gompi/internal/datatype"
	"gompi/internal/flight"
	"gompi/internal/request"
	"gompi/internal/vtime"
)

// traceBytes sizes a traced payload without assuming the (not yet
// validated) datatype is non-nil.
func traceBytes(count int, dt *Datatype) int {
	if dt == nil || count < 0 {
		return 0
	}
	return count * dt.Size()
}

// Special rank and tag values.
const (
	// ProcNull is MPI_PROC_NULL: communication addressed to it is
	// discarded.
	ProcNull = core.ProcNull
	// AnySource is the MPI_ANY_SOURCE receive wildcard.
	AnySource = core.AnySource
	// AnyTag is the MPI_ANY_TAG receive wildcard.
	AnyTag = core.AnyTag
)

// Status reports a completed operation's envelope (MPI_Status).
type Status struct {
	Source int
	Tag    int
	Count  int // bytes delivered
}

// GetCount returns the number of dt elements the operation delivered
// (MPI_GET_COUNT): UndefinedIndex when the byte count is not a whole
// number of elements.
func (st Status) GetCount(dt *Datatype) int {
	if dt == nil || dt.Size() == 0 {
		if st.Count == 0 {
			return 0
		}
		return UndefinedIndex
	}
	if st.Count%dt.Size() != 0 {
		return UndefinedIndex
	}
	return st.Count / dt.Size()
}

// Request tracks a nonblocking operation (MPI_Request).
type Request struct {
	r *request.Request
	p *Proc

	// exact/exactLen carry the receive's expected byte count when the
	// communicator asserted ExactLength; completion verifies the
	// delivery against it.
	exact    bool
	exactLen int
}

// finish collects a completed request: it converts the status,
// enforcing the exact-length assertion when the receive's communicator
// carried it, surfaces a collective's error, and frees the internal
// request, which hands whatever drives it back for reuse. A
// collective's error is read first: once freed, its op may be reused
// by a sibling goroutine. The nil r.r left behind makes any later Wait
// or Test a no-op, so the request is freed exactly once.
func (r *Request) finish() (Status, error) {
	st := r.r.Status
	err := statusErr(st.Truncated)
	if r.exact && (st.Truncated || st.Count != r.exactLen) {
		err = errc(ErrHint, "delivery of %d bytes into an exact-length buffer of %d", st.Count, r.exactLen)
	}
	if op, ok := r.r.Driver().(*collOp); ok {
		err = op.err
	}
	r.r.Free()
	r.r = nil
	return Status{Source: st.Source, Tag: st.Tag, Count: st.Count}, err
}

// Wait blocks until the operation completes (MPI_WAIT).
func (r *Request) Wait() (Status, error) {
	if r == nil || r.r == nil {
		return Status{}, nil // requestless (no-req) operations
	}
	if r.p != nil {
		if r.p.observed() {
			defer r.p.span(TraceWait, -1, 0)()
		}
	}
	r.r.Wait()
	return r.finish()
}

// pollMiss ends every unsuccessful nonblocking poll (Test, Testall,
// Iprobe, Improbe, Parrived, Win.TestWait) by yielding the processor:
// ranks are goroutines, so a rank spinning on a poll on an
// oversubscribed machine would otherwise starve the very peers whose
// sends it is polling for — the same reason real MPI progress loops call
// sched_yield when ranks outnumber cores.
func pollMiss() { runtime.Gosched() }

// Test polls the operation (MPI_TEST).
func (r *Request) Test() (Status, bool, error) {
	if r == nil || r.r == nil {
		return Status{}, true, nil
	}
	if !r.r.Done() {
		pollMiss()
		return Status{}, false, nil
	}
	st, err := r.finish()
	return st, true, err
}

// Waitall completes every request (MPI_WAITALL). The first error is
// returned after all requests finish.
func Waitall(reqs []*Request) error {
	var first error
	for _, r := range reqs {
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// scratchReq is the public Request a blocking call waits on and drops:
// one of the rank's two scratch slots, or nil (a fresh one is then
// allocated) under MPI_THREAD_MULTIPLE, where several goroutines block
// on one Proc at once.
func (p *Proc) scratchReq(slot int) *Request {
	if p.bc.ThreadMultiple {
		return nil
	}
	return &p.scratch[slot]
}

// reqSlabLen is how many public Requests one slab refill makes. A slot
// is never reused, so a live Request pins its whole slab: 16 keeps that
// to 640 B (64 measured +5.7 % heap on the 1024-rank halo benchmark).
const reqSlabLen = 16

// newRequest returns a fresh public Request: the next unused slot of
// the rank's owner-only slab, refilled one make per reqSlabLen requests,
// or a heap object under MPI_THREAD_MULTIPLE, where several goroutines
// start operations on one Proc at once. Slots are never recycled, so
// every Request is distinct for its whole life and a second Wait or
// Test on a finished one stays a no-op.
func (p *Proc) newRequest() *Request {
	if p.bc.ThreadMultiple {
		return new(Request)
	}
	if len(p.reqSlab) == 0 {
		p.reqSlab = make([]Request, reqSlabLen)
	}
	r := &p.reqSlab[0]
	p.reqSlab = p.reqSlab[1:]
	return r
}

// p2pSpan opens an observed two-sided call's span on the VCI c's
// traffic rides.
func (c *Comm) p2pSpan(kind flight.Kind, peer, count int, dt *Datatype) func() {
	return c.p.spanVCI(kind, peer, traceBytes(count, dt), c.p.vciOf(c))
}

// p2pEnter is the MPI-layer entry of the sends, the receives and a
// persistent Start: it opens the span, charges the call frame and the
// thread check, and takes c's critical section. The caller defers the
// returned func, which leaves the section and closes the span;
// unobserved it is the unlock itself, so entering allocates nothing.
func (c *Comm) p2pEnter(kind flight.Kind, peer, count int, dt *Datatype) func() {
	var end func()
	if c.p.observed() {
		end = c.p2pSpan(kind, peer, count, dt)
	}
	c.p.chargeCall()
	done := c.p.chargeThread(c.c, false)
	if end == nil {
		return done
	}
	return func() {
		done()
		end()
	}
}

// isend is the shared MPI-layer send path: enter, check the arguments
// in an error-checking build (Table 1's three MPI-layer rows) and
// descend into the device with the extension flags. The request is
// filled into req, or into a fresh one (newRequest) when req is nil
// (the nonblocking forms).
func (c *Comm) isend(buf []byte, count int, dt *Datatype, dest, tag int, flags core.OpFlags, req *Request) (*Request, error) {
	defer c.p2pEnter(TraceSend, dest, count, dt)()
	p := c.p
	if p.bc.ErrorChecking {
		if err := p.checkSendArgs(buf, count, dt, dest, tag, c, false); err != nil {
			return nil, err
		}
	}
	r, err := p.dev.Isend(buf, count, dt, dest, tag, c.c, flags)
	if err != nil {
		return nil, errc(ErrOther, "%v", err)
	}
	if r == nil {
		return nil, nil
	}
	if req == nil {
		req = p.newRequest()
	}
	*req = Request{r: r, p: p}
	return req, nil
}

// Isend starts a nonblocking send (MPI_ISEND).
func (c *Comm) Isend(buf []byte, count int, dt *Datatype, dest, tag int) (*Request, error) {
	return c.isend(buf, count, dt, dest, tag, 0, nil)
}

// Send performs a blocking send (MPI_SEND) in standard mode. Up to the
// eager limit (and the shm handoff threshold on-node) the payload is
// captured and Send returns at once; above it the buffer is lent and
// Send returns when the receiver has consumed it, so two ranks that
// each Send a large message to the other before receiving deadlock.
func (c *Comm) Send(buf []byte, count int, dt *Datatype, dest, tag int) error {
	req, err := c.isend(buf, count, dt, dest, tag, 0, c.p.scratchReq(0))
	if err != nil {
		return err
	}
	_, err = req.Wait()
	return err
}

// SendOptions combines the Section 3 proposals for one send. The
// paper's proposals compose (Section 3.7); IsendOpt is the canonical
// entry point and lets applications opt into any subset. The named
// Isend* variants below are thin wrappers over it.
type SendOptions struct {
	// GlobalRank: dest is an MPI_COMM_WORLD rank (Section 3.1).
	GlobalRank bool
	// NoProcNull: dest is guaranteed not MPI_PROC_NULL (Section 3.4).
	NoProcNull bool
	// NoReq: no request object; complete via CommWaitall (Section 3.5).
	NoReq bool
	// NoMatch: arrival-order matching (Section 3.6).
	NoMatch bool
	// PredefComm: the caller guarantees the communicator sits in a
	// predefined handle slot, so the device replaces the communicator
	// dereference with a constant-indexed load (Section 3.3). Set
	// automatically by IsendPredef and IsendAllOpts.
	PredefComm bool
}

// AllSendOptions is the full Section 3.7 combination — every proposal
// at once. Passing it to IsendOpt (with a byte-typed, full-buffer
// send) takes the fused MPI_ISEND_ALL_OPTS path.
var AllSendOptions = SendOptions{
	GlobalRank: true, NoProcNull: true, NoReq: true, NoMatch: true, PredefComm: true,
}

func (o SendOptions) flags() core.OpFlags {
	var f core.OpFlags
	if o.GlobalRank {
		f |= core.FlagGlobalRank
	}
	if o.NoProcNull {
		f |= core.FlagNoProcNull
	}
	if o.NoReq {
		f |= core.FlagNoReq
	}
	if o.NoMatch {
		f |= core.FlagNoMatch
	}
	if o.PredefComm {
		f |= core.FlagPredefComm
	}
	return f
}

// IsendOpt starts a nonblocking send with any combination of the
// proposed extensions. Under NoReq the returned request is nil (use
// CommWaitall). When every option is set (AllSendOptions) on a plain
// byte send covering the whole buffer, the call routes to the
// dedicated fused device path — the Section 3.7 specialized function —
// and skips the generic MPI-layer charges entirely.
func (c *Comm) IsendOpt(buf []byte, count int, dt *Datatype, dest, tag int, o SendOptions) (*Request, error) {
	if o == AllSendOptions && dt == Byte && count == len(buf) {
		p := c.p
		if p.observed() {
			defer p.span(TraceSend, dest, len(buf))()
		}
		// No call-frame or validation charges: the all-opts path is
		// defined as a link-time-inlined specialized function.
		return nil, devErr(ErrOther, p.dev.IsendAllOpts(buf, dest, c.c))
	}
	return c.isend(buf, count, dt, dest, tag, o.flags(), nil)
}

// IsendGlobal is the MPI_ISEND_GLOBAL proposal (Section 3.1): dest is
// an MPI_COMM_WORLD rank and communicator rank translation is skipped.
// Not intercommunicator-safe, exactly as the paper specifies.
// Equivalent to IsendOpt with SendOptions{GlobalRank: true}.
func (c *Comm) IsendGlobal(buf []byte, count int, dt *Datatype, worldDest, tag int) (*Request, error) {
	return c.IsendOpt(buf, count, dt, worldDest, tag, SendOptions{GlobalRank: true})
}

// IsendNPN is the MPI_ISEND_NPN proposal (Section 3.4): the caller
// guarantees dest is not MPI_PROC_NULL, eliding the check. Equivalent
// to IsendOpt with SendOptions{NoProcNull: true}.
func (c *Comm) IsendNPN(buf []byte, count int, dt *Datatype, dest, tag int) (*Request, error) {
	return c.IsendOpt(buf, count, dt, dest, tag, SendOptions{NoProcNull: true})
}

// IsendNoReq is the MPI_ISEND_NOREQ proposal (Section 3.5): no request
// object is returned; completion is collected by CommWaitall.
// Equivalent to IsendOpt with SendOptions{NoReq: true}.
func (c *Comm) IsendNoReq(buf []byte, count int, dt *Datatype, dest, tag int) error {
	_, err := c.IsendOpt(buf, count, dt, dest, tag, SendOptions{NoReq: true})
	return err
}

// IsendNoReqGlobal composes the requestless and global-rank proposals
// (Sections 3.1 + 3.5): a world-rank destination with counter
// completion, the cheapest pairwise combination short of the fused
// path. Equivalent to IsendOpt with SendOptions{GlobalRank: true,
// NoReq: true}.
func (c *Comm) IsendNoReqGlobal(buf []byte, count int, dt *Datatype, worldDest, tag int) error {
	_, err := c.IsendOpt(buf, count, dt, worldDest, tag, SendOptions{GlobalRank: true, NoReq: true})
	return err
}

// IsendNoMatch is the MPI_ISEND_NOMATCH proposal (Section 3.6): source
// and tag match bits are disabled; the message matches receives in
// arrival order within the communicator. Equivalent to IsendOpt with
// SendOptions{NoMatch: true} and tag 0.
func (c *Comm) IsendNoMatch(buf []byte, count int, dt *Datatype, dest int) (*Request, error) {
	return c.IsendOpt(buf, count, dt, dest, 0, SendOptions{NoMatch: true})
}

// IsendPredef sends on a communicator installed in a predefined handle
// slot (Section 3.3): the communicator reference is a constant-indexed
// global load. Equivalent to resolving the handle and calling IsendOpt
// with SendOptions{PredefComm: true}.
func (p *Proc) IsendPredef(h CommHandle, buf []byte, count int, dt *Datatype, dest, tag int) (*Request, error) {
	c := p.predef[h]
	if c == nil {
		return nil, errc(ErrComm, "predefined handle %d not populated", h)
	}
	return c.IsendOpt(buf, count, dt, dest, tag, SendOptions{PredefComm: true})
}

// IsendAllOpts is the MPI_ISEND_ALL_OPTS path (Section 3.7): every
// proposal fused — world-rank destination, predefined communicator
// handle, no PROC_NULL, counter completion, arrival-order matching.
// With the inlined build this is the 16-instruction path. Equivalent
// to resolving the handle and calling IsendOpt with AllSendOptions.
func (p *Proc) IsendAllOpts(h CommHandle, buf []byte, worldDest int) error {
	c := p.predef[h]
	if c == nil {
		return errc(ErrComm, "predefined handle %d not populated", h)
	}
	_, err := c.IsendOpt(buf, len(buf), Byte, worldDest, 0, AllSendOptions)
	return err
}

// CommWaitall completes all requestless operations on the communicator
// (the MPI_COMM_WAITALL proposal).
func (c *Comm) CommWaitall() error { return devErr(ErrOther, c.p.dev.CommWaitall(c.c)) }

// irecv is the shared MPI-layer receive path. Hint enforcement rides
// here: a wildcard contradicting the communicator's assertions is a
// defined error (ErrHint) before anything reaches the device, and the
// exact-length assertion arms the returned request's completion check.
// The request is filled into req, or into a fresh one (newRequest) when
// req is nil.
func (c *Comm) irecv(buf []byte, count int, dt *Datatype, src, tag int, flags core.OpFlags, req *Request) (*Request, error) {
	defer c.p2pEnter(TraceRecv, src, count, dt)()
	p := c.p
	if p.bc.ErrorChecking {
		if err := p.checkSendArgs(buf, count, dt, src, tag, c, true); err != nil {
			return nil, err
		}
	}
	if err := checkHints(c.c, src, tag); err != nil {
		return nil, err
	}
	r, err := p.dev.Irecv(buf, count, dt, src, tag, c.c, flags)
	if err != nil {
		return nil, errc(ErrOther, "%v", err)
	}
	if req == nil {
		req = p.newRequest()
	}
	*req = Request{r: r, p: p}
	if c.c.Hints.ExactLength && src != ProcNull {
		req.exact, req.exactLen = true, datatype.PackedSize(dt, count)
	}
	return req, nil
}

// Irecv starts a nonblocking receive (MPI_IRECV). src may be AnySource;
// tag may be AnyTag.
func (c *Comm) Irecv(buf []byte, count int, dt *Datatype, src, tag int) (*Request, error) {
	return c.irecv(buf, count, dt, src, tag, 0, nil)
}

// RecvOptions combines the Section 3 proposals that apply to the
// receive side, mirroring SendOptions: IrecvOpt is the canonical entry
// point and the named Irecv* variants are zero-overhead wrappers over
// it. (GlobalRank and NoReq are send-side ideas: receives match on the
// sender's communicator rank and must deliver an envelope, so neither
// transfers.)
type RecvOptions struct {
	// NoProcNull: src is guaranteed not MPI_PROC_NULL (Section 3.4).
	NoProcNull bool
	// NoMatch: receive in arrival order within the communicator — the
	// receive side of the Section 3.6 proposal.
	NoMatch bool
	// PredefComm: the communicator sits in a predefined handle slot
	// (Section 3.3). Set automatically by IrecvPredef.
	PredefComm bool
}

func (o RecvOptions) flags() core.OpFlags {
	var f core.OpFlags
	if o.NoProcNull {
		f |= core.FlagNoProcNull
	}
	if o.NoMatch {
		f |= core.FlagNoMatch
	}
	if o.PredefComm {
		f |= core.FlagPredefComm
	}
	return f
}

// IrecvOpt starts a nonblocking receive with any combination of the
// proposed receive-side extensions.
func (c *Comm) IrecvOpt(buf []byte, count int, dt *Datatype, src, tag int, o RecvOptions) (*Request, error) {
	return c.irecv(buf, count, dt, src, tag, o.flags(), nil)
}

// IrecvNPN is the receive-side MPI_IRECV_NPN variant (Section 3.4):
// the caller guarantees src is not MPI_PROC_NULL. Equivalent to
// IrecvOpt with RecvOptions{NoProcNull: true}.
func (c *Comm) IrecvNPN(buf []byte, count int, dt *Datatype, src, tag int) (*Request, error) {
	return c.IrecvOpt(buf, count, dt, src, tag, RecvOptions{NoProcNull: true})
}

// IrecvNoMatch starts an arrival-order receive (the nonblocking
// receive side of the no-match proposal). Equivalent to IrecvOpt with
// RecvOptions{NoMatch: true} and wildcard envelope.
func (c *Comm) IrecvNoMatch(buf []byte, count int, dt *Datatype) (*Request, error) {
	return c.IrecvOpt(buf, count, dt, AnySource, AnyTag, RecvOptions{NoMatch: true})
}

// IrecvPredef receives on a communicator installed in a predefined
// handle slot (Section 3.3). Equivalent to resolving the handle and
// calling IrecvOpt with RecvOptions{PredefComm: true}.
func (p *Proc) IrecvPredef(h CommHandle, buf []byte, count int, dt *Datatype, src, tag int) (*Request, error) {
	c := p.predef[h]
	if c == nil {
		return nil, errc(ErrComm, "predefined handle %d not populated", h)
	}
	return c.IrecvOpt(buf, count, dt, src, tag, RecvOptions{PredefComm: true})
}

// Recv performs a blocking receive (MPI_RECV).
func (c *Comm) Recv(buf []byte, count int, dt *Datatype, src, tag int) (Status, error) {
	req, err := c.irecv(buf, count, dt, src, tag, 0, c.p.scratchReq(1))
	if err != nil {
		return Status{}, err
	}
	return req.Wait()
}

// RecvNoMatch receives the next message in arrival order within the
// communicator (the receive side of the no-match proposal).
func (c *Comm) RecvNoMatch(buf []byte, count int, dt *Datatype) (Status, error) {
	req, err := c.IrecvNoMatch(buf, count, dt)
	if err != nil {
		return Status{}, err
	}
	return req.Wait()
}

// probe is Iprobe, and with wait the Probe loop, which parks between
// transport events instead of spinning. Like every probe it opens a span
// and charges nothing.
func (c *Comm) probe(src, tag int, wait bool) (Status, bool, error) {
	if c.p.observed() {
		defer c.p2pSpan(TraceProbe, src, 0, nil)()
	}
	if err := checkHints(c.c, src, tag); err != nil {
		return Status{}, false, err
	}
	for {
		seq := c.p.dev.EventSeq()
		st, ok, err := c.p.dev.Iprobe(src, tag, c.c)
		if err != nil {
			return Status{}, false, errc(ErrOther, "%v", err)
		}
		if ok {
			return Status{Source: st.Source, Tag: st.Tag, Count: st.Count}, true, nil
		}
		if !wait {
			pollMiss()
			return Status{}, false, nil
		}
		c.p.dev.WaitEvent(seq)
	}
}

// Iprobe checks for a matchable message without receiving it
// (MPI_IPROBE).
func (c *Comm) Iprobe(src, tag int) (Status, bool, error) { return c.probe(src, tag, false) }

// Probe blocks until a matchable message is available (MPI_PROBE).
func (c *Comm) Probe(src, tag int) (Status, error) {
	st, _, err := c.probe(src, tag, true)
	return st, err
}

// SendrecvReplace exchanges in place (MPI_SENDRECV_REPLACE): the buffer
// is sent to dest, then overwritten by the message from src.
func (c *Comm) SendrecvReplace(buf []byte, count int, dt *Datatype, dest, sendTag, src, recvTag int) (Status, error) {
	// A large send is lent (read where it lies until the receiver
	// consumes it), so it goes out of a private copy: the receive may
	// overwrite buf before the peer has read it.
	sreq, err := c.Isend(append([]byte(nil), buf...), count, dt, dest, sendTag)
	if err != nil {
		return Status{}, err
	}
	st, err := c.Recv(buf, count, dt, src, recvTag)
	if err != nil {
		return st, err
	}
	_, err = sreq.Wait()
	return st, err
}

// Message is a matched-probe handle (MPI_Message): a message removed
// from matching by Improbe/Mprobe, to be received exactly once with
// Recv.
type Message struct {
	p       *Proc
	data    []byte
	src     int
	tag     int
	arrival vtime.Time
}

// mprobe is Improbe, and with wait the Mprobe loop: probe's shape, but
// a match extracts the message.
func (c *Comm) mprobe(src, tag int, wait bool) (*Message, bool, error) {
	if c.p.observed() {
		defer c.p2pSpan(TraceProbe, src, 0, nil)()
	}
	if err := checkHints(c.c, src, tag); err != nil {
		return nil, false, err
	}
	for {
		seq := c.p.dev.EventSeq()
		data, st, arrival, ok, err := c.p.dev.Improbe(src, tag, c.c)
		if err != nil {
			return nil, false, errc(ErrOther, "%v", err)
		}
		if ok {
			return &Message{p: c.p, data: data, src: st.Source, tag: st.Tag, arrival: arrival}, true, nil
		}
		if !wait {
			pollMiss()
			return nil, false, nil
		}
		c.p.dev.WaitEvent(seq)
	}
}

// Improbe extracts a matchable message without receiving it
// (MPI_IMPROBE). Once extracted, the message can no longer match any
// other receive; consume it with Message.Recv.
func (c *Comm) Improbe(src, tag int) (*Message, bool, error) { return c.mprobe(src, tag, false) }

// Mprobe blocks until a matchable message can be extracted
// (MPI_MPROBE).
func (c *Comm) Mprobe(src, tag int) (*Message, error) {
	m, _, err := c.mprobe(src, tag, true)
	return m, err
}

// Size returns the extracted message's payload size in bytes.
func (m *Message) Size() int { return len(m.data) }

// Count returns the number of dt elements the extracted message
// carries (MPI_GET_COUNT on the matched-probe envelope), consistent
// with Status.GetCount: zero-byte messages count zero elements, and a
// payload that is not a whole number of elements reports
// UndefinedIndex.
func (m *Message) Count(dt *Datatype) int {
	return Status{Count: len(m.data)}.GetCount(dt)
}

// Recv consumes the extracted message into buf (MPI_MRECV). The
// message handle is dead afterward.
func (m *Message) Recv(buf []byte, count int, dt *Datatype) (Status, error) {
	if m.data == nil && m.p == nil {
		return Status{}, errc(ErrRequest, "message already received")
	}
	m.p.rank.Sync(m.arrival)
	st := Status{Source: m.src, Tag: m.tag, Count: len(m.data)}
	var err error
	if view, ok := datatype.ContigView(dt, count, buf); ok {
		if copy(view, m.data) < len(m.data) {
			err = statusErr(true)
		}
	} else {
		need := datatype.PackedSize(dt, count)
		if need < len(m.data) {
			err = statusErr(true)
		}
		n := len(m.data)
		if need < n {
			n = need
		}
		if _, uerr := datatype.Unpack(dt, count, m.data[:n], buf); uerr != nil && err == nil {
			err = errc(ErrType, "%v", uerr)
		}
	}
	m.p, m.data = nil, nil
	return st, err
}

// Sendrecv exchanges messages in one call (MPI_SENDRECV): the send is
// issued first (nonblocking, even when its buffer is lent), then the
// receive completes, then the send.
func (c *Comm) Sendrecv(sendBuf []byte, sendCount int, sendType *Datatype, dest, sendTag int,
	recvBuf []byte, recvCount int, recvType *Datatype, src, recvTag int) (Status, error) {
	sreq, err := c.isend(sendBuf, sendCount, sendType, dest, sendTag, 0, c.p.scratchReq(0))
	if err != nil {
		return Status{}, err
	}
	st, err := c.Recv(recvBuf, recvCount, recvType, src, recvTag)
	if err != nil {
		return st, err
	}
	_, err = sreq.Wait()
	return st, err
}
