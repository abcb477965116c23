package gompi

import (
	"errors"
	"fmt"

	"gompi/internal/comm"
	"gompi/internal/core"
	"gompi/internal/datatype"
	"gompi/internal/instr"
	"gompi/internal/match"
)

// ErrorClass mirrors the MPI error classes the library reports.
type ErrorClass int

// Error classes.
const (
	ErrNone ErrorClass = iota
	ErrBuffer
	ErrCount
	ErrType
	ErrTag
	ErrComm
	ErrRank
	ErrRequest
	ErrTruncate
	ErrWin
	ErrRMASync
	ErrArg
	ErrOther
	// ErrHint reports a violated communicator assertion: an operation
	// contradicted a hint given at creation (a wildcard on a
	// no-wildcard communicator, a short or truncated delivery under
	// the exact-length assertion). Appended after ErrOther so existing
	// class values are stable.
	ErrHint
)

// String returns the MPI-style class name.
func (e ErrorClass) String() string {
	switch e {
	case ErrNone:
		return "MPI_SUCCESS"
	case ErrBuffer:
		return "MPI_ERR_BUFFER"
	case ErrCount:
		return "MPI_ERR_COUNT"
	case ErrType:
		return "MPI_ERR_TYPE"
	case ErrTag:
		return "MPI_ERR_TAG"
	case ErrComm:
		return "MPI_ERR_COMM"
	case ErrRank:
		return "MPI_ERR_RANK"
	case ErrRequest:
		return "MPI_ERR_REQUEST"
	case ErrTruncate:
		return "MPI_ERR_TRUNCATE"
	case ErrWin:
		return "MPI_ERR_WIN"
	case ErrRMASync:
		return "MPI_ERR_RMA_SYNC"
	case ErrArg:
		return "MPI_ERR_ARG"
	case ErrHint:
		return "MPI_ERR_HINT"
	default:
		return "MPI_ERR_OTHER"
	}
}

// checkHints validates a receive or probe envelope against the
// communicator's assertions. Unlike the chargeable error-checking row,
// hint enforcement is two predictable branches folded into the
// existing argument checks, so it carries no separate charge.
func checkHints(c *comm.Comm, src, tag int) error {
	if c.Hints.NoAnySource && src == core.AnySource {
		return errc(ErrHint, "MPI_ANY_SOURCE on a communicator asserting %s", comm.HintNoAnySource)
	}
	if c.Hints.NoAnyTag && tag == core.AnyTag {
		return errc(ErrHint, "MPI_ANY_TAG on a communicator asserting %s", comm.HintNoAnyTag)
	}
	return nil
}

// Error is the library's error value: an MPI error class plus detail.
type Error struct {
	Class ErrorClass
	Msg   string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Class, e.Msg) }

// errc builds a classed error.
func errc(class ErrorClass, format string, args ...any) *Error {
	return &Error{Class: class, Msg: fmt.Sprintf(format, args...)}
}

// devErr classes what a device call returned, as errc(class, "%v",
// err) would; nil stays nil. It builds the Error itself, so it inlines
// into the hot paths that return through it.
func devErr(class ErrorClass, err error) error {
	if err == nil {
		return nil
	}
	return &Error{Class: class, Msg: err.Error()}
}

// ClassOf extracts the ErrorClass from an error, looking through
// wrapping and joined errors such as the one Run returns (ErrOther for
// foreign errors, ErrNone for nil).
func ClassOf(err error) ErrorClass {
	if err == nil {
		return ErrNone
	}
	var e *Error
	if errors.As(err, &e) {
		return e.Class
	}
	return ErrOther
}

// --- MPI-layer argument validation (Table 1 "Error checking") ---------
//
// Each check adds its instruction cost as it executes and the chain
// charges the sum once, when it returns, so the error checking row of
// Table 1 is the sum of the validation the default build really
// performs: 74 instructions on the MPI_ISEND path and 72 on the MPI_PUT
// path, and a failing check charges the checks up to and including
// itself. The no-err builds skip the calls entirely.

// checkSendArgs validates a point-to-point operation's arguments.
// anySrcTag permits the receive-side wildcards.
func (p *Proc) checkSendArgs(buf []byte, count int, dt *Datatype, rank, tag int, c *Comm, anySrcTag bool) error {
	n, err := p.sendArgs(buf, count, dt, rank, tag, c, anySrcTag)
	p.rank.Charge(instr.ErrorCheck, n)
	return err
}

// sendArgs is checkSendArgs' chain: the first failing check's error and
// the instructions the checks executed up to it.
func (p *Proc) sendArgs(buf []byte, count int, dt *Datatype, rank, tag int, c *Comm, anySrcTag bool) (n int64, err error) {
	n += 4 // library initialized, not finalized
	if p.dev == nil {
		return n, errc(ErrOther, "library not initialized")
	}
	n += 10 // communicator handle: non-null, magic cookie, not freed
	if c == nil || c.c == nil {
		return n, errc(ErrComm, "nil communicator")
	}
	if c.c.Freed() {
		return n, errc(ErrComm, "communicator already freed")
	}
	n += 10 // rank within communicator (PROC_NULL and wildcards allowed)
	if rank != core.ProcNull && !(anySrcTag && rank == core.AnySource) &&
		(rank < 0 || rank >= c.c.Size()) {
		return n, errc(ErrRank, "rank %d outside [0,%d)", rank, c.c.Size())
	}
	n += 6 // tag range
	if tag > match.MaxTag || (tag < 0 && !(anySrcTag && tag == core.AnyTag)) {
		return n, errc(ErrTag, "tag %d out of range", tag)
	}
	n += 4 // count non-negative
	if count < 0 {
		return n, errc(ErrCount, "negative count %d", count)
	}
	n += 8 // datatype handle valid
	if dt == nil {
		return n, errc(ErrType, "nil datatype")
	}
	n += 6 // datatype committed
	if !dt.Committed() {
		return n, errc(ErrType, "datatype %s not committed", dt.Name())
	}
	n += 8 // buffer present when data is nonempty
	if buf == nil && count > 0 && dt.Size() > 0 {
		return n, errc(ErrBuffer, "nil buffer with count %d", count)
	}
	n += 10 // size overflow and buffer capacity
	need := datatype.PackedSize(dt, count)
	if need < 0 {
		return n, errc(ErrCount, "count %d overflows", count)
	}
	if count > 0 && !dt.Contig() {
		// Laid-out buffers must span count extents.
		if len(buf) < (count-1)*dt.Extent()+dt.Size() {
			return n, errc(ErrBuffer, "buffer %d bytes < layout span", len(buf))
		}
	} else if len(buf) < need {
		return n, errc(ErrBuffer, "buffer %d bytes < %d", len(buf), need)
	}
	n += 8 // request slot / completion-vehicle validity
	return n, nil
}

// checkRMAArgs validates a one-sided operation's arguments.
func (p *Proc) checkRMAArgs(origin []byte, count int, dt *Datatype, target, disp int, w *Win) error {
	n, err := rmaArgs(origin, count, dt, target, disp, w)
	p.rank.Charge(instr.ErrorCheck, n)
	return err
}

// rmaArgs is checkRMAArgs' chain: the first failing check's error and
// the instructions the checks executed up to it.
func rmaArgs(origin []byte, count int, dt *Datatype, target, disp int, w *Win) (n int64, err error) {
	n += 4  // library initialized
	n += 10 // window handle valid
	if w == nil || w.w == nil {
		return n, errc(ErrWin, "nil window")
	}
	n += 8 // synchronization: inside an access epoch
	if !w.w.InEpoch() {
		return n, errc(ErrRMASync, "RMA call outside an access epoch")
	}
	n += 10 // target rank range
	if target != core.ProcNull && (target < 0 || target >= w.w.Comm.Size()) {
		return n, errc(ErrRank, "target %d outside [0,%d)", target, w.w.Comm.Size())
	}
	n += 4 // count
	if count < 0 {
		return n, errc(ErrCount, "negative count %d", count)
	}
	n += 8 // datatype valid
	if dt == nil {
		return n, errc(ErrType, "nil datatype")
	}
	n += 6 // committed
	if !dt.Committed() {
		return n, errc(ErrType, "datatype %s not committed", dt.Name())
	}
	n += 8 // origin buffer
	if origin == nil && count > 0 && dt.Size() > 0 {
		return n, errc(ErrBuffer, "nil origin buffer")
	}
	n += 14 // target displacement pre-check against exchanged extents
	if disp < 0 && target != core.ProcNull {
		return n, errc(ErrArg, "negative target displacement %d", disp)
	}
	return n, nil
}

// checkComm validates just a communicator argument (collectives,
// comm management). The nil and freed checks run in every build — they
// guard the dereference that follows — but only an error-checking
// build charges for them.
func (p *Proc) checkComm(c *Comm) error {
	if p.bc.ErrorChecking {
		p.rank.Charge(instr.ErrorCheck, 14)
	}
	if c == nil || c.c == nil {
		return errc(ErrComm, "nil communicator")
	}
	if c.c.Freed() {
		return errc(ErrComm, "communicator already freed")
	}
	return nil
}

// statusErr converts a completed request's status to an error when the
// operation failed (truncation is the only delivery failure the eager
// protocol produces).
func statusErr(truncated bool) error {
	if truncated {
		return errc(ErrTruncate, "message longer than receive buffer")
	}
	return nil
}
