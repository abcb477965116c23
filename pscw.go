package gompi

import (
	"gompi/internal/core"
	"gompi/internal/rma"
)

// Generalized active-target (PSCW) synchronization: MPI_WIN_POST /
// MPI_WIN_START / MPI_WIN_COMPLETE / MPI_WIN_WAIT. Exposure and access
// epochs are scoped to explicit rank groups instead of the whole
// communicator, so only the involved processes synchronize — the
// pattern stencil codes use to avoid full fences.
//
// The protocol runs at the MPI layer over the device's point-to-point
// on the collective context: post tokens flow target→origin, complete
// tokens origin→target. The complete token's arrival timestamp is at
// least the origin's flush time, so the target's clock (synced by its
// matching receive) correctly reflects the data it is about to read.

// Reserved tags on the collective context (internal/match/tagspace.go
// has the whole layout; collective schedules draw theirs far above).
const (
	tagWinPost     = 700
	tagWinComplete = 701
)

// Post opens an exposure epoch for the given origin ranks
// (MPI_WIN_POST). It does not block.
func (w *Win) Post(origins []int) error {
	if w.p.observed() {
		defer w.p.span(TraceSync, -1, 0)()
	}
	w.p.chargeCall()
	if err := w.w.Expose(origins); err != nil {
		return errc(ErrRMASync, "%v", err)
	}
	cv := w.w.Comm.CollView()
	for _, o := range origins {
		if _, err := w.p.dev.Isend(nil, 0, Byte, o, tagWinPost, cv, core.FlagNoReq|core.FlagNoProcNull); err != nil {
			return errc(ErrRMASync, "post token to %d: %v", o, err)
		}
	}
	return nil
}

// Start opens an access epoch on the given target ranks
// (MPI_WIN_START). It blocks until every target has posted.
func (w *Win) Start(targets []int) error {
	if w.p.observed() {
		defer w.p.span(TraceSync, -1, 0)()
	}
	w.p.chargeCall()
	if err := w.w.OpenEpoch(rma.EpochPSCW, -1, w.p.rank.Now()); err != nil {
		return errc(ErrRMASync, "%v", err)
	}
	w.w.SetAccessGroup(targets)
	cv := w.w.Comm.CollView()
	for _, t := range targets {
		req, err := w.p.dev.Irecv(nil, 0, Byte, t, tagWinPost, cv, core.FlagNoProcNull)
		if err != nil {
			return errc(ErrRMASync, "post token from %d: %v", t, err)
		}
		req.Wait()
		req.Free()
	}
	return nil
}

// Complete closes the access epoch (MPI_WIN_COMPLETE): all issued
// operations complete at their targets before the targets' Wait
// returns.
func (w *Win) Complete() error {
	if w.p.observed() {
		defer w.p.span(TraceSync, -1, 0)()
	}
	w.p.chargeCall()
	if w.w.Epoch != rma.EpochPSCW {
		return errc(ErrRMASync, "complete without start")
	}
	targets := w.w.AccessGroup()
	// Flush: RDMA is placed at injection; AM fallback waits for acks.
	for _, t := range targets {
		if err := w.p.dev.Flush(w.w, t); err != nil {
			return errc(ErrRMASync, "%v", err)
		}
	}
	cv := w.w.Comm.CollView()
	for _, t := range targets {
		if _, err := w.p.dev.Isend(nil, 0, Byte, t, tagWinComplete, cv, core.FlagNoReq|core.FlagNoProcNull); err != nil {
			return errc(ErrRMASync, "complete token to %d: %v", t, err)
		}
	}
	if _, err := w.w.CloseEpoch(); err != nil {
		return errc(ErrRMASync, "%v", err)
	}
	return nil
}

// Wait closes the exposure epoch (MPI_WIN_WAIT): it blocks until every
// origin in the post group has called Complete, after which the
// window's local memory reflects all their operations.
func (w *Win) Wait() error {
	if w.p.observed() {
		defer w.p.span(TraceSync, -1, 0)()
	}
	w.p.chargeCall()
	origins, err := w.w.Unexpose()
	if err != nil {
		return errc(ErrRMASync, "%v", err)
	}
	cv := w.w.Comm.CollView()
	for _, o := range origins {
		req, err := w.p.dev.Irecv(nil, 0, Byte, o, tagWinComplete, cv, core.FlagNoProcNull)
		if err != nil {
			return errc(ErrRMASync, "complete token from %d: %v", o, err)
		}
		req.Wait()
		req.Free()
	}
	return nil
}

// TestWait is the nonblocking MPI_WIN_TEST: it reports whether the
// exposure epoch could be closed, closing it if so.
func (w *Win) TestWait() (bool, error) {
	if !w.w.Exposed() {
		return false, errc(ErrRMASync, "no exposure epoch")
	}
	// Probe for all complete tokens; only consume once all are there.
	w.p.dev.Progress()
	cv := w.w.Comm.CollView()
	pending := map[int]int{}
	for _, o := range w.w.ExposureGroupPeek() {
		pending[o]++
	}
	for o := range pending {
		if _, ok, err := w.p.dev.Iprobe(o, tagWinComplete, cv); err != nil {
			return false, errc(ErrRMASync, "%v", err)
		} else if !ok {
			pollMiss()
			return false, nil
		}
	}
	return true, w.Wait()
}
