package ch4

import (
	"gompi/internal/comm"
	"gompi/internal/instr"
	"gompi/internal/match"
	"gompi/internal/request"
)

// This file is the device's zero-copy handoff surface for the
// collectives engine: explicit entry points that expose the shm
// transport's large-message lending protocol (DESIGN.md §6e) where the
// implicit Isend path cannot — schedules need the completion handle to
// gate buffer reuse across rounds, and reductions want to fold the
// lent view in place instead of receiving into scratch.

// ShmHandoffMax reports the shared-memory staged/handoff threshold in
// bytes, or 0 when the zero-copy path is unavailable (no shm domain,
// or Config.ShmEagerMax unset). The collectives layer keys its
// algorithm refinement off this.
func (d *Device) ShmHandoffMax() int {
	if d.g.Shm == nil {
		return 0
	}
	return d.g.Shm.EagerMax()
}

// IsendNoCopy sends buf to dest over the zero-copy handoff path when
// it applies: on-node destination, handoff enabled, payload above the
// threshold. ok=false means the caller must fall back to ordinary
// sends — nothing was sent. On ok=true the returned request completes
// when the receiver has released the lent buffer; the caller must not
// touch buf until then. dest is a communicator rank; the send is
// tagged and matches like any Isend.
func (d *Device) IsendNoCopy(buf []byte, dest, tag int, c *comm.Comm) (*request.Request, bool, error) {
	world, err := d.translateRank(c, dest)
	if err != nil {
		return nil, false, err
	}
	if d.g.Shm == nil || d.g.Shm.EagerMax() <= 0 || len(buf) <= d.g.Shm.EagerMax() ||
		world == d.rank.ID() || !d.g.World.SameNode(world, d.rank.ID()) {
		return nil, false, nil
	}
	d.charge(instr.Call, cost(instr.Dispatch))
	issued := d.rank.Now()
	d.charge(instr.Mandatory, cost(instr.CommDeref)+cost(instr.MatchBits))
	bits := match.MakeBits(c.Ctx, c.MyRank, tag)
	// The checks above leave inject one branch, the on-node handoff,
	// which always lends.
	b := d.inject(world, bits, buf, true)
	d.charge(instr.Mandatory, cost(instr.Request))
	b.req.Issued = int64(issued)
	return &b.req, true, nil
}

// IrecvReduce posts a tagged receive that consumes its payload with
// fold(acc, incoming) instead of a copy into a buffer. When the
// matched payload is a lent view (an shm handoff or a netmod
// rendezvous) the reduction touches no intermediate bytes at all: the
// fold reads the sender's buffer where it lies. Works for captured
// arrivals too (the fold then reads the reassembly scratch or the
// unexpected-queue copy). acc must be at least as large as the
// expected payload. fold runs under the receiving VCI's lock on
// whichever goroutine delivers the match — this rank's for shm
// deposits (the receiver's progress loop) and for a message already
// waiting when the receive is posted, the sender's for a netmod message
// that finds it posted — and acc is not this rank's to touch until the
// request completes. src is a communicator rank; wildcards are not
// supported.
func (d *Device) IrecvReduce(acc []byte, src, tag int, c *comm.Comm,
	fold func(dst, incoming []byte)) (*request.Request, error) {

	d.charge(instr.Call, cost(instr.Dispatch))
	d.charge(instr.Mandatory, cost(instr.CommDeref)+cost(instr.MatchBits))
	bits := match.MakeBits(c.Ctx, src, tag)
	mask := match.RecvMask(false, false)

	b := d.getRecvBox()
	b.op.Buf, b.op.Fold = acc, fold
	d.charge(instr.Mandatory, cost(instr.RecvPost)+cost(instr.Request))
	return d.postBox(b, bits, mask), nil
}
