package original

import (
	"gompi/internal/comm"
	"gompi/internal/core"
	"gompi/internal/datatype"
	"gompi/internal/flight"
	"gompi/internal/instr"
	"gompi/internal/match"
	"gompi/internal/request"
	"gompi/internal/vtime"
)

// Isend lowers the send to a generic eager packet: marshal an envelope,
// push it through the layered send machinery, match in software at the
// target. Extension flags are honored semantically (so the public API
// behaves identically on both devices) but buy no instruction savings
// here — the baseline predates the proposals.
func (d *Device) Isend(buf []byte, count int, dt *datatype.Type, dest, tag int,
	c *comm.Comm, flags core.OpFlags) (*request.Request, error) {

	d.lock()
	defer d.unlock()
	d.charge(instr.Call, cost(instr.Dispatch))
	d.charge(instr.Mandatory, cost(instr.ProcNull))
	if dest == core.ProcNull {
		return d.finishSend(flags, c), nil
	}
	d.charge(instr.Mandatory, cost(instr.CommDeref))

	var world int
	if flags.Has(core.FlagGlobalRank) {
		world = dest
		d.charge(instr.Mandatory, cost(instr.RankTranslate)) // baseline translates anyway
	} else {
		var err error
		world, err = d.translateRank(c, dest)
		if err != nil {
			return nil, err
		}
	}

	d.charge(instr.Redundant, cost(instr.RedundantMarshal)+cost(instr.RedundantReload)+
		cost(instr.RedundantBufAddr)+cost(instr.PacketGeneric))
	d.meter.ChargeType(dt, cost(instr.RedundantDatatype))
	data, err := d.sendBytes(buf, count, dt)
	if err != nil {
		return nil, err
	}

	d.charge(instr.Mandatory, cost(instr.MatchBits))
	bits := match.MakeBits(c.Ctx, c.MyRank, tag)
	if flags.Has(core.FlagNoMatch) {
		// Semantically honored: a zero tag, and the source kept for
		// the receiver's status, which arrival-order receives ignore
		// when matching. No charge savings on this device.
		bits = match.MakeBits(c.Ctx, c.MyRank, 0)
	}

	// Envelope marshal + protocol branch + layered issue.
	d.charge(instr.Mandatory, cost(instr.HeaderBuild)+cost(instr.ProtoBranch))
	// Every send is a generic eager packet over the netmod on this
	// device (no locality split, no rendezvous): count the MPI payload
	// on the netmod path; the fabric counts the AM packet itself.
	mm := d.rank.Metrics()
	mm.NetSend.Note(len(data))
	mm.Eager.Note(len(data))
	env := envelope{bits: bits, size: uint32(len(data))}
	d.ep.AMSend(world, amEager, env.marshal(), data)

	d.charge(instr.Redundant, cost(instr.RedundantComplete))
	return d.finishSend(flags, c), nil
}

// sendBytes mirrors the ch4 resolution but always via the generic
// segment path (no zero-copy view): CH3 runs every buffer through its
// segment machinery.
func (d *Device) sendBytes(buf []byte, count int, dt *datatype.Type) ([]byte, error) {
	if view, ok := datatype.ContigView(dt, count, buf); ok {
		return view, nil
	}
	packed := make([]byte, datatype.PackedSize(dt, count))
	n, err := datatype.Pack(dt, count, buf, packed)
	if err != nil {
		return nil, err
	}
	d.charge(instr.Mandatory, instr.PackCost(n))
	return packed, nil
}

// finishSend allocates the completion vehicle: a request from the
// globally locked pool, or the counter under FlagNoReq.
func (d *Device) finishSend(flags core.OpFlags, c *comm.Comm) *request.Request {
	if flags.Has(core.FlagNoReq) {
		c.NoReq.Add()
		c.NoReq.Done()
		d.charge(instr.Mandatory, cost(instr.Counter))
		return nil
	}
	d.charge(instr.Mandatory, cost(instr.Request))
	r := d.g.pool.GetFor(request.KindSend, nil, d.rank.Metrics())
	r.MarkComplete(request.Status{})
	return r
}

// IsendAllOpts exists for ADI parity; the baseline has no minimized
// path, so it runs the ordinary send with the flags' semantics.
func (d *Device) IsendAllOpts(buf []byte, worldDest int, c *comm.Comm) error {
	_, err := d.Isend(buf, len(buf), datatype.Byte, worldDest, 0, c, core.FlagAllOpts)
	return err
}

// VCIOf answers -1: the baseline has one global critical section and no
// virtual communication interfaces.
func (d *Device) VCIOf(c *comm.Comm) int { return -1 }

// ShmHandoffMax answers 0: the baseline has no shmmod, so no zero-copy
// handoff path.
func (d *Device) ShmHandoffMax() int { return 0 }

// IsendNoCopy never sends: with no handoff path the caller sends
// normally.
func (d *Device) IsendNoCopy(buf []byte, dest, tag int, c *comm.Comm) (*request.Request, bool, error) {
	return nil, false, nil
}

// IrecvReduce is refused: the in-place fold exists only over a handoff
// path, and ShmHandoffMax 0 tells collectives not to ask.
func (d *Device) IrecvReduce(acc []byte, src, tag int, c *comm.Comm, fold func(dst, incoming []byte)) (*request.Request, error) {
	return nil, errf("no in-place receive-reduce")
}

// handleEager is the target-side packet handler: software matching at
// the MPI layer, charged per queue element inspected.
func (d *Device) handleEager(src int, hdr, payload []byte, arrival vtime.Time) {
	env := unmarshalEnvelope(hdr)
	d.charge(instr.Mandatory, cost(instr.PacketGeneric))

	// CH3 copies eager payloads aside before matching, so the cookie
	// carries the buffered copy whether or not a receive is posted.
	cp := append([]byte(nil), payload...)
	mm := d.rank.Metrics()
	mm.NetRecv.Note(len(payload))
	before := d.eng.Searches
	entry, ok := d.eng.Arrive(env.bits, &unexpected{data: cp, src: src, arrival: arrival})
	d.charge(instr.Mandatory, cost(instr.MatchSearch)*(d.eng.Searches-before))
	if !ok {
		mm.Raise(&mm.Match.UnexpectedMax, int64(d.eng.UnexpectedLen()))
		mm.Flight.Record(flight.Unexpected, int64(arrival), src, len(payload), 0)
		return // queued as unexpected
	}
	rs := entry.Cookie.(*recvState)
	// Post→match span, with zero unexpected residency (pre-posted), so
	// both distributions stay message-count symmetric.
	pm := int64(arrival - rs.posted)
	if pm < 0 {
		pm = 0
	}
	mm.Lat.PostMatch.Observe(pm)
	mm.Lat.UnexRes.Observe(0)
	mm.Flight.Record(flight.Deposit, int64(arrival), src, len(payload), 0)
	d.completeRecv(rs, env.bits, cp, src, arrival)
}

// completeRecv copies the payload into the posted buffer and fills
// status. The arrival time is folded into the receiver's clock when
// the receive completion is observed (finish), not here.
func (d *Device) completeRecv(rs *recvState, bits match.Bits, payload []byte, src int, arrival vtime.Time) {
	d.charge(instr.Mandatory, cost(instr.MatchComplete))
	n := copy(rs.buf, payload)
	rs.n = n
	rs.truncated = n < len(payload)
	rs.src = bits.Source()
	rs.tag = bits.Tag()
	rs.arrival = arrival
	rs.done = true
}

// Irecv posts a receive into the software matching engine.
func (d *Device) Irecv(buf []byte, count int, dt *datatype.Type, src, tag int,
	c *comm.Comm, flags core.OpFlags) (*request.Request, error) {

	d.lock()
	defer d.unlock()
	d.charge(instr.Call, cost(instr.Dispatch))
	d.charge(instr.Mandatory, cost(instr.ProcNull))
	if src == core.ProcNull {
		r := d.g.pool.GetFor(request.KindRecv, nil, d.rank.Metrics())
		r.MarkComplete(request.Status{Source: core.ProcNull, Tag: core.AnyTag})
		return r, nil
	}
	d.charge(instr.Mandatory, cost(instr.CommDeref)+cost(instr.MatchBits))

	var bits, mask match.Bits
	if flags.Has(core.FlagNoMatch) {
		bits = match.MakeBits(c.Ctx, 0, 0)
		mask = match.NoMatchMask
	} else {
		bits, mask = match.RecvBits(c.Ctx, src, tag)
	}

	d.charge(instr.Redundant, cost(instr.RedundantMarshal)+cost(instr.RedundantReload)+
		cost(instr.RedundantBufAddr)+cost(instr.PacketGeneric))
	d.meter.ChargeType(dt, cost(instr.RedundantDatatype))

	rs := &recvState{d: d, posted: d.rank.Now()}
	if view, ok := datatype.ContigView(dt, count, buf); ok {
		rs.buf = view
	} else {
		rs.buf = make([]byte, datatype.PackedSize(dt, count))
		rs.user, rs.dt, rs.count = buf, dt, count
	}

	// Progress first so pending packets are matched in software before
	// the posted queue grows (CH3 polls on entry).
	d.progressLocked()
	d.charge(instr.Mandatory, cost(instr.Request))
	before := d.eng.Searches
	entry, ok := d.eng.PostRecv(bits, mask, rs)
	d.charge(instr.Mandatory, cost(instr.MatchSearch)*(d.eng.Searches-before))
	mm := d.rank.Metrics()
	if ok {
		u := entry.Cookie.(*unexpected)
		// Unexpected-queue residency, with zero post→match (the message
		// was already here when the receive arrived).
		res := int64(d.rank.Now() - u.arrival)
		if res < 0 {
			res = 0
		}
		mm.Lat.UnexRes.Observe(res)
		mm.Lat.PostMatch.Observe(0)
		mm.Flight.Record(flight.UnexHit, int64(d.rank.Now()), u.src, len(u.data), 0)
		d.completeRecv(rs, entry.Bits, u.data, u.src, u.arrival)
	} else {
		mm.Raise(&mm.Match.PostedMax, int64(d.eng.PostedLen()))
		mm.Flight.Record(flight.PostRecv, int64(d.rank.Now()), bits.Source(), 0, 0)
	}

	r := d.g.pool.GetFor(request.KindRecv, rs, d.rank.Metrics())
	r.Issued = int64(d.rank.Now())
	return r, nil
}

// Poll, Block and Recycle make the receive its request's driver
// (request.Driver), inside the critical section. The baseline recycles
// nothing: the state and its request are left to the collector.
func (rs *recvState) Poll(r *request.Request) bool {
	rs.d.lock()
	defer rs.d.unlock()
	if rs.d.progressLocked(); rs.done {
		rs.finish(r)
	}
	return rs.done
}

func (rs *recvState) Block(r *request.Request) {
	rs.d.lock()
	defer rs.d.unlock()
	rs.d.waitUntil(rs.matched)
	rs.finish(r)
}

func (rs *recvState) Recycle(*request.Request) {}
func (rs *recvState) matched() bool            { return rs.done }

// finish completes the matched receive's request: the clock syncs to
// the packet's arrival and a derived layout unpacks.
func (rs *recvState) finish(r *request.Request) {
	d := rs.d
	mm := d.rank.Metrics()
	// Wait park time: how far ahead of this rank's clock the matched
	// packet arrived (zero when the rank got there after it).
	mm.Lat.WaitPark.Observe(max(int64(rs.arrival-d.rank.Now()), 0))
	d.rank.Sync(rs.arrival)
	if rs.dt != nil {
		if _, err := datatype.Unpack(rs.dt, rs.count, rs.buf[:rs.n], rs.user); err != nil {
			rs.truncated = true
		}
	}
	mm.Lat.ReqLife.Observe(int64(d.rank.Now()) - r.Issued)
	mm.Flight.Record(flight.RecvDone, int64(d.rank.Now()), rs.src, rs.n, 0)
	r.MarkComplete(request.Status{Source: rs.src, Tag: rs.tag, Count: rs.n, Truncated: rs.truncated})
}

// Iprobe checks the unexpected queue under software matching.
func (d *Device) Iprobe(src, tag int, c *comm.Comm) (request.Status, bool, error) {
	d.lock()
	defer d.unlock()
	d.progressLocked()
	bits, mask := match.RecvBits(c.Ctx, src, tag)
	before := d.eng.Searches
	entry, ok := d.eng.Probe(bits, mask)
	d.charge(instr.Mandatory, cost(instr.MatchSearch)*(d.eng.Searches-before))
	if !ok {
		return request.Status{}, false, nil
	}
	u := entry.Cookie.(*unexpected)
	return request.Status{Source: entry.Bits.Source(), Tag: entry.Bits.Tag(), Count: len(u.data)}, true, nil
}

// Improbe extracts a matchable message from the software matching
// engine (MPI_IMPROBE).
func (d *Device) Improbe(src, tag int, c *comm.Comm) ([]byte, request.Status, vtime.Time, bool, error) {
	d.lock()
	defer d.unlock()
	d.progressLocked()
	bits, mask := match.RecvBits(c.Ctx, src, tag)
	before := d.eng.Searches
	entry, ok := d.eng.ExtractUnexpected(bits, mask)
	d.charge(instr.Mandatory, cost(instr.MatchSearch)*(d.eng.Searches-before))
	if !ok {
		return nil, request.Status{}, 0, false, nil
	}
	u := entry.Cookie.(*unexpected)
	st := request.Status{Source: entry.Bits.Source(), Tag: entry.Bits.Tag(), Count: len(u.data)}
	return u.data, st, u.arrival, true, nil
}

// CommWaitall completes requestless operations.
func (d *Device) CommWaitall(c *comm.Comm) error {
	d.lock()
	defer d.unlock()
	if c.NoReq.Pending() == 0 {
		return nil
	}
	d.waitUntil(func() bool { return c.NoReq.Pending() == 0 })
	return nil
}
