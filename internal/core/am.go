package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"gompi/internal/coll"
	"gompi/internal/datatype"
	"gompi/internal/fabric"
	"gompi/internal/instr"
	"gompi/internal/proc"
	"gompi/internal/vtime"
)

// The one-sided packet ids. A device's own active messages take ids
// from AMFirstFree on.
const (
	amPut uint8 = iota + 1
	amAcc
	amGetReq
	amGetAcc
	amGetResp
	amAck
	AMFirstFree
)

// AMCosts is a device's column of the target-side handler rows: Move
// prices placing or gathering n bytes, Fold folding n bytes into window
// memory.
type AMCosts struct{ Move, Fold func(n int) int64 }

// AM is the active-message packet set for one-sided operations: the
// emulation CH3 lowers every operation to, and CH4 keeps for what a
// netmod cannot do natively. A Put or an Accumulate is acknowledged by
// an empty Ack; a Get request, and a GetAccumulate, are answered by a
// Get response carrying the prior bytes. A GetAccumulate is one packet
// and one handler step: it gathers the prior bytes and folds in the new
// ones under the target region's atomicity lock, which every fold takes
// so it excludes a NIC atomic on the same bytes.
//
// A request header is an amHdr zero-padded to the device's fixed header
// size, then the target layout (datatype.Layout.Append); a response
// header is its sequence number, padded the same way. The set belongs
// to one rank, but under MPI_THREAD_MULTIPLE any of the rank's
// goroutines may issue, wait and run the handlers: mu guards the
// counters, the sequence number and the fetch table, and is never held
// across a wait. A handler that completes a wait notifies the endpoint,
// because the waiter may be another goroutine that checked its
// predicate just before the handler ran and is about to park.
type AM struct {
	rank  *proc.Rank
	fab   *fabric.Fabric
	ep    *fabric.Endpoint
	pad   int
	costs AMCosts
	wait  func(pred func() bool)

	mu          sync.Mutex
	sent, acked int64
	ackArrival  vtime.Time // latest ack arrival, folded in at flush
	seq         uint32
	fetches     map[uint32]*fetch
}

// amHdr is the fixed part of every request header, amHdrLen bytes on
// the wire; a kind leaves the fields it does not use zero.
type amHdr struct {
	key, off, n, seq uint32 // region key, byte offset, packed length, fetch number
	op, elem         uint8  // a fold's op and element code
}

const amHdrLen = 18

// fetch is one Get or GetAccumulate awaiting its response; the handler
// fills it under the set's mu.
type fetch struct {
	buf     []byte
	done    bool
	arrival vtime.Time
}

// NewAM registers the packet set's handlers on r's endpoint of fab.
// pad is the device's fixed header size (0: a header is as long as its
// fields), costs its target-side handler rows, and wait its blocking
// wait, which runs the rank's progress engine until pred holds.
func NewAM(r *proc.Rank, fab *fabric.Fabric, pad int, costs AMCosts, wait func(pred func() bool)) *AM {
	a := &AM{rank: r, fab: fab, ep: fab.Endpoint(r.ID()), pad: pad, costs: costs, wait: wait,
		fetches: make(map[uint32]*fetch)}
	for _, kind := range []uint8{amPut, amAcc, amGetReq, amGetAcc} {
		a.ep.RegisterAM(kind, func(src int, hdr, payload []byte, _ vtime.Time) { a.serve(src, kind, hdr, payload) })
	}
	a.ep.RegisterAM(amGetResp, a.handleGetResp)
	a.ep.RegisterAM(amAck, a.handleAck)
	return a
}

// Put ships data, count elements of dt packed, into world's window at
// (key, off).
func (a *AM) Put(world, key, off, count int, dt *datatype.Type, data []byte) {
	a.noteSent()
	a.send(world, amPut, amHdr{key: uint32(key), off: uint32(off)}, count, dt, data)
}

// Accumulate ships data, count elements of dt packed, to be folded
// with op into world's window at (key, off).
func (a *AM) Accumulate(world, key, off, count int, dt *datatype.Type, op coll.Op, data []byte) {
	a.noteSent()
	a.send(world, amAcc, foldHdr(key, off, dt, op), count, dt, data)
}

// Get fetches count elements of dt from world's window at (key, off)
// into origin.
func (a *AM) Get(world, key, off, count int, dt *datatype.Type, origin []byte) error {
	return a.await(world, amGetReq, amHdr{key: uint32(key), off: uint32(off)}, count, dt, nil, origin)
}

// GetAccumulate ships data, count elements of dt packed, to be folded
// with op into world's window at (key, off), and fetches the prior
// contents into result, laid out like the origin.
func (a *AM) GetAccumulate(world, key, off, count int, dt *datatype.Type, op coll.Op, data, result []byte) error {
	return a.await(world, amGetAcc, foldHdr(key, off, dt, op), count, dt, data, result)
}

// noteSent counts one acknowledged request sent.
func (a *AM) noteSent() {
	a.mu.Lock()
	a.sent++
	a.mu.Unlock()
}

// foldHdr is an Accumulate's or a GetAccumulate's header.
func foldHdr(key, off int, dt *datatype.Type, op coll.Op) amHdr {
	return amHdr{key: uint32(key), off: uint32(off), op: uint8(op), elem: uint8(coll.ElemCode(dt.BaseElem()))}
}

// send ships one request for count elements of dt: h, padded, then
// their layout.
func (a *AM) send(world int, kind uint8, h amHdr, count int, dt *datatype.Type, data []byte) {
	h.n = uint32(datatype.PackedSize(dt, count))
	l := datatype.LayoutOf(dt, count)
	b := make([]byte, 0, max(amHdrLen, a.pad)+12+8*len(l.Segs))
	for _, v := range [...]uint32{h.key, h.off, h.n, h.seq} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	a.ep.AMSend(world, kind, l.Append(a.padded(append(b, h.op, h.elem))), data)
}

// await sends a fetching request and waits for its response: the
// fetched bytes land in into, laid out as count elements of dt, and the
// response's arrival (the round trip) is folded into the clock.
func (a *AM) await(world int, kind uint8, h amHdr, count int, dt *datatype.Type, data, into []byte) error {
	f := &fetch{}
	view, contig := datatype.ContigView(dt, count, into)
	if f.buf = view; !contig {
		f.buf = make([]byte, datatype.PackedSize(dt, count))
	}
	a.mu.Lock()
	a.seq++
	h.seq = a.seq
	a.fetches[h.seq] = f
	a.mu.Unlock()
	a.send(world, kind, h, count, dt, data)
	a.wait(func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return f.done
	})
	a.mu.Lock()
	delete(a.fetches, h.seq)
	a.mu.Unlock()
	a.rank.Sync(f.arrival)
	if contig {
		return nil
	}
	_, err := datatype.Unpack(dt, count, f.buf, into)
	return err
}

// Flush waits until every Put and Accumulate sent is acknowledged.
func (a *AM) Flush() { a.FlushTo(a.Sent()) }

// FlushTo waits until the first mark Puts and Accumulates are
// acknowledged, then folds the latest acknowledgement's arrival into
// the clock.
func (a *AM) FlushTo(mark int64) {
	if a.Acked() < mark {
		a.wait(func() bool { return a.Acked() >= mark })
	}
	a.mu.Lock()
	arrival := a.ackArrival
	a.mu.Unlock()
	a.rank.Sync(arrival)
}

// Sent counts the Puts and Accumulates sent: a mark for FlushTo.
func (a *AM) Sent() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sent
}

// Acked counts the Puts and Accumulates acknowledged.
func (a *AM) Acked() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.acked
}

// padded zero-fills b up to the device's fixed header size.
func (a *AM) padded(b []byte) []byte {
	for len(b) < a.pad {
		b = append(b, 0)
	}
	return b
}

// serve is the target side of every request, per its layout: a Put
// places the payload, a Get request gathers the bytes, an Accumulate
// folds the payload and a GetAccumulate gathers and folds in one step.
// A fold holds the region's atomicity lock. A Put or Accumulate is
// acknowledged; a fetch is answered with the gathered bytes.
func (a *AM) serve(src int, kind uint8, hdr, payload []byte) {
	u := func(i int) uint32 { return binary.LittleEndian.Uint32(hdr[4*i:]) }
	h := amHdr{u(0), u(1), u(2), u(3), hdr[16], hdr[17]}
	l, _ := datatype.DecodeLayout(hdr[max(amHdrLen, a.pad):])
	n, fold := int(h.n), kind == amAcc || kind == amGetAcc
	var old []byte
	if kind == amGetReq || kind == amGetAcc {
		old = make([]byte, n)
	}
	op, elem := coll.Op(h.op), coll.ElemFromCode(int(h.elem))
	walk := func(mem []byte) {
		mem = mem[h.off:]
		l.Walk(n, func(at, pos, k int) {
			t := mem[at : at+k]
			if old != nil {
				copy(old[pos:], t)
			}
			if kind == amPut {
				copy(t, payload[pos:pos+k])
			} else if fold {
				if err := coll.Apply(op, elem, t, payload[pos:pos+k]); err != nil {
					panic(fmt.Errorf("am accumulate: %w", err))
				}
			}
		})
	}
	if fold {
		a.rank.Charge(instr.Mandatory, a.costs.Fold(n))
		a.fab.RegionAtomic(a.rank.ID(), int(h.key), walk)
	} else {
		a.rank.Charge(instr.Mandatory, a.costs.Move(n))
		walk(a.fab.RegionMem(a.rank.ID(), int(h.key)))
	}
	if old == nil {
		a.ep.AMSend(src, amAck, nil, nil)
		return
	}
	a.ep.AMSend(src, amGetResp, a.padded(binary.LittleEndian.AppendUint32(nil, h.seq)), old)
}

// handleGetResp completes a pending fetch.
func (a *AM) handleGetResp(_ int, hdr, payload []byte, arrival vtime.Time) {
	seq := binary.LittleEndian.Uint32(hdr)
	a.mu.Lock()
	f := a.fetches[seq]
	if f == nil {
		a.mu.Unlock()
		panic(fmt.Errorf("get response for unknown sequence %d", seq))
	}
	copy(f.buf, payload)
	f.arrival = arrival
	f.done = true
	a.mu.Unlock()
	a.ep.Notify()
}

// handleAck counts an acknowledgement; its arrival folds into the clock
// at the next flush.
func (a *AM) handleAck(_ int, _, _ []byte, arrival vtime.Time) {
	a.mu.Lock()
	a.acked++
	a.ackArrival = max(a.ackArrival, arrival)
	a.mu.Unlock()
	a.ep.Notify()
}
