// Package flight is the always-on flight recorder: a fixed-size
// per-rank ring of recent protocol events, far cheaper than full event
// tracing (no per-event allocation, no growth, a few words per entry)
// and therefore left running on every build. Its job is post-mortem
// diagnosis: when a job aborts, tears down on error, or trips the
// stall watchdog, each rank's last protocol steps are dumped so the
// failure's communication history is visible without re-running under
// Config.Trace.
package flight

import (
	"fmt"
	"io"
	"sync"
)

// Kind classifies one recorded protocol event.
type Kind uint8

// Protocol event kinds.
const (
	SendEager   Kind = iota // eager tagged send injected (peer = dst)
	SendRndv                // rendezvous tagged send injected (peer = dst)
	ShmSend                 // shared-memory send started (peer = dst)
	Deposit                 // incoming message matched a posted receive (peer = src)
	Unexpected              // incoming message buffered unexpected (peer = src)
	PostRecv                // receive posted, no unexpected match (peer = src or -1)
	UnexHit                 // receive posted, satisfied from unexpected queue
	RecvDone                // receive completion reaped
	AMSend                  // active message injected (peer = dst)
	AMRecv                  // active message delivered (peer = src)
	Park                    // goroutine blocked waiting for transport events
	ShmHandoff              // zero-copy handoff descriptor published (peer = dst, bytes = full payload)
	HandoffDone             // handoff completion ack observed by the sender (peer = dst)
	RmaPut                  // one-sided put issued (peer = target)
	RmaGet                  // one-sided get issued (peer = target)
	RmaAcc                  // one-sided accumulate/get-accumulate issued (peer = target)
	RmaFlush                // passive-target flush completed (peer = target or -1 for all)
	NotifyWait              // notified-access wait posted (peer = origin)
	Pready                  // partitioned send: partition marked ready (peer = dst, bytes = partition)
	Parrived                // partitioned recv: chunk observed complete (peer = src, bytes = chunk)
	numKinds
)

var kindNames = [numKinds]string{
	"send-eager", "send-rndv", "shm-send", "deposit", "unexpected",
	"post-recv", "unex-hit", "recv-done", "am-send", "am-recv", "park",
	"shm-handoff", "handoff-done",
	"rma-put", "rma-get", "rma-acc", "rma-flush", "notify-wait",
	"pready", "parrived",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded protocol step. T is the recording rank's
// virtual clock in cycles; Peer is the other rank involved (-1 when
// not applicable); VCI is the virtual interface (-1 when not
// applicable). After is set on a Lane's events only.
type Event struct {
	Seq   uint64
	T     int64
	Kind  Kind
	VCI   int16
	Peer  int32
	Bytes int32
	After uint64
}

// slot is a stored event: 24 bytes, its sequence number being its
// position in the stream.
type slot struct {
	t     int64
	peer  int32
	bytes int32
	vci   int16
	kind  Kind
}

// set fills the slot field by field: assembling a value and copying it
// in makes the copy's wide loads wait on the narrow stores.
func (s *slot) set(k Kind, t int64, peer, bytes, vci int) {
	s.t, s.peer, s.bytes, s.vci, s.kind = t, int32(peer), int32(bytes), int16(vci), k
}

func (s *slot) event(seq uint64) Event {
	return Event{Seq: seq, T: s.t, Kind: s.kind, VCI: s.vci, Peer: s.peer, Bytes: s.bytes}
}

// Size is how many recent events a dump shows: enough history to see
// the protocol exchange that led to a stall, small enough to live
// inside every rank's metrics registry.
const Size = 128

// flushEvery bounds the owner's unpublished tail: Record flushes every
// flushEvery events. The ring holds that many slots beyond Size — the
// ones the owner may be overwriting, which no reader touches — and
// still fits the 4 KiB that Size 32-byte events took.
const (
	flushEvery = 32
	slots      = Size + flushEvery
)

// Ring is a bounded ring of the rank's most recent protocol events. The
// zero value is ready to use and single-writer: only the owning rank's
// goroutine calls Record, one plain store, and what it stored becomes
// visible to other goroutines (Events, Dump) at the next Flush — every
// park, every flushEvery events, rank exit — so a dump from another
// goroutine reads the ring "as of last park", like the clock printed
// beside it. Readers copy only the Size events before the published
// count; a slot is reused only after a later Flush, which orders the
// store behind any reader of the earlier count. A ring several
// goroutines record into (MPI_THREAD_MULTIPLE) is marked with Share and
// takes the mutex on every Record.
type Ring struct {
	buf    [slots]slot
	next   uint64 // events ever recorded; the owner's (mu's once shared)
	shared bool

	mu sync.Mutex
	n  uint64 // next as of the last Flush
}

// Share marks the ring as recorded into by several goroutines, before
// the first Record.
func (r *Ring) Share() { r.shared = true }

// Record appends one event, overwriting the oldest once full. It never
// allocates.
func (r *Ring) Record(k Kind, t int64, peer, bytes, vci int) {
	if r.shared {
		r.mu.Lock()
		r.buf[r.next%slots].set(k, t, peer, bytes, vci)
		r.next++
		r.n = r.next
		r.mu.Unlock()
		return
	}
	r.buf[r.next%slots].set(k, t, peer, bytes, vci)
	r.next++
	if r.next%flushEvery == 0 {
		r.Flush()
	}
}

// Flush publishes every event recorded so far (recording goroutines).
func (r *Ring) Flush() {
	r.mu.Lock()
	r.n = r.next
	r.mu.Unlock()
}

// Pos returns how many events have been recorded (recording goroutines):
// the position a Lane stamps its events with.
func (r *Ring) Pos() uint64 {
	if !r.shared {
		return r.next
	}
	r.mu.Lock()
	n := r.next
	r.mu.Unlock()
	return n
}

// Events returns the last Size published events oldest-first, and how
// many were ever published. Dump-time only: it allocates the copy.
func (r *Ring) Events() (evs []Event, total uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	evs = make([]Event, min(r.n, Size))
	for i := range evs {
		seq := r.n - uint64(len(evs)) + uint64(i)
		evs[i] = r.buf[seq%slots].event(seq)
	}
	return evs, r.n
}

// String renders the event as one dump line.
func (e Event) String() string {
	return fmt.Sprintf("#%d @%d %s peer=%d bytes=%d vci=%d", e.Seq, e.T, e.Kind, e.Peer, e.Bytes, e.VCI)
}

// Dump renders the retained events human-readably, oldest first, one
// line each, prefixed by label.
func (r *Ring) Dump(w io.Writer, label string) {
	evs, total := r.Events()
	fmt.Fprintf(w, "%s flight recorder: %d event(s) recorded, last %d:\n", label, total, len(evs))
	for _, e := range evs {
		fmt.Fprintf(w, "%s   %s\n", label, e)
	}
}

// LaneSize is the capacity of a Lane. Every fabric interface embeds
// one, and 16 is what fits with it under a 2688-byte allocation (24
// would take the next size class, 384 B more per interface).
const LaneSize = 16

// Lane is the arrival-side companion of a Ring: the last LaneSize
// messages peers landed at one matching unit (deposits into posted
// receives, unexpected arrivals). It has no synchronization of its own:
// every access is made under the lock of the interface embedding it.
//
// A lane numbers its own events; what orders them against the owning
// rank's ring is After: the owner, whenever it holds the interface's
// lock anyway (posting a receive, parking on the interface), notes its
// ring's Pos there, and each arrival is stamped with the latest note —
// at least that many of the rank's own events precede it. For a rank
// parked on the interface, the watchdog's case, that is exact.
type Lane struct {
	buf   [LaneSize]slot
	after [LaneSize]uint64
	n     uint64
	After uint64
}

// Record appends one event, overwriting the oldest once full.
func (l *Lane) Record(k Kind, t int64, peer, bytes, vci int) {
	i := l.n % LaneSize
	l.buf[i].set(k, t, peer, bytes, vci)
	l.after[i] = l.After
	l.n++
}

// Events returns the lane's events oldest-first (dump-time only).
func (l *Lane) Events() []Event {
	evs := make([]Event, min(l.n, LaneSize))
	for i := range evs {
		seq := l.n - uint64(len(evs)) + uint64(i)
		evs[i] = l.buf[seq%LaneSize].event(seq)
		evs[i].After = l.after[seq%LaneSize]
	}
	return evs
}
