// Package flight is each rank's record of where its work goes: one
// Kind and one Event, kept in three views.
//
//   - Ring, always on and bounded: the rank's last Size protocol
//     events (no allocation, no growth, 24 bytes a slot), left running
//     on every build for post-mortem diagnosis. When a job aborts,
//     tears down on error, or trips the stall watchdog, each rank's
//     last protocol steps are dumped without re-running under
//     Config.Trace.
//   - Lane, the arrivals at one VCI: what peers landed at its matching
//     unit, dumped beside the queues it explains.
//   - Log, opt-in (Config.Trace) and sized by Config.TraceEvents: an
//     MPE-style span per MPI operation, with its virtual-time interval,
//     peer and payload size. It gives the per-operation view — which
//     calls, how often, how long, to whom — that Summarize aggregates
//     by kind and WriteChrome exports.
//
// Every view is written by its rank alone (a shared Ring excepted) and
// copied out oldest-first at dump or teardown time.
package flight

import (
	"fmt"
	"io"
	"sync"

	"gompi/internal/vtime"
)

// Kind classifies one recorded event.
type Kind uint8

// Protocol event kinds, recorded into a Ring or a Lane.
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
	RmaFlush                // passive-target flush completed (peer = target or -1 for all); in a Log, a Flush* span
	NotifyWait              // notified-access wait posted (peer = origin)
	Pready                  // partitioned send: partition marked ready (peer = dst, bytes = partition)
	Parrived                // partitioned recv: chunk observed complete (peer = src, bytes = chunk)
)

// API span kinds, recorded into a Log (the flush span is RmaFlush).
const (
	Send   Kind = iota + Parrived + 1 // a send, blocking or posted
	Recv                              // a receive, blocking or posted
	Wait                              // a completion wait
	Probe                             // a probe or mprobe
	Coll                              // a collective
	Put                               // one-sided put
	Get                               // one-sided get
	Acc                               // one-sided accumulate, get-accumulate or fetch-and-op
	Sync                              // fence, lock/unlock, PSCW
	Sched                             // one dependency round of a collective schedule
	Notify                            // notified access (PutNotify token send, WaitNotify wait)
	Phase                             // one application phase region (Proc.PhaseBegin/PhaseEnd)
	numKinds
)

var kindNames = [numKinds]string{
	"send-eager", "send-rndv", "shm-send", "deposit", "unexpected",
	"post-recv", "unex-hit", "recv-done", "am-send", "am-recv", "park",
	"shm-handoff", "handoff-done",
	"rma-put", "rma-get", "rma-acc", "rma-flush", "notify-wait",
	"pready", "parrived",
	"send", "recv", "wait", "probe", "collective", "put", "get",
	"accumulate", "rma-sync", "sched-round", "rma-notify", "phase",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded step. Start and End bound it on the recording
// rank's virtual clock, in cycles; a Ring or Lane event is an instant
// (End == Start). Peer is the other rank involved and VCI the virtual
// communication interface used, each -1 when not applicable (zero
// names interface 0, so recorders set VCI explicitly). Seq is the
// event's position in its view's stream; After is set on a Lane's
// events only.
type Event struct {
	Kind  Kind
	Peer  int
	Bytes int
	VCI   int
	Start vtime.Time
	End   vtime.Time
	// Name is the application-chosen label of a Phase event (empty for
	// library operations, whose Kind names them).
	Name string
	// Useful and Comm split a Phase event's cycles into
	// application-compute and everything-else (MPI instructions,
	// transport, waiting); zero for other kinds.
	Useful int64
	Comm   int64
	Seq    uint64
	After  uint64
}

// Dur returns the event's virtual duration in cycles.
func (e Event) Dur() int64 { return int64(e.End - e.Start) }

// oldestFirst copies out the last min(n, keep) events of a stream of n,
// oldest first; at reads event seq from its slot.
func oldestFirst(n, keep uint64, at func(seq uint64) Event) []Event {
	evs := make([]Event, min(n, keep))
	for i := range evs {
		evs[i] = at(n - uint64(len(evs)) + uint64(i))
	}
	return evs
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
	t := vtime.Time(s.t)
	return Event{Kind: s.kind, Peer: int(s.peer), Bytes: int(s.bytes), VCI: int(s.vci), Start: t, End: t, Seq: seq}
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
	return oldestFirst(r.n, Size, func(seq uint64) Event { return r.buf[seq%slots].event(seq) }), r.n
}

// String renders the event as one dump line.
func (e Event) String() string {
	return fmt.Sprintf("#%d @%d %s peer=%d bytes=%d vci=%d", e.Seq, e.Start, e.Kind, e.Peer, e.Bytes, e.VCI)
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
	return oldestFirst(l.n, LaneSize, func(seq uint64) Event {
		e := l.buf[seq%LaneSize].event(seq)
		e.After = l.after[seq%LaneSize]
		return e
	})
}
