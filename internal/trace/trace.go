// Package trace is the per-rank event-tracing substrate: an MPE-style
// log of every MPI operation with virtual-time intervals, peers, and
// payload sizes. The paper's analysis aggregates instructions by
// category; the trace gives the per-operation view — which calls, how
// often, how long, to whom — that a profiler user of the library would
// expect. Recording is owner-goroutine-only and allocation-free after
// the ring fills.
package trace

import (
	"fmt"
	"io"
	"sort"

	"gompi/internal/vtime"
)

// Kind classifies traced operations.
type Kind uint8

// Operation kinds.
const (
	KindSend Kind = iota
	KindRecv
	KindWait
	KindProbe
	KindColl
	KindPut
	KindGet
	KindAcc
	KindSync   // fence, lock/unlock, PSCW
	KindSched  // one dependency round of a collective schedule
	KindFlush  // passive-target flush (Flush/FlushLocal/FlushAll variants)
	KindNotify // notified access (PutNotify token send, WaitNotify wait)
	KindPhase  // one application phase region (Proc.PhaseBegin/PhaseEnd)
	numKinds
)

// String returns the display name.
func (k Kind) String() string {
	switch k {
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindWait:
		return "wait"
	case KindProbe:
		return "probe"
	case KindColl:
		return "collective"
	case KindPut:
		return "put"
	case KindGet:
		return "get"
	case KindAcc:
		return "accumulate"
	case KindSync:
		return "rma-sync"
	case KindSched:
		return "sched-round"
	case KindFlush:
		return "rma-flush"
	case KindNotify:
		return "rma-notify"
	case KindPhase:
		return "phase"
	default:
		return "unknown"
	}
}

// Event is one recorded operation.
type Event struct {
	Kind  Kind
	Peer  int // communicator rank, ProcNull, or -1 when not applicable
	Bytes int
	// VCI is the virtual communication interface the operation used —
	// its communicator's lane — or -1 when not applicable (collectives,
	// waits, RMA, the baseline device). Zero names interface 0, so
	// recorders must set the field explicitly.
	VCI   int
	Start vtime.Time
	End   vtime.Time
	// Name is the application-chosen label of a KindPhase event (empty
	// for library operations, whose Kind names them).
	Name string
	// Useful and Comm split a KindPhase event's cycles into
	// application-compute and everything-else (MPI instructions,
	// transport, waiting); zero for other kinds.
	Useful int64
	Comm   int64
}

// Dur returns the event's virtual duration in cycles.
func (e Event) Dur() int64 { return int64(e.End - e.Start) }

// Log is one rank's bounded event log. The zero value is disabled;
// Enable sizes the ring. Only the owning rank's goroutine may call its
// methods.
type Log struct {
	events  []Event
	next    int
	wrapped bool
	dropped int64
	enabled bool
}

// Enable activates recording with space for cap events (older events
// are overwritten once the ring fills).
func (l *Log) Enable(cap int) {
	if cap < 1 {
		cap = 1024
	}
	l.events = make([]Event, 0, cap)
	l.next, l.wrapped, l.dropped = 0, false, 0
	l.enabled = true
}

// Enabled reports whether recording is active.
func (l *Log) Enabled() bool { return l.enabled }

// Record appends one event.
func (l *Log) Record(e Event) {
	if !l.enabled {
		return
	}
	if len(l.events) < cap(l.events) {
		l.events = append(l.events, e)
		return
	}
	// Ring overwrite.
	l.events[l.next] = e
	l.next = (l.next + 1) % cap(l.events)
	l.wrapped = true
	l.dropped++
}

// Events returns the recorded events in chronological order.
func (l *Log) Events() []Event {
	if !l.wrapped {
		return append([]Event(nil), l.events...)
	}
	out := make([]Event, 0, len(l.events))
	out = append(out, l.events[l.next:]...)
	out = append(out, l.events[:l.next]...)
	return out
}

// Dropped returns how many events were overwritten.
func (l *Log) Dropped() int64 { return l.dropped }

// KindStat aggregates one operation kind.
type KindStat struct {
	Kind   Kind
	Count  int64
	Cycles int64
	Bytes  int64
	MaxDur int64
}

// Summary is the per-kind aggregation of a log.
type Summary struct {
	Stats   []KindStat // only kinds that occurred, by descending cycles
	Total   int64      // events
	Cycles  int64
	Dropped int64
}

// Summarize aggregates the log.
func (l *Log) Summarize() Summary {
	var acc [numKinds]KindStat
	for i := range acc {
		acc[i].Kind = Kind(i)
	}
	var total, cycles int64
	for _, e := range l.Events() {
		s := &acc[e.Kind]
		s.Count++
		s.Cycles += e.Dur()
		s.Bytes += int64(e.Bytes)
		if d := e.Dur(); d > s.MaxDur {
			s.MaxDur = d
		}
		total++
		cycles += e.Dur()
	}
	var stats []KindStat
	for _, s := range acc {
		if s.Count > 0 {
			stats = append(stats, s)
		}
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Cycles > stats[j].Cycles })
	return Summary{Stats: stats, Total: total, Cycles: cycles, Dropped: l.dropped}
}

// Write renders the summary as a profile table.
func (s Summary) Write(w io.Writer) {
	fmt.Fprintf(w, "%-12s %10s %14s %12s %12s\n", "Operation", "Count", "Cycles", "Bytes", "MaxCycles")
	for _, st := range s.Stats {
		fmt.Fprintf(w, "%-12s %10d %14d %12d %12d\n", st.Kind, st.Count, st.Cycles, st.Bytes, st.MaxDur)
	}
	fmt.Fprintf(w, "%-12s %10d %14d", "total", s.Total, s.Cycles)
	if s.Dropped > 0 {
		fmt.Fprintf(w, "   (%d events dropped)", s.Dropped)
	}
	fmt.Fprintln(w)
}
