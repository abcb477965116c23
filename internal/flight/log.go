package flight

import (
	"fmt"
	"io"
	"sort"
)

// Log is one rank's opt-in span log, a ring that overwrites its oldest
// events once full. The zero value is disabled; Enable sizes it. Only
// the owning rank's goroutine may call its methods.
type Log struct {
	events []Event // nil until Enable
	n      uint64  // events ever recorded
}

// Enable activates recording with space for cap events, 4096 when cap
// is not positive (older events are overwritten once the ring fills).
func (l *Log) Enable(cap int) {
	if cap < 1 {
		cap = 4096
	}
	l.events, l.n = make([]Event, cap), 0
}

// Enabled reports whether recording is active.
func (l *Log) Enabled() bool { return l.events != nil }

// Record appends one event.
func (l *Log) Record(e Event) {
	if l.events == nil {
		return
	}
	l.events[l.n%uint64(len(l.events))] = e
	l.n++
}

// Events returns the retained events in chronological order.
func (l *Log) Events() []Event {
	c := uint64(len(l.events))
	return oldestFirst(l.n, c, func(seq uint64) Event {
		e := l.events[seq%c]
		e.Seq = seq
		return e
	})
}

// Dropped returns how many events were overwritten.
func (l *Log) Dropped() int64 { return int64(l.n - min(l.n, uint64(len(l.events)))) }

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

// summaryOrder is the order Summarize hands kinds to its sort, and so
// how kinds that tie on cycles are listed: the span kinds, with the
// flush span after Sched, then the protocol kinds.
var summaryOrder = [...]Kind{
	Send, Recv, Wait, Probe, Coll, Put, Get, Acc, Sync, Sched, RmaFlush, Notify, Phase,
	SendEager, SendRndv, ShmSend, Deposit, Unexpected, PostRecv, UnexHit, RecvDone, AMSend, AMRecv,
	Park, ShmHandoff, HandoffDone, RmaPut, RmaGet, RmaAcc, NotifyWait, Pready, Parrived,
}

// Summarize aggregates the log.
func (l *Log) Summarize() Summary {
	var acc [numKinds]KindStat
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
	for _, k := range summaryOrder {
		if s := acc[k]; s.Count > 0 {
			s.Kind = k
			stats = append(stats, s)
		}
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Cycles > stats[j].Cycles })
	return Summary{Stats: stats, Total: total, Cycles: cycles, Dropped: l.Dropped()}
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
