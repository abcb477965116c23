package fabric

import (
	"fmt"
	"io"
	"sync/atomic"

	"gompi/internal/match"
)

// WriteWaitGraph renders the fabric's matching state for deadlock
// diagnosis: every endpoint's unmatched posted receives, buffered
// unexpected messages, each interface's last arrivals (flight.Lane),
// queued active messages, and the who-waits-on-whom edges implied by
// posted receives with a concrete source and by lent rendezvous sends
// parked unexpected (their senders wait on the receiver). Each VCI lock
// is taken one at a time, so the dump is safe while ranks are parked
// (parked waiters hold no VCI lock inside cond.Wait).
func (f *Fabric) WriteWaitGraph(w io.Writer) {
	fmt.Fprintf(w, "wait-graph: %d rank(s), %d vci(s) each\n", len(f.eps), f.nvci)
	type edge struct {
		from, to int
		class    string
	}
	var edges []edge
	lazy := 0
	for i := range f.eps {
		// Never-materialized endpoints have no queues and no waiters;
		// summarize them in one line instead of dumping (or worse,
		// materializing) each. Materialized lazy peers appear exactly
		// like eager ones below.
		ep := f.peek(i)
		if ep == nil {
			lazy++
			continue
		}
		posted, unex := 0, 0
		var lines []string
		for v, s := range ep.vcis {
			s.mu.Lock()
			posted += s.eng.PostedLen()
			unex += s.eng.UnexpectedLen()
			s.eng.PostedEach(func(e match.Entry) {
				// Classify the reserved tag ranges so a stuck partitioned
				// chunk or persistent-collective schedule names itself in
				// the dump.
				class := ""
				if !e.Mask.TagWild() {
					class = match.TagClass(e.Bits.Tag())
				}
				l := fmt.Sprintf("  posted recv vci=%d %s", v, e.DescribeRecv())
				if class != "" {
					l += " [" + class + "]"
				}
				lines = append(lines, l)
				if !e.Mask.SourceWild() {
					edges = append(edges, edge{ep.rank, e.Bits.Source(), class})
				}
			})
			s.eng.UnexpectedEach(func(e match.Entry) {
				l := fmt.Sprintf("  unexpected vci=%d %s", v, e.Bits.String())
				if m := e.Cookie.(*message); m.rel != nil {
					l += fmt.Sprintf(" [lent %d bytes]", len(m.data))
					// A lent rendezvous send completes only when this
					// rank receives it: its sender waits on this rank.
					// (An shm lender is named by the domain's dump.)
					if m.via == viaNet {
						edges = append(edges, edge{m.src, ep.rank, "rendezvous"})
					}
				}
				lines = append(lines, l)
			})
			// What peers landed here lately (recorded under this lock)
			// reads next to the queues it explains; ring>=N places an
			// arrival after the rank's own flight events #0..#N-1.
			for _, e := range s.arr.Flight.Events() {
				lines = append(lines, fmt.Sprintf("  arrival %s ring>=%d", e, e.After))
			}
			s.mu.Unlock()
		}
		amq := atomic.LoadInt32(&ep.amqLen)
		fmt.Fprintf(w, "rank %d: %d posted, %d unexpected, %d queued AM, %d conns\n", ep.rank, posted, unex, amq, ep.Conns())
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	}
	if lazy > 0 {
		fmt.Fprintf(w, "%d endpoint(s) never materialized (lazy)\n", lazy)
	}
	if len(edges) > 0 {
		fmt.Fprintln(w, "waits-on edges (posted receive -> named source, lent send -> its receiver):")
		for _, e := range edges {
			if e.class != "" {
				fmt.Fprintf(w, "  rank %d waits on rank %d [%s]\n", e.from, e.to, e.class)
			} else {
				fmt.Fprintf(w, "  rank %d waits on rank %d\n", e.from, e.to)
			}
		}
	}
}
