package match

import "fmt"

// Entry is one element of a matching queue: a posted receive (Bits+Mask
// describe what it accepts, Cookie identifies the request) or an
// unexpected message (Bits are fully specified, Cookie identifies the
// buffered message).
type Entry struct {
	Bits   Bits
	Mask   Bits // FullMask for incoming messages
	Cookie any  // request or message owned by the caller
	seq    uint64
}

// Mode selects the queue organization of an Engine.
type Mode uint8

const (
	// Binned is the MPICH CH4-style organization (and the model of a
	// NIC's offloaded match units): entries hash into per-(context,
	// source) bins, with a separate queue for wildcard-masked posted
	// receives, so match cost is independent of total queue depth. The
	// zero value, used by the ch4 device and the fabric.
	Binned Mode = iota
	// Linear is the single-queue linear scan the baseline (CH3-style)
	// device deliberately keeps: every search walks the full queue in
	// insertion order, so the ablation benchmarks retain the
	// queue-depth cost dimension the paper attributes to legacy stacks.
	Linear
)

// exactBinMask covers the fields a bin key is derived from. A posted
// receive whose mask specifies both of them can only ever match
// messages in one bin.
const exactBinMask = ctxMask | srcMask

// binKey collapses (context, source) into the bin index: the top 32
// bits of the match word.
func binKey(b Bits) uint32 { return uint32(b >> srcShift) }

// node is an intrusive queue element. Each live node is threaded on two
// lists: its structural list (a bin or the wildcard queue, via
// bprev/bnext) and the global insertion-order list (via gprev/gnext)
// that serves wildcard searches and Linear mode. Free
// nodes are chained through bnext.
type node struct {
	Entry
	key  uint32 // bin index, valid when !wild
	wild bool   // posted entry living on the wildcard queue

	bprev, bnext *node
	gprev, gnext *node
}

// binList is a FIFO threaded through the bin links. Appends at the
// tail, so the list is seq-ordered.
type binList struct{ head, tail *node }

func (l *binList) push(n *node) {
	n.bprev = l.tail
	n.bnext = nil
	if l.tail != nil {
		l.tail.bnext = n
	} else {
		l.head = n
	}
	l.tail = n
}

func (l *binList) remove(n *node) {
	if n.bprev != nil {
		n.bprev.bnext = n.bnext
	} else {
		l.head = n.bnext
	}
	if n.bnext != nil {
		n.bnext.bprev = n.bprev
	} else {
		l.tail = n.bprev
	}
	n.bprev, n.bnext = nil, nil
}

// allList is the same FIFO threaded through the global links.
type allList struct{ head, tail *node }

func (l *allList) push(n *node) {
	n.gprev = l.tail
	n.gnext = nil
	if l.tail != nil {
		l.tail.gnext = n
	} else {
		l.head = n
	}
	l.tail = n
}

func (l *allList) remove(n *node) {
	if n.gprev != nil {
		n.gprev.gnext = n.gnext
	} else {
		l.head = n.gnext
	}
	if n.gnext != nil {
		n.gnext.gprev = n.gprev
	} else {
		l.tail = n.gprev
	}
	n.gprev, n.gnext = nil, nil
}

// Engine holds the two matching queues of one endpoint. It is not
// synchronized: the owning endpoint serializes access (the fabric
// endpoint under its lock, a single-threaded device directly). Queues
// preserve insertion order, which is what gives MPI its non-overtaking
// guarantee: an incoming message matches the earliest posted receive it
// satisfies, and a posted receive matches the earliest unexpected
// message it satisfies. In Binned mode that earliest-entry semantic is
// preserved by seq arbitration: the exact bin and the wildcard queue
// are each seq-ordered, so comparing their first matches yields the
// globally earliest one.
type Engine struct {
	// Mode selects Binned (default) or Linear organization. It must be
	// set before the first operation and never changed afterwards.
	Mode Mode

	// Searches counts queue elements inspected, exposed so ablation
	// benchmarks can compare hardware-offloaded vs software matching
	// depth.
	Searches int64
	// BinOps counts bin-index computations and bin lookups — the hash
	// cost a binned implementation pays on every operation, charged by
	// the transports so the speedup over Linear is priced honestly.
	BinOps int64
	// BinHits counts matches found through the per-(ctx,src) bin
	// organization; WildHits counts matches found on the wildcard /
	// global arrival-order walk. In Linear mode every match is a
	// global walk, so it lands in WildHits.
	BinHits  int64
	WildHits int64

	seq  uint64
	free *node // recycled nodes, chained through bnext

	postedBins map[uint32]*binList // exact posted receives by (ctx,src)
	postedWild binList             // wildcard-masked posted receives
	postedAll  allList             // every posted receive, insertion order

	unexBins map[uint32]*binList // unexpected messages by (ctx,src)
	unexAll  allList             // every unexpected message, arrival order

	nPosted, nUnex int
}

// alloc returns a zeroed node, reusing a freed one when available so
// steady-state matching performs no heap allocations.
func (e *Engine) alloc() *node {
	n := e.free
	if n == nil {
		return new(node)
	}
	e.free = n.bnext
	n.bnext = nil
	return n
}

// release zeroes a node (dropping its Cookie reference for the GC) and
// chains it onto the free list.
func (e *Engine) release(n *node) {
	*n = node{bnext: e.free}
	e.free = n
}

// bin returns the list for key in m, creating map and list on first
// use. Empty lists stay in the map so steady-state traffic on a working
// set of (ctx,src) pairs never allocates.
func (e *Engine) bin(m *map[uint32]*binList, key uint32) *binList {
	if *m == nil {
		*m = make(map[uint32]*binList)
	}
	l := (*m)[key]
	if l == nil {
		l = new(binList)
		(*m)[key] = l
	}
	return l
}

// findUnexpected returns the earliest unexpected node satisfying
// (bits, mask), or nil. Every element inspected counts as a search.
func (e *Engine) findUnexpected(bits Bits, mask Bits) *node {
	if e.Mode == Binned && mask&exactBinMask == exactBinMask {
		// All candidates share this (ctx,src): one bin holds them in
		// arrival order, so its first match is the global first match.
		e.BinOps++
		l := e.unexBins[binKey(bits)]
		if l == nil {
			return nil
		}
		for n := l.head; n != nil; n = n.bnext {
			e.Searches++
			if n.Bits.Matches(bits, mask) {
				e.BinHits++
				return n
			}
		}
		return nil
	}
	// Wildcard (or Linear-mode) search walks the global arrival-order
	// list, spanning all bins.
	for n := e.unexAll.head; n != nil; n = n.gnext {
		e.Searches++
		if n.Bits.Matches(bits, mask) {
			e.WildHits++
			return n
		}
	}
	return nil
}

// removeUnexpected unlinks an unexpected node from its lists, returns
// its Entry, and recycles the node.
func (e *Engine) removeUnexpected(n *node) Entry {
	ent := n.Entry
	e.unexAll.remove(n)
	if e.Mode == Binned {
		e.unexBins[n.key].remove(n)
	}
	e.nUnex--
	e.release(n)
	return ent
}

// removePosted unlinks a posted node from its lists, returns its Entry,
// and recycles the node.
func (e *Engine) removePosted(n *node) Entry {
	ent := n.Entry
	e.postedAll.remove(n)
	if e.Mode == Binned {
		if n.wild {
			e.postedWild.remove(n)
		} else {
			e.postedBins[n.key].remove(n)
		}
	}
	e.nPosted--
	e.release(n)
	return ent
}

// PostRecv offers a receive to the engine. If a buffered unexpected
// message satisfies it, that message's Entry is returned with ok=true
// and the receive is NOT enqueued (the caller delivers the data).
// Otherwise the receive joins the posted queue.
func (e *Engine) PostRecv(bits Bits, mask Bits, cookie any) (msg Entry, ok bool) {
	if n := e.findUnexpected(bits, mask); n != nil {
		return e.removeUnexpected(n), true
	}
	e.seq++
	n := e.alloc()
	n.Entry = Entry{Bits: bits, Mask: mask, Cookie: cookie, seq: e.seq}
	e.postedAll.push(n)
	if e.Mode == Binned {
		if mask&exactBinMask == exactBinMask {
			n.key = binKey(bits)
			e.BinOps++
			e.bin(&e.postedBins, n.key).push(n)
		} else {
			n.wild = true
			e.postedWild.push(n)
		}
	}
	e.nPosted++
	return Entry{}, false
}

// Arrive offers an incoming message to the engine. If a posted receive
// accepts it, that receive's Entry is returned with ok=true and removed
// from the posted queue. Otherwise the message joins the unexpected
// queue.
func (e *Engine) Arrive(bits Bits, cookie any) (recv Entry, ok bool) {
	var best *node
	fromBin := false
	if e.Mode == Binned {
		e.BinOps++
		if l := e.postedBins[binKey(bits)]; l != nil {
			for n := l.head; n != nil; n = n.bnext {
				e.Searches++
				if bits.Matches(n.Bits, n.Mask) {
					best = n
					fromBin = true
					break
				}
			}
		}
		// Arbitrate against the wildcard queue by seq: both lists are
		// seq-ordered, so the scan stops as soon as it passes the bin
		// candidate — an earlier wildcard match wins, a later one
		// cannot.
		for n := e.postedWild.head; n != nil; n = n.bnext {
			if best != nil && n.seq > best.seq {
				break
			}
			e.Searches++
			if bits.Matches(n.Bits, n.Mask) {
				best = n
				fromBin = false
				break
			}
		}
	} else {
		for n := e.postedAll.head; n != nil; n = n.gnext {
			e.Searches++
			if bits.Matches(n.Bits, n.Mask) {
				best = n
				break
			}
		}
	}
	if best != nil {
		if fromBin {
			e.BinHits++
		} else {
			e.WildHits++
		}
		return e.removePosted(best), true
	}
	e.seq++
	n := e.alloc()
	n.Entry = Entry{Bits: bits, Mask: FullMask, Cookie: cookie, seq: e.seq}
	e.unexAll.push(n)
	if e.Mode == Binned {
		n.key = binKey(bits)
		e.BinOps++
		e.bin(&e.unexBins, n.key).push(n)
	}
	e.nUnex++
	return Entry{}, false
}

// Probe reports whether an unexpected message satisfying (bits, mask)
// is buffered, without removing it (MPI_IPROBE). Probe traffic walks
// the same queues as everything else and counts toward Searches.
func (e *Engine) Probe(bits Bits, mask Bits) (msg Entry, ok bool) {
	if n := e.findUnexpected(bits, mask); n != nil {
		return n.Entry, true
	}
	return Entry{}, false
}

// ExtractUnexpected removes and returns the first unexpected message
// satisfying (bits, mask) — the matched-probe (MPI_MPROBE) primitive:
// the message leaves the matching engine and can no longer match any
// receive.
func (e *Engine) ExtractUnexpected(bits Bits, mask Bits) (Entry, bool) {
	if n := e.findUnexpected(bits, mask); n != nil {
		return e.removeUnexpected(n), true
	}
	return Entry{}, false
}

// PostedLen exposes the posted-queue depth for tests and diagnostics.
func (e *Engine) PostedLen() int { return e.nPosted }

// UnexpectedLen exposes the unexpected-queue depth.
func (e *Engine) UnexpectedLen() int { return e.nUnex }

// PostedEach calls f for every posted receive in insertion order. The
// wait-graph dump uses it to name unmatched receives; the caller holds
// whatever lock serializes the engine.
func (e *Engine) PostedEach(f func(Entry)) {
	for n := e.postedAll.head; n != nil; n = n.gnext {
		f(n.Entry)
	}
}

// UnexpectedEach calls f for every buffered unexpected message in
// arrival order.
func (e *Engine) UnexpectedEach(f func(Entry)) {
	for n := e.unexAll.head; n != nil; n = n.gnext {
		f(n.Entry)
	}
}

// DescribeRecv renders a posted receive's (Bits, Mask) pair for
// wait-graph dumps: wildcarded fields print as "any".
func (e Entry) DescribeRecv() string {
	src, tag := "any", "any"
	if !e.Mask.SourceWild() {
		src = fmt.Sprintf("%d", e.Bits.Source())
	}
	if !e.Mask.TagWild() {
		tag = fmt.Sprintf("%d", e.Bits.Tag())
	}
	return fmt.Sprintf("src=%s tag=%s ctx=%d", src, tag, e.Bits.Context())
}
