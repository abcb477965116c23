package comm

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"

	"gompi/internal/group"
)

// Registry is the job-wide coordination service behind communicator
// creation: it allocates context ids consistently across ranks and runs
// the rendezvous that stands in for the allgather a distributed MPI
// would run. It is shared by all ranks of one world and internally
// synchronized. None of this is on the communication critical path.
type Registry struct {
	mu      sync.Mutex
	nextCtx uint16
	ctx     map[ctxKey]uint16
	slots   map[slotKey]*slot
}

// Waiter is how a rank waits in a rendezvous: the loop every blocking
// call runs on its device. Wake moves the device's event counter from
// another rank's goroutine. core.Device satisfies it.
type Waiter interface {
	Progress()
	EventSeq() uint64
	WaitEvent(seq uint64)
	Wake()
}

// ctxKey identifies one collective context-id allocation: all ranks of
// the parent communicator performing the same (seq-th) creation on the
// same color must agree on the id.
type ctxKey struct {
	parent uint16
	seq    int
	color  int
}

type slotKey struct {
	parent uint16
	seq    int
}

// slot is one open rendezvous. waiters and vals are indexed by
// communicator rank; a nil waiter is a rank that has not arrived. The
// last depositor sets out.
type slot struct {
	waiters        []Waiter
	vals           []any
	arrived, taken int
	out            any
}

// NewRegistry creates the coordination service for one world. Context
// ids 0 and 1 are reserved for MPI_COMM_WORLD's point-to-point and
// collective contexts.
func NewRegistry() *Registry {
	return &Registry{nextCtx: 2, ctx: make(map[ctxKey]uint16), slots: make(map[slotKey]*slot)}
}

// AllocContext returns the context-id pair (pt2pt, coll) for the seq-th
// communicator created from parent with the given color. Every rank
// asking with the same key receives the same pair; the first request
// allocates.
func (r *Registry) AllocContext(parent uint16, seq, color int) (uint16, uint16) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.allocContextLocked(parent, seq, color)
}

// allocContextLocked is AllocContext with r.mu already held, for use by
// the shared-split builder which runs under the registry lock.
func (r *Registry) allocContextLocked(parent uint16, seq, color int) (uint16, uint16) {
	k := ctxKey{parent, seq, color}
	id, ok := r.ctx[k]
	if !ok {
		id = r.nextCtx
		r.nextCtx += 2 // pt2pt and collective contexts
		if r.nextCtx < id {
			panic("comm: context id space exhausted")
		}
		r.ctx[k] = id
	}
	return id, id + 1
}

// rendezvous is the one wait of every creation collective: each of size
// participants deposits val under (parent, seq); the last depositor
// runs build over the values, indexed by rank, under r.mu and wakes
// every other participant, and all return build's result. A waiting
// rank loops on its own device like every other blocking call: it
// serves active messages while it waits, parks where the stall watchdog
// sees it, and ends by the fabric's abort panic.
func (r *Registry) rendezvous(w Waiter, parent uint16, seq, rank, size int, val any, build func([]any) any) any {
	k := slotKey{parent, seq}
	r.mu.Lock()
	s := r.slots[k]
	if s == nil {
		s = &slot{waiters: make([]Waiter, size), vals: make([]any, size)}
		r.slots[k] = s
	}
	s.waiters[rank], s.vals[rank] = w, val
	if s.arrived++; s.arrived == size {
		s.out = build(s.vals)
		r.mu.Unlock()
		for i, o := range s.waiters {
			if i != rank {
				o.Wake()
			}
		}
	} else {
		r.mu.Unlock()
		for {
			ev := w.EventSeq()
			if !r.progressOpen(w, s) {
				break
			}
			w.WaitEvent(ev)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.taken++; s.taken == size {
		delete(r.slots, k)
	}
	return s.out
}

// progressOpen runs one progress pass on w if s is still open and
// reports whether it was. The pass runs under r.mu, so the rendezvous
// cannot close during it: a waiter never drains what a peer sent after
// leaving the rendezvous, which would make its charges depend on host
// scheduling.
func (r *Registry) progressOpen(w Waiter, s *slot) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.arrived == len(s.vals) {
		return false
	}
	w.Progress()
	return true
}

// allgather is the build step of a plain exchange: every rank gets
// every value.
func allgather(vals []any) any { return vals }

// splitSpec is one rank's contribution to a split: its color/key pair,
// its rank in the parent communicator, and its world rank (carried
// along so the builder never touches the parent's rank table).
type splitSpec struct {
	Color, Key, Rank, World int
}

// splitResult is the per-color outcome of a split: one Group/RankTable
// pair built once and shared by every member rank, plus the color's
// context-id pair. Members recover their own new rank with
// Grp.Rank(world), O(1) on both group representations.
type splitResult struct {
	Grp       *group.Group
	Table     *RankTable
	Ctx, Coll uint16
}

// buildSplitLocked is the build step of MPI_COMM_SPLIT, run once by the
// last depositor under r.mu, so the collective does O(n log n) work in
// total instead of O(n) per member: sort every spec by (color, key,
// parent rank), cut the sorted slice into per-color groups, and
// allocate each color's context ids. Group construction goes through
// group.FromRanks, so regular partitions (node blocks, strided leader
// sets) collapse to the O(1) arithmetic representation.
func (r *Registry) buildSplitLocked(parent uint16, seq int, vals []any) any {
	specs := make([]splitSpec, len(vals))
	for i, v := range vals {
		specs[i] = v.(splitSpec)
	}
	slices.SortFunc(specs, func(a, b splitSpec) int {
		return cmp.Or(cmp.Compare(a.Color, b.Color), cmp.Compare(a.Key, b.Key), cmp.Compare(a.Rank, b.Rank))
	})
	out := make(map[int]*splitResult)
	for i := 0; i < len(specs); {
		j := i
		for j < len(specs) && specs[j].Color == specs[i].Color {
			j++
		}
		if specs[i].Color != Undefined {
			world := make([]int, j-i)
			for m := i; m < j; m++ {
				world[m-i] = specs[m].World
			}
			g := group.FromRanks(world)
			ctx, coll := r.allocContextLocked(parent, seq, specs[i].Color)
			out[specs[i].Color] = &splitResult{Grp: g, Table: BuildRankTable(g), Ctx: ctx, Coll: coll}
		}
		i = j
	}
	return out
}

// WriteWaitGraph prints every open rendezvous: its parent context and
// sequence number, how many ranks have arrived, and the communicator
// ranks that have not.
func (r *Registry) WriteWaitGraph(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, s := range r.slots {
		var missing []int
		for rank, o := range s.waiters {
			if o == nil {
				missing = append(missing, rank)
			}
		}
		if missing != nil {
			fmt.Fprintf(w, "rendezvous ctx=%d seq=%d: %d/%d arrived, waiting on comm rank(s) %v\n",
				k.parent, k.seq, s.arrived, len(s.waiters), missing)
		}
	}
}
