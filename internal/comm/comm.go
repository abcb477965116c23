package comm

import (
	"errors"
	"fmt"
	"sync"

	"gompi/internal/group"
	"gompi/internal/request"
)

// Errors returned by communicator operations.
var (
	ErrBadRank = errors.New("comm: rank out of communicator range")
	ErrFreed   = errors.New("comm: communicator already freed")
)

// Undefined is returned from Split with color Undefined: the caller is
// not a member of any resulting communicator (MPI_UNDEFINED).
const Undefined = -1

// Comm is one rank's view of a communicator. The fields read on the
// communication critical path (Ctx, Table, MyRank) are immutable after
// creation; Lock is taken only under MPI_THREAD_MULTIPLE.
type Comm struct {
	Grp     *group.Group
	Table   *RankTable
	MyRank  int
	Ctx     uint16 // point-to-point context id (high bits of match words)
	CollCtx uint16 // collective context id (isolates collectives from pt2pt)

	Lock   sync.Mutex // per-object critical section (MPI_THREAD_MULTIPLE)
	Unlock func()     // Lock.Unlock, bound once: a per-call method value would allocate

	// NoReq counts outstanding requestless operations issued on this
	// communicator (the MPI_ISEND_NOREQ / MPI_COMM_WAITALL proposal,
	// Section 3.5). Owned by the rank.
	NoReq request.Counter

	// AssertNoMatch caches the info hint of the paper's Section 3.6
	// alternative proposal: the application promises to receive
	// everything on this communicator with MPI_ANY_SOURCE and
	// MPI_ANY_TAG, so senders may drop the match bits. The hint
	// variant costs an extra dereference and branch on every send
	// compared with the dedicated MPI_ISEND_NOMATCH function — which
	// is exactly the trade-off the paper quantifies.
	AssertNoMatch bool

	// Hints caches the MPI-4-style communicator assertions the library
	// checks receives and probes against. Set at creation time (before
	// any traffic) via the hint-carrying Dup/Split variants or SetInfo;
	// immutable once communication begins.
	Hints Hints

	// CollAlgo caches the HintCollAlgorithm info key: a collective
	// algorithm family name pinning selection for this communicator
	// (empty means automatic). The MPI layer parses it at each
	// collective entry.
	CollAlgo string

	reg        *Registry
	seq        int // per-rank count of creation collectives on this comm
	nbcSeq     int // nonblocking-collective tag sequence (owned by the rank)
	persistSeq int // persistent-collective tag sequence (owned by the rank)
	info       map[string]string
	freed      bool
	collView   *Comm

	// topoCache memoizes the node structure two-level collectives
	// derive over this communicator, keyed by the preferring root.
	// Owned by the rank: collectives on one communicator are serialized
	// per rank (MPI semantics), so no lock is needed.
	topoCache map[int]any
}

// LoadTopo returns the cached collective topology for key, if present.
func (c *Comm) LoadTopo(key int) (any, bool) {
	v, ok := c.topoCache[key]
	return v, ok
}

// StoreTopo caches the collective topology for key.
func (c *Comm) StoreTopo(key int, v any) {
	if c.topoCache == nil {
		c.topoCache = make(map[int]any)
	}
	c.topoCache[key] = v
}

// NextNBCSeq returns the next nonblocking-collective sequence number.
// Collectives are called in the same order on every rank of a
// communicator, so per-rank counters agree globally and the derived
// tags isolate concurrently outstanding schedules.
func (c *Comm) NextNBCSeq() int {
	s := c.nbcSeq
	c.nbcSeq++
	return s
}

// NextPersistSeq returns the next persistent-collective sequence
// number. Like NBC sequences, persistent-collective Inits are
// collective calls made in the same order on every rank, so per-rank
// counters agree globally; unlike NBC tags, the derived tag is replayed
// by every Start of the operation, so it draws from a separate range.
func (c *Comm) NextPersistSeq() int {
	s := c.persistSeq
	c.persistSeq++
	return s
}

// Hints are the communicator assertions of MPI-4's mpi_assert_* info
// keys: promises about how the application will use the communicator.
// They do not steer traffic (every communicator rides the one VCI its
// context names). A violated assertion is erroneous; this library
// detects violations and returns a defined error instead of corrupting
// matching.
type Hints struct {
	// NoAnySource: no receive or probe on this communicator ever
	// passes MPI_ANY_SOURCE.
	NoAnySource bool
	// NoAnyTag: no receive or probe ever passes MPI_ANY_TAG.
	NoAnyTag bool
	// ExactLength: every receive buffer is exactly the size of the
	// message that will match it — no truncation, no short delivery.
	ExactLength bool
}

// The info keys that cache into Hints (MPI-4 spelling).
const (
	HintNoAnySource = "mpi_assert_no_any_source"
	HintNoAnyTag    = "mpi_assert_no_any_tag"
	HintExactLength = "mpi_assert_exact_length"
)

// HintCollAlgorithm pins collective algorithm selection on the
// communicator (a gompi extension key; values are the nbc package's
// algorithm family names, e.g. "two-level", "flat", "rdouble").
const HintCollAlgorithm = "gompi_coll_algorithm"

// CollView returns a view of the communicator whose point-to-point
// context is the collective context: the machine-independent
// collectives send through it so application traffic can never match
// collective traffic. The view is cached per rank.
func (c *Comm) CollView() *Comm {
	if c.collView == nil {
		c.collView = newComm(c.Grp, c.Table, c.MyRank, c.CollCtx, c.CollCtx, c.reg)
		c.collView.collView = c.collView
	}
	return c.collView
}

// Exchange performs the registry rendezvous allgather on this
// communicator: each rank deposits val and receives every rank's value
// indexed by communicator rank, waiting on w, its device. Collective;
// used by world start-up and window creation and teardown.
func (c *Comm) Exchange(w Waiter, val any) []any {
	seq := c.seq
	c.seq++
	return c.reg.rendezvous(w, c.Ctx, seq, c.MyRank, c.Size(), val, allgather).([]any)
}

// newComm is the one place a Comm is built.
func newComm(g *group.Group, t *RankTable, myRank int, ctx, coll uint16, reg *Registry) *Comm {
	c := &Comm{Grp: g, Table: t, MyRank: myRank, Ctx: ctx, CollCtx: coll, reg: reg}
	c.Unlock = c.Lock.Unlock
	return c
}

// NewWorld builds rank myRank's view of MPI_COMM_WORLD over n ranks.
func NewWorld(reg *Registry, n, myRank int) *Comm {
	g := group.WorldGroup(n)
	return newComm(g, BuildRankTable(g), myRank, 0, 1, reg)
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.Grp.Size() }

// Rank returns the calling rank's rank within the communicator.
func (c *Comm) Rank() int { return c.MyRank }

// Group returns the communicator's group.
func (c *Comm) Group() *group.Group { return c.Grp }

// Freed reports whether Free has been called.
func (c *Comm) Freed() bool { return c.freed }

// Free marks the communicator released. Pending operations are the
// caller's responsibility, as in MPI_COMM_FREE.
func (c *Comm) Free() error {
	if c.freed {
		return ErrFreed
	}
	c.freed = true
	return nil
}

// SetInfo attaches an info hint (MPI_COMM_SET_INFO). The
// "mpi_assert_allow_overtaking" hint (and its gompi alias
// "gompi_assert_no_match") caches into the AssertNoMatch fast-path
// flag.
func (c *Comm) SetInfo(key, value string) {
	if c.info == nil {
		c.info = make(map[string]string)
	}
	c.info[key] = value
	switch key {
	case "mpi_assert_allow_overtaking", "gompi_assert_no_match":
		c.AssertNoMatch = value == "true"
	case HintNoAnySource:
		c.Hints.NoAnySource = value == "true"
	case HintNoAnyTag:
		c.Hints.NoAnyTag = value == "true"
	case HintExactLength:
		c.Hints.ExactLength = value == "true"
	case HintCollAlgorithm:
		c.CollAlgo = value
	}
}

// Info returns the hint for key, if set (MPI_COMM_GET_INFO).
func (c *Comm) Info(key string) (string, bool) {
	v, ok := c.info[key]
	return v, ok
}

// WorldRank translates a communicator rank to the world/fabric rank.
// The device charges the translation cost according to Table.Kind.
func (c *Comm) WorldRank(r int) (int, error) {
	if r < 0 || r >= c.Grp.Size() {
		return -1, fmt.Errorf("%w: %d not in [0,%d)", ErrBadRank, r, c.Grp.Size())
	}
	return c.Table.World(r), nil
}

// Dup creates a duplicate with a fresh context (MPI_COMM_DUP). It is a
// creation collective: every rank of c must call it in the same order.
func (c *Comm) Dup() (*Comm, error) {
	if c.freed {
		return nil, ErrFreed
	}
	seq := c.seq
	c.seq++
	ctx, coll := c.reg.AllocContext(c.Ctx, seq, 0)
	dup := newComm(c.Grp, c.Table, c.MyRank, ctx, coll, c.reg)
	for k, v := range c.info {
		dup.SetInfo(k, v)
	}
	return dup, nil
}

// Split partitions the communicator by color and orders each part by
// (key, parent rank) (MPI_COMM_SPLIT). Ranks passing color == Undefined
// receive nil.
//
// The heavy lifting happens once per collective, not once per member:
// the rendezvous's last depositor sorts the specs and builds a single
// Group/RankTable per color that all members share. Each rank's own
// contribution here is O(1) plus its group-rank lookup. The rank waits
// on w, its device.
func (c *Comm) Split(w Waiter, color, key int) (*Comm, error) {
	if c.freed {
		return nil, ErrFreed
	}
	seq := c.seq
	c.seq++
	me, err := c.WorldRank(c.MyRank)
	if err != nil {
		return nil, err
	}
	spec := splitSpec{Color: color, Key: key, Rank: c.MyRank, World: me}
	out := c.reg.rendezvous(w, c.Ctx, seq, c.MyRank, c.Size(), spec, func(vals []any) any {
		return c.reg.buildSplitLocked(c.Ctx, seq, vals)
	})
	res := out.(map[int]*splitResult)[color]
	if res == nil {
		return nil, nil
	}
	return newComm(res.Grp, res.Table, res.Grp.Rank(me), res.Ctx, res.Coll, c.reg), nil
}

// Create builds a communicator over the given subgroup of c
// (MPI_COMM_CREATE). Every rank of c must call it with an equal group;
// ranks outside the group receive nil. Like Split, it is a creation
// collective on c, and the rank waits on w, its device.
func (c *Comm) Create(w Waiter, g *group.Group) (*Comm, error) {
	if c.freed {
		return nil, ErrFreed
	}
	// All ranks must agree on the context id: participate in the
	// allocation even when not a member, then rendezvous on the same
	// sequence number so no member races ahead of the collective.
	ctx, coll := c.reg.AllocContext(c.Ctx, c.seq, 0)
	c.Exchange(w, nil)

	me, err := c.WorldRank(c.MyRank)
	if err != nil {
		return nil, err
	}
	myNew := g.Rank(me)
	if myNew == group.Undefined {
		return nil, nil
	}
	return newComm(g, BuildRankTable(g), myNew, ctx, coll, c.reg), nil
}
