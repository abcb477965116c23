package gompi

import (
	"sync"

	"gompi/internal/comm"
	"gompi/internal/group"
	"gompi/internal/instr"
	"gompi/internal/nbc"
)

// Comm is a communicator: an isolated communication context over an
// ordered group of ranks.
type Comm struct {
	p *Proc
	c *comm.Comm

	// Schedules have two lifetimes. A non-persistent collective compiles
	// in place into a recycled one: bsched for every blocking collective
	// (see coll.go), an op from the opFree freelist for each outstanding
	// I-collective (see icoll.go; opMu guards the list because Wait and
	// Test hand ops back outside the communicator's thread lock). A
	// persistent collective owns the schedule its Init compiled.
	bsched nbc.Schedule
	opMu   sync.Mutex
	opFree []*collOp

	// port is the transport adapter all schedules run over, built on
	// first use; f64 is AllreduceFloat64's wire buffer.
	port nbcPort
	f64  []byte
}

// Rank returns the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.c.Rank() }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.c.Size() }

// Group returns the communicator's process group.
func (c *Comm) Group() *Group { return &Group{g: c.c.Group()} }

// WorldRank translates a communicator rank to its MPI_COMM_WORLD rank —
// the translation applications perform once when adopting the
// global-rank proposal (MPI_GROUP_TRANSLATE_RANKS).
func (c *Comm) WorldRank(rank int) (int, error) {
	w, err := c.c.WorldRank(rank)
	if err != nil {
		return -1, errc(ErrRank, "%v", err)
	}
	return w, nil
}

// CommOptions unifies the communicator-creation variants behind one
// options struct, mirroring SendOptions/RecvOptions/WinOptions: the
// canonical entry points are DupOpt, SplitOpt, and CreateOpt, and the
// historical names (Dup, Split, SplitType, Create) are pinned
// zero-overhead wrappers over them.
type CommOptions struct {
	// Hints are the MPI-4 communicator assertions attached to the new
	// communicator at creation, before any traffic can flow on it.
	Hints CommHints
	// Type selects SplitOpt's partition rule: 0 partitions by the
	// caller-supplied color, SplitTypeShared partitions by locality
	// (MPI_COMM_SPLIT_TYPE semantics — the color argument is ignored
	// and the node id is used instead).
	Type int
}

// chargeCommCreate models the collective cost of communicator
// creation: context-id agreement over a recursive-doubling round
// structure, ceil(log2 n) rounds of instr.CommCreateStep cycles each.
// With sparse rank tables there is no O(n) per-rank table copy left to
// charge — this logarithmic agreement is the whole creation cost.
func (c *Comm) chargeCommCreate() {
	steps := int64(0)
	for s := 1; s < c.c.Size(); s <<= 1 {
		steps++
	}
	c.p.rank.ChargeCycles(instr.Transport, steps*instr.CommCreateStep.Value())
}

// DupOpt duplicates the communicator with a fresh context and applies
// the options to the duplicate (MPI_COMM_DUP / MPI_COMM_DUP_WITH_INFO).
// Collective.
func (c *Comm) DupOpt(o CommOptions) (*Comm, error) {
	if err := c.p.checkComm(c); err != nil {
		return nil, err
	}
	c.chargeCommCreate()
	d, err := c.c.Dup()
	if err != nil {
		return nil, errc(ErrComm, "%v", err)
	}
	o.Hints.apply(d)
	return &Comm{p: c.p, c: d}, nil
}

// Dup duplicates the communicator with a fresh context
// (MPI_COMM_DUP). Collective.
func (c *Comm) Dup() (*Comm, error) { return c.DupOpt(CommOptions{}) }

// CommHints are the MPI-4-style communicator assertions
// (mpi_assert_*): promises about how the communicator will be used,
// given at creation time. An operation violating an assertion returns
// an ErrHint-classed error. Hints do not pick the communicator's
// virtual communication interface: every communicator, hinted or not,
// rides the one its context names.
type CommHints struct {
	// NoAnySource promises no receive or probe ever uses AnySource.
	NoAnySource bool
	// NoAnyTag promises no receive or probe ever uses AnyTag.
	NoAnyTag bool
	// ExactLength promises every receive buffer exactly fits its
	// message; a short or truncated delivery is reported as ErrHint.
	ExactLength bool
}

// apply caches the hints into the freshly created communicator through
// the info-key path, so they propagate on Dup like any other hint.
func (h CommHints) apply(c *comm.Comm) {
	if h.NoAnySource {
		c.SetInfo(comm.HintNoAnySource, "true")
	}
	if h.NoAnyTag {
		c.SetInfo(comm.HintNoAnyTag, "true")
	}
	if h.ExactLength {
		c.SetInfo(comm.HintExactLength, "true")
	}
}

// Hints returns the communicator's cached assertions.
func (c *Comm) Hints() CommHints {
	return CommHints{
		NoAnySource: c.c.Hints.NoAnySource,
		NoAnyTag:    c.c.Hints.NoAnyTag,
		ExactLength: c.c.Hints.ExactLength,
	}
}

// DupPredefined duplicates the communicator into the given predefined
// handle slot (the MPI_COMM_DUP_PREDEFINED proposal, Section 3.3).
// Subsequent communication through PredefComm(h) — or flagged calls
// like IsendPredef — reference the communicator as a constant-indexed
// global instead of a dereferenced dynamic object. Collective.
func (c *Comm) DupPredefined(h CommHandle) (*Comm, error) {
	if h < 0 || int(h) >= MaxPredefinedComms {
		return nil, errc(ErrArg, "predefined handle %d out of range", h)
	}
	d, err := c.Dup()
	if err != nil {
		return nil, err
	}
	c.p.predef[h] = d
	return d, nil
}

// SplitOpt partitions the communicator and applies the options to each
// resulting communicator at creation (MPI_COMM_SPLIT /
// MPI_COMM_SPLIT_TYPE). With o.Type zero the partition is by the given
// color, each part ordered by key; with o.Type == SplitTypeShared the
// color argument is ignored and ranks are partitioned by node (the
// communicator over which shared-memory optimizations apply).
// Collective; ranks passing color < 0 (plain splits only) receive nil
// but still participate.
func (c *Comm) SplitOpt(color, key int, o CommOptions) (*Comm, error) {
	if err := c.p.checkComm(c); err != nil {
		return nil, err
	}
	switch o.Type {
	case 0:
		// Plain color/key split.
	case SplitTypeShared:
		// Color by node id of the rank's world rank.
		w, err := c.c.WorldRank(c.c.Rank())
		if err != nil {
			return nil, errc(ErrRank, "%v", err)
		}
		color = c.p.rank.World().Node(w)
	default:
		return nil, errc(ErrArg, "unknown split type %d", o.Type)
	}
	c.chargeCommCreate()
	col := color
	if col < 0 {
		col = comm.Undefined
	}
	s, err := c.c.Split(c.p.dev, col, key)
	if err != nil {
		return nil, errc(ErrComm, "%v", err)
	}
	if s == nil {
		return nil, nil
	}
	o.Hints.apply(s)
	return &Comm{p: c.p, c: s}, nil
}

// Split partitions by color, ordering each part by key
// (MPI_COMM_SPLIT). Ranks passing color < 0 receive nil. Collective.
func (c *Comm) Split(color, key int) (*Comm, error) {
	return c.SplitOpt(color, key, CommOptions{})
}

// SplitTypeShared is the MPI_COMM_TYPE_SHARED selector for SplitType.
const SplitTypeShared = 1

// SplitType partitions the communicator by locality
// (MPI_COMM_SPLIT_TYPE with MPI_COMM_TYPE_SHARED): ranks on the same
// simulated node land in the same communicator — the communicator over
// which shared-memory optimizations (the shmmod) apply. Collective.
func (c *Comm) SplitType(splitType, key int) (*Comm, error) {
	if splitType != SplitTypeShared {
		return nil, errc(ErrArg, "unknown split type %d", splitType)
	}
	return c.SplitOpt(0, key, CommOptions{Type: splitType})
}

// CreateOpt builds a communicator over a subgroup and applies the
// options to it at creation (MPI_COMM_CREATE / ..._WITH_INFO).
// Collective over c; non-members receive nil but still participate.
func (c *Comm) CreateOpt(g *Group, o CommOptions) (*Comm, error) {
	if err := c.p.checkComm(c); err != nil {
		return nil, err
	}
	c.chargeCommCreate()
	s, err := c.c.Create(c.p.dev, g.g)
	if err != nil {
		return nil, errc(ErrComm, "%v", err)
	}
	if s == nil {
		return nil, nil
	}
	o.Hints.apply(s)
	return &Comm{p: c.p, c: s}, nil
}

// Create builds a communicator over a subgroup (MPI_COMM_CREATE).
// Collective over c; non-members receive nil.
func (c *Comm) Create(g *Group) (*Comm, error) {
	return c.CreateOpt(g, CommOptions{})
}

// Free releases the communicator (MPI_COMM_FREE).
func (c *Comm) Free() error {
	if err := c.c.Free(); err != nil {
		return errc(ErrComm, "%v", err)
	}
	return nil
}

// SetInfo attaches an info hint (MPI_COMM_SET_INFO).
func (c *Comm) SetInfo(key, value string) { c.c.SetInfo(key, value) }

// Info reads an info hint (MPI_COMM_GET_INFO).
func (c *Comm) Info(key string) (string, bool) { return c.c.Info(key) }

// Group is an ordered set of world ranks (MPI_GROUP).
type Group struct {
	g *group.Group
}

// Size returns the group size.
func (g *Group) Size() int { return g.g.Size() }

// Rank returns the world rank's position in the group, or -1.
func (g *Group) Rank(world int) int { return g.g.Rank(world) }

// WorldRanks returns the ordered world-rank list.
func (g *Group) WorldRanks() []int { return g.g.Ranks() }

// Incl returns the subgroup of the listed group ranks (MPI_GROUP_INCL).
func (g *Group) Incl(ranks []int) (*Group, error) {
	s, err := g.g.Incl(ranks)
	if err != nil {
		return nil, errc(ErrRank, "%v", err)
	}
	return &Group{g: s}, nil
}

// Excl returns the group without the listed ranks (MPI_GROUP_EXCL).
func (g *Group) Excl(ranks []int) (*Group, error) {
	s, err := g.g.Excl(ranks)
	if err != nil {
		return nil, errc(ErrRank, "%v", err)
	}
	return &Group{g: s}, nil
}

// GroupUnion returns a's processes followed by b's new ones
// (MPI_GROUP_UNION).
func GroupUnion(a, b *Group) *Group { return &Group{g: group.Union(a.g, b.g)} }

// GroupIntersection returns a's processes that are also in b
// (MPI_GROUP_INTERSECTION).
func GroupIntersection(a, b *Group) *Group { return &Group{g: group.Intersection(a.g, b.g)} }

// GroupDifference returns a's processes not in b
// (MPI_GROUP_DIFFERENCE).
func GroupDifference(a, b *Group) *Group { return &Group{g: group.Difference(a.g, b.g)} }

// TranslateRanks maps ranks of group a to their positions in group b
// (MPI_GROUP_TRANSLATE_RANKS); absent ranks map to -1.
func TranslateRanks(a *Group, ranks []int, b *Group) ([]int, error) {
	out, err := group.TranslateRanks(a.g, ranks, b.g)
	if err != nil {
		return nil, errc(ErrRank, "%v", err)
	}
	return out, nil
}
