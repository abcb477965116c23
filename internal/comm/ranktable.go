// Package comm implements MPI communicators: context-id allocation,
// rank translation tables (dense and compressed, per the memory-
// compression techniques of Guo et al. [22] that the paper cites),
// dup/split/create, and info hints. Communicator creation is collective
// and coordinated through a shared registry — the stand-in for the
// agreement protocols a distributed MPI runs — but the communication
// critical path touches only the immutable per-communicator state.
package comm

import "gompi/internal/group"

// TableKind discriminates rank-translation representations.
type TableKind uint8

// Rank-table representations, cheapest first.
const (
	// TableIdentity: comm rank == world rank (MPI_COMM_WORLD).
	TableIdentity TableKind = iota
	// TableStrided: world = base + rank*stride (regular subsets, e.g.
	// from strided splits). The compressed form of [22].
	TableStrided
	// TableDense: explicit O(P) lookup array (irregular groups).
	TableDense
)

// RankTable translates communicator ranks to world (fabric) ranks. It
// is immutable after construction. The representation is detected at
// build time; the translation cost the device charges depends on the
// kind — that asymmetry is the rank-translation ablation.
type RankTable struct {
	kind   TableKind
	size   int
	base   int
	stride int
	dense  []int32
}

// BuildRankTable detects the cheapest representation for a group.
// Strided groups (the world group, node blocks, regular splits) map
// directly to TableIdentity/TableStrided in O(1) — no O(n) rank-list
// materialization, which is what keeps communicator creation free of
// full-world copies at 10K ranks.
func BuildRankTable(g *group.Group) *RankTable {
	n := g.Size()
	t := &RankTable{size: n}
	if base, stride, ok := g.Strided(); ok {
		if base == 0 && stride == 1 {
			t.kind = TableIdentity
			return t
		}
		t.kind = TableStrided
		t.base, t.stride = base, stride
		return t
	}
	// A materialized group is irregular: group.FromRanks stores every
	// arithmetic progression, sizes 0 and 1 included, in strided form.
	t.kind = TableDense
	t.dense = make([]int32, n)
	for i, w := range g.Ranks() {
		t.dense[i] = int32(w)
	}
	return t
}

// Kind returns the detected representation.
func (t *RankTable) Kind() TableKind { return t.kind }

// Size returns the number of ranks.
func (t *RankTable) Size() int { return t.size }

// World translates a communicator rank to a world rank. The caller has
// already validated 0 <= r < Size.
func (t *RankTable) World(r int) int {
	switch t.kind {
	case TableIdentity:
		return r
	case TableStrided:
		return t.base + r*t.stride
	default:
		return int(t.dense[r])
	}
}
