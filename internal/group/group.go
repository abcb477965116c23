// Package group implements MPI process groups: ordered sets of world
// ranks with the MPI-3.1 set operations and rank translation
// (MPI_GROUP_TRANSLATE_RANKS — the function the paper's global-rank
// proposal builds on).
//
// Groups over regular rank sequences (the world group, node-local
// blocks, strided splits) are stored arithmetically — {size, base,
// stride} — so constructing the 10K-rank world group costs O(1) memory
// instead of an O(n) slice plus an O(n) map per rank. Irregular groups
// fall back to the materialized slice + index-map representation.
package group

import "errors"

// Undefined is returned for ranks with no image in the target group
// (MPI_UNDEFINED).
const Undefined = -1

// ErrBadRank reports a rank outside the group.
var ErrBadRank = errors.New("group: rank out of range")

// Group is an immutable ordered set of world ranks. Index = group rank,
// value = world rank. When ranks == nil the group is arithmetic:
// world = base + i*stride for 0 <= i < size.
type Group struct {
	size   int
	base   int
	stride int
	ranks  []int
	index  map[int]int // world rank -> group rank (materialized groups)
}

// Strided builds the arithmetic group {base + i*stride : 0 <= i < size}
// in O(1) space. stride must be nonzero for size >= 2 (zero would alias
// every member to the same world rank).
func Strided(size, base, stride int) *Group {
	if size < 0 {
		panic("group: negative size")
	}
	if size >= 2 && stride == 0 {
		panic("group: zero stride")
	}
	if size <= 1 {
		stride = 1
	}
	return &Group{size: size, base: base, stride: stride}
}

// FromRanks builds a group from world ranks. The slice is copied unless
// it forms an arithmetic progression, in which case the group collapses
// to the O(1) strided representation. World ranks must be distinct;
// duplicates make matching ambiguous.
func FromRanks(worldRanks []int) *Group {
	n := len(worldRanks)
	if n == 0 {
		return Strided(0, 0, 1)
	}
	if n == 1 {
		return Strided(1, worldRanks[0], 1)
	}
	base, stride := worldRanks[0], worldRanks[1]-worldRanks[0]
	if stride != 0 {
		regular := true
		for i, w := range worldRanks {
			if w != base+i*stride {
				regular = false
				break
			}
		}
		if regular {
			// stride != 0 implies all members distinct.
			return Strided(n, base, stride)
		}
	}
	g := &Group{size: n, ranks: append([]int(nil), worldRanks...)}
	g.index = make(map[int]int, n)
	for i, w := range g.ranks {
		g.index[w] = i
	}
	if len(g.index) != n {
		panic("group: duplicate world rank")
	}
	return g
}

// WorldGroup returns the group 0..n-1 (the MPI_COMM_WORLD group) in
// O(1) space — no per-rank copy of the full rank list.
func WorldGroup(n int) *Group {
	return Strided(n, 0, 1)
}

// Size returns the number of processes in the group.
func (g *Group) Size() int { return g.size }

// Strided reports the arithmetic representation (base, stride) when the
// group is stored that way. ok is false for materialized groups.
func (g *Group) Strided() (base, stride int, ok bool) {
	if g.ranks != nil {
		return 0, 0, false
	}
	return g.base, g.stride, true
}

// WorldRank translates a group rank to its world rank. O(1) for both
// representations.
func (g *Group) WorldRank(r int) (int, error) {
	if r < 0 || r >= g.size {
		return Undefined, ErrBadRank
	}
	if g.ranks == nil {
		return g.base + r*g.stride, nil
	}
	return g.ranks[r], nil
}

// worldAt is WorldRank without the bounds check, for internal loops
// that iterate 0..size-1.
func (g *Group) worldAt(i int) int {
	if g.ranks == nil {
		return g.base + i*g.stride
	}
	return g.ranks[i]
}

// Rank translates a world rank to this group's rank, or Undefined.
// O(1) for both representations (arithmetic inversion or map lookup).
func (g *Group) Rank(world int) int {
	if g.ranks == nil {
		d := world - g.base
		if g.size == 0 || d%g.stride != 0 {
			return Undefined
		}
		r := d / g.stride
		if r < 0 || r >= g.size {
			return Undefined
		}
		return r
	}
	if r, ok := g.index[world]; ok {
		return r
	}
	return Undefined
}

// Ranks returns a copy of the world-rank list. This materializes O(n)
// storage even for strided groups — scale-sensitive callers should use
// Strided/WorldRank instead.
func (g *Group) Ranks() []int {
	if g.ranks != nil {
		return append([]int(nil), g.ranks...)
	}
	out := make([]int, g.size)
	for i := range out {
		out[i] = g.base + i*g.stride
	}
	return out
}

// TranslateRanks maps ranks in g to the corresponding ranks in to
// (MPI_GROUP_TRANSLATE_RANKS). Ranks with no image map to Undefined.
func TranslateRanks(g *Group, ranks []int, to *Group) ([]int, error) {
	out := make([]int, len(ranks))
	for i, r := range ranks {
		w, err := g.WorldRank(r)
		if err != nil {
			return nil, err
		}
		out[i] = to.Rank(w)
	}
	return out, nil
}

// Incl returns the subgroup containing the listed ranks of g, in the
// listed order (MPI_GROUP_INCL).
func (g *Group) Incl(ranks []int) (*Group, error) {
	world := make([]int, len(ranks))
	for i, r := range ranks {
		w, err := g.WorldRank(r)
		if err != nil {
			return nil, err
		}
		world[i] = w
	}
	return FromRanks(world), nil
}

// Excl returns the subgroup of g without the listed ranks, preserving
// order (MPI_GROUP_EXCL).
func (g *Group) Excl(ranks []int) (*Group, error) {
	drop := make(map[int]bool, len(ranks))
	for _, r := range ranks {
		if r < 0 || r >= g.size {
			return nil, ErrBadRank
		}
		drop[r] = true
	}
	var world []int
	for i := 0; i < g.size; i++ {
		if !drop[i] {
			world = append(world, g.worldAt(i))
		}
	}
	return FromRanks(world), nil
}

// Union returns the group of all processes in a followed by those in b
// not in a (MPI_GROUP_UNION order semantics).
func Union(a, b *Group) *Group {
	world := a.Ranks()
	for i := 0; i < b.size; i++ {
		if w := b.worldAt(i); a.Rank(w) == Undefined {
			world = append(world, w)
		}
	}
	return FromRanks(world)
}

// Intersection returns the processes of a that are also in b, in a's
// order (MPI_GROUP_INTERSECTION).
func Intersection(a, b *Group) *Group {
	var world []int
	for i := 0; i < a.size; i++ {
		if w := a.worldAt(i); b.Rank(w) != Undefined {
			world = append(world, w)
		}
	}
	return FromRanks(world)
}

// Difference returns the processes of a not in b, in a's order
// (MPI_GROUP_DIFFERENCE).
func Difference(a, b *Group) *Group {
	var world []int
	for i := 0; i < a.size; i++ {
		if w := a.worldAt(i); b.Rank(w) == Undefined {
			world = append(world, w)
		}
	}
	return FromRanks(world)
}
