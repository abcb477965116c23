package nbc

import (
	"fmt"

	"gompi/internal/coll"
	"gompi/internal/datatype"
	"gompi/internal/metrics"
)

// Force names an algorithm family the user pinned via the
// gompi_coll_algorithm info key or Config.CollAlgorithm. ForceAuto
// (the default) leaves selection to the size/topology cutoffs below;
// a forced family that does not apply to a collective (or whose
// preconditions fail) falls back to the canonical algorithm. Every
// collective compiler takes a Force and resolves it through its pick.
type Force int

// Forced algorithm families.
const (
	ForceAuto     Force = iota
	ForceFlat           // disable two-level even on hierarchical topologies
	ForceTwoLevel       // hierarchical leader-based algorithms
	ForceBinomial
	ForceScatterAllgather
	ForceRDouble
	ForceRSAG
	ForceReduceBcast
	ForceChain
	ForceRing
	ForceBruck
	ForcePairwise
	ForcePosted
)

var forceNames = map[string]Force{
	"":                  ForceAuto,
	"auto":              ForceAuto,
	"flat":              ForceFlat,
	"two-level":         ForceTwoLevel,
	"binomial":          ForceBinomial,
	"scatter-allgather": ForceScatterAllgather,
	"rdouble":           ForceRDouble,
	"rsag":              ForceRSAG,
	"reduce-bcast":      ForceReduceBcast,
	"chain":             ForceChain,
	"ring":              ForceRing,
	"bruck":             ForceBruck,
	"pairwise":          ForcePairwise,
	"posted":            ForcePosted,
}

// ParseForce resolves a user-supplied algorithm name.
func ParseForce(s string) (Force, error) {
	if f, ok := forceNames[s]; ok {
		return f, nil
	}
	return ForceAuto, fmt.Errorf("nbc: unknown collective algorithm %q", s)
}

// Size cutoffs for automatic selection, in bytes of per-rank payload.
// They mirror the shape of MPICH's tuning tables: latency-bound
// algorithms below, bandwidth-bound rearrangements above.
const (
	// BcastLongMsg is where broadcast switches from the binomial tree
	// (n*log P per rank) to scatter+ring-allgather (~2n per rank).
	BcastLongMsg = 8192
	// AllreduceLongMsg is where allreduce switches from recursive
	// doubling to Rabenseifner reduce-scatter + allgather.
	AllreduceLongMsg = 8192
	// AllgatherBruckMax caps the Bruck algorithm (log-P rounds, but
	// data is forwarded repeatedly) before the ring takes over.
	AllgatherBruckMax = 2048
	// AlltoallPostedMax / AlltoallPostedMaxRanks bound the post-all
	// single-round algorithm; beyond either, pairwise rounds bound the
	// number of simultaneously buffered messages.
	AlltoallPostedMax      = 1024
	AlltoallPostedMaxRanks = 16
)

// The picks below are the one place a collective's algorithm is
// decided. Each compiler calls its pick once, before Begin, and emits
// exactly what it returns: every precondition an algorithm has
// (commutativity, a power-of-two size, divisibility, the handoff
// threshold) is checked here and nowhere else.

// bcastAlgo picks the broadcast algorithm for an nbytes payload.
func bcastAlgo(t Transport, nbytes int, f Force) int {
	switch f {
	case ForceBinomial:
		return metrics.CollBcastBinomial
	case ForceScatterAllgather:
		return metrics.CollBcastScatterAllgather
	case ForceTwoLevel:
		return metrics.CollBcastTwoLevel
	}
	if f != ForceFlat && twoLevel(t) {
		return metrics.CollBcastTwoLevel
	}
	if nbytes > BcastLongMsg && t.Size() >= 8 {
		return metrics.CollBcastScatterAllgather
	}
	return metrics.CollBcastBinomial
}

// reduceAlgo is the binomial-vs-chain decision of every reduction to a
// root — Reduce's own and the ones allreduce and reduce-scatter compose
// in. Non-commutative operations always take the rank-ordered chain.
func reduceAlgo(op coll.Op, f Force) int {
	if !coll.Commutative(op) || f == ForceChain {
		return metrics.CollReduceChain
	}
	return metrics.CollReduceBinomial
}

// allreduceAlgo picks the allreduce algorithm for an nbytes payload of
// elem elements. Non-commutative operations always take the
// chain-reduce + broadcast composition; recursive doubling needs a
// power-of-two size, rsag one whose element count it divides too.
func allreduceAlgo(t Transport, op coll.Op, elem *datatype.Type, nbytes int, f Force) int {
	if !coll.Commutative(op) {
		return metrics.CollAllreduceReduceBcast
	}
	size, es := t.Size(), elem.Size()
	pow2 := isPow2(size)
	rsag := pow2 && es > 0 && nbytes%(size*es) == 0
	// The zero-copy two-level variant applies when the payload clears
	// the handoff threshold (below it, staged cells win — that is what
	// the threshold means).
	hier := metrics.CollAllreduceTwoLevel
	if h := t.HandoffEager(); h > 0 && nbytes > h {
		hier = metrics.CollAllreduceTwoLevelZC
	}
	switch f {
	case ForceRDouble:
		if pow2 {
			return metrics.CollAllreduceRecDoubling
		}
		return metrics.CollAllreduceReduceBcast
	case ForceRSAG:
		if rsag {
			return metrics.CollAllreduceRedScatGather
		}
		return metrics.CollAllreduceReduceBcast
	case ForceTwoLevel:
		return hier
	case ForceReduceBcast:
		return metrics.CollAllreduceReduceBcast
	}
	if f != ForceFlat && twoLevel(t) {
		return hier
	}
	if rsag && nbytes > AllreduceLongMsg {
		return metrics.CollAllreduceRedScatGather
	}
	if pow2 {
		return metrics.CollAllreduceRecDoubling
	}
	return metrics.CollAllreduceReduceBcast
}

// allgatherAlgo picks the allgather algorithm for an nbytes-per-rank
// block.
func allgatherAlgo(nbytes int, f Force) int {
	switch f {
	case ForceRing:
		return metrics.CollAllgatherRing
	case ForceBruck:
		return metrics.CollAllgatherBruck
	}
	if nbytes <= AllgatherBruckMax {
		return metrics.CollAllgatherBruck
	}
	return metrics.CollAllgatherRing
}

// alltoallAlgo picks the alltoall algorithm for an nbytes-per-peer
// block.
func alltoallAlgo(t Transport, nbytes int, f Force) int {
	switch f {
	case ForcePairwise:
		return metrics.CollAlltoallPairwise
	case ForcePosted:
		return metrics.CollAlltoallPosted
	}
	if nbytes <= AlltoallPostedMax && t.Size() <= AlltoallPostedMaxRanks {
		return metrics.CollAlltoallPosted
	}
	return metrics.CollAlltoallPairwise
}
