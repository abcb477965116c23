package nbc

import (
	"fmt"

	"gompi/internal/metrics"
)

// Force names an algorithm family the user pinned via the
// gompi_coll_algorithm info key or Config.CollAlgorithm. ForceAuto
// (the default) leaves selection to the size/topology cutoffs below;
// a forced family that does not apply to a collective (or whose
// preconditions fail) falls back to the canonical algorithm.
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

// SelectBcast picks the broadcast algorithm for an nbytes payload.
func SelectBcast(t Transport, nbytes int, f Force) int {
	switch f {
	case ForceBinomial:
		return metrics.CollBcastBinomial
	case ForceScatterAllgather:
		return metrics.CollBcastScatterAllgather
	case ForceTwoLevel:
		return metrics.CollBcastTwoLevel
	}
	if f != ForceFlat && TwoLevel(t) {
		return metrics.CollBcastTwoLevel
	}
	if nbytes > BcastLongMsg && t.Size() >= 8 {
		return metrics.CollBcastScatterAllgather
	}
	return metrics.CollBcastBinomial
}

// SelectReduce picks the reduce algorithm. Non-commutative operations
// always take the rank-ordered chain.
func SelectReduce(t Transport, nbytes int, commutative bool, f Force) int {
	if !commutative || f == ForceChain {
		return metrics.CollReduceChain
	}
	return metrics.CollReduceBinomial
}

// SelectAllreduce picks the allreduce algorithm for count elements of
// elemSize bytes each. Non-commutative operations always take the
// chain-reduce + broadcast composition.
func SelectAllreduce(t Transport, count, elemSize int, commutative bool, f Force) int {
	if !commutative {
		return metrics.CollAllreduceReduceBcast
	}
	size := t.Size()
	pow2 := isPow2(size)
	divisible := size > 0 && count%size == 0
	nbytes := count * elemSize
	// The zero-copy two-level variant applies when the payload clears
	// the handoff threshold (below it, staged cells win — that is what
	// the threshold means).
	twoLevel := metrics.CollAllreduceTwoLevel
	if h := t.HandoffEager(); h > 0 && nbytes > h {
		twoLevel = metrics.CollAllreduceTwoLevelZC
	}
	switch f {
	case ForceRDouble:
		if pow2 {
			return metrics.CollAllreduceRecDoubling
		}
		return metrics.CollAllreduceReduceBcast
	case ForceRSAG:
		if pow2 && divisible {
			return metrics.CollAllreduceRedScatGather
		}
		return metrics.CollAllreduceReduceBcast
	case ForceTwoLevel:
		return twoLevel
	case ForceReduceBcast:
		return metrics.CollAllreduceReduceBcast
	}
	if f != ForceFlat && TwoLevel(t) {
		return twoLevel
	}
	if pow2 && divisible && nbytes > AllreduceLongMsg {
		return metrics.CollAllreduceRedScatGather
	}
	if pow2 {
		return metrics.CollAllreduceRecDoubling
	}
	return metrics.CollAllreduceReduceBcast
}

// SelectAllgather picks the allgather algorithm for an nbytes-per-rank
// block.
func SelectAllgather(t Transport, nbytes int, f Force) int {
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

// SelectAlltoall picks the alltoall algorithm for an nbytes-per-peer
// block.
func SelectAlltoall(t Transport, nbytes int, f Force) int {
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
