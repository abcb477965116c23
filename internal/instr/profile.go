package instr

import (
	"fmt"
	"sync/atomic"
)

// Profile is one rank's instruction profile: the instructions (and raw
// cycles) charged so far, per category. The rank that owns it
// (proc.Rank) decides how a charge lands — Add on a single-writer rank,
// AddShared on a rank built for MPI_THREAD_MULTIPLE — and which
// categories take raw cycles. The reads load each counter atomically,
// so they are race-free against either kind of charge. Totals are
// derived from the per-category counters at read time, never
// accumulated beside them.
type Profile struct {
	counts [NumCategories]int64
}

// Add records n in category cat with one plain add: the charge of a
// single-writer rank.
func (p *Profile) Add(cat Category, n int64) { p.counts[cat] += n }

// AddShared records n in category cat with one atomic add: the charge
// of a rank several goroutines drive at once.
func (p *Profile) AddShared(cat Category, n int64) { atomic.AddInt64(&p.counts[cat], n) }

// Count returns the accumulated charge for one category.
func (p *Profile) Count(cat Category) int64 { return atomic.LoadInt64(&p.counts[cat]) }

// Total returns the accumulated MPI-library instruction count (the
// Table 1 total: everything except Transport and Compute).
func (p *Profile) Total() int64 { return p.Delta(Snapshot{}).Total }

// Cycles returns the sum of every category's count: the cycles charged
// only at one cycle per instruction (proc.Rank.Cycles applies the CPI).
func (p *Profile) Cycles() int64 { return p.Delta(Snapshot{}).Cycles }

// Snapshot is a point-in-time copy of a Profile, used to attribute the
// cost of a single call: snap before, call, Delta after.
type Snapshot struct {
	counts [NumCategories]int64
}

// Snap captures the current state of the profile.
func (p *Profile) Snap() Snapshot {
	var s Snapshot
	for i := range s.counts {
		s.counts[i] = p.Count(Category(i))
	}
	return s
}

// Delta returns the charges accumulated since the snapshot was taken,
// as a Breakdown.
func (p *Profile) Delta(s Snapshot) Breakdown {
	var b Breakdown
	for i := range b.Counts {
		d := p.Count(Category(i)) - s.counts[i]
		b.Counts[i] = d
		b.Cycles += d
		if Category(i) < Transport {
			b.Total += d
		}
	}
	return b
}

// Breakdown is the per-category instruction cost of one operation or one
// region — one column of Table 1.
type Breakdown struct {
	Counts [NumCategories]int64
	Total  int64 // the MPI instructions: every category before Transport
	Cycles int64 // every category's count summed, as Profile.Cycles
}

// Count returns the charge recorded for one category.
func (b Breakdown) Count(cat Category) int64 { return b.Counts[cat] }

// String renders the breakdown as Table-1-style rows.
func (b Breakdown) String() string {
	s := ""
	for _, cat := range MPICategories {
		s += fmt.Sprintf("%-26s %4d instructions\n", cat.String(), b.Counts[cat])
	}
	s += fmt.Sprintf("%-26s %4d instructions", "Total", b.Total)
	return s
}
