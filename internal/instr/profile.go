package instr

import (
	"fmt"
	"sync/atomic"
)

// Profile is one rank's charge ledger: the instructions (and raw
// cycles) charged so far, per category. It is single-writer: only the
// rank's own goroutine charges and reads it, so a charge is one plain
// add. A world built for MPI_THREAD_MULTIPLE — where several
// application goroutines really do drive one rank — marks the profile
// shared (Share) before any rank runs, and every access becomes
// atomic. Totals are derived from the per-category counters at read
// time, never accumulated beside them, so the two modes produce the
// same numbers by construction.
type Profile struct {
	counts [NumCategories]int64
	shared bool
}

// Share marks the profile as charged from several goroutines. It must
// be called before the first charge.
func (p *Profile) Share() { p.shared = true }

// Charge records n abstract instructions in category cat.
func (p *Profile) Charge(cat Category, n int64) {
	if p.shared {
		atomic.AddInt64(&p.counts[cat], n)
		return
	}
	p.counts[cat] += n
}

// Add is Charge on a profile not marked shared, for a caller that
// already knows it is: one plain add.
func (p *Profile) Add(cat Category, n int64) { p.counts[cat] += n }

// AddShared is Charge on a profile marked shared, for a caller that
// already knows it is: one atomic add.
func (p *Profile) AddShared(cat Category, n int64) { atomic.AddInt64(&p.counts[cat], n) }

// ChargeCycles records raw cycles that are not instructions executed by
// the MPI library (fabric injection latency, modeled compute time). They
// advance the clock but never appear in instruction counts.
func (p *Profile) ChargeCycles(cat Category, n int64) {
	if cat < Transport {
		panic("instr: ChargeCycles on an MPI instruction category")
	}
	p.Charge(cat, n)
}

// Count returns the accumulated charge for one category.
func (p *Profile) Count(cat Category) int64 {
	if p.shared {
		return atomic.LoadInt64(&p.counts[cat])
	}
	return p.counts[cat]
}

// Total returns the accumulated MPI-library instruction count (the
// Table 1 total: everything except Transport and Compute).
func (p *Profile) Total() int64 { return p.Delta(Snapshot{}).Total }

// Cycles returns the total virtual cycles accumulated, including
// transport and compute charges.
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
	Total  int64
	Cycles int64
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
