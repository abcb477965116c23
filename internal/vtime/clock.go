// Package vtime implements the per-rank virtual clocks that replace the
// paper's wall-clock measurements on real hardware. Each rank carries a
// cycle counter advanced by the instruction-accounted MPI software path
// (CPI 1.0), by modeled application compute, and by fabric injection and
// wire latency. Messages carry the sender's clock at injection time;
// completing a receive advances the receiver's clock to at least the
// message arrival time. This is a conservative parallel-discrete-event
// approximation: it reproduces the compute/communication balance that
// shapes the paper's strong-scaling curves, deterministically.
package vtime

import "sync/atomic"

// Time is a point in virtual time, in cycles since rank spawn.
type Time int64

// Cycles is a duration in virtual cycles.
type Cycles = int64

// Clock is one rank's virtual clock. It is single-writer: only the
// rank's own goroutine advances and reads it, with plain loads and
// stores. A world built for MPI_THREAD_MULTIPLE, where several
// application goroutines advance the same rank's clock, marks it
// shared (Share) before any rank runs; updates are then atomic.
// Cross-rank ordering happens only through message timestamps (Sync),
// and both modes are numerically identical. A rank (proc.Rank) holds
// its clock by value and, single-writer, advances it only where it is
// read: charges pile up beside it and one Advance folds them in before
// Now or Sync.
type Clock struct {
	now    int64
	hz     float64
	shared bool
}

// NewClock returns a clock ticking at the given model frequency.
func NewClock(hz float64) *Clock {
	if hz <= 0 {
		panic("vtime: non-positive frequency")
	}
	return &Clock{hz: hz}
}

// Share marks the clock as advanced from several goroutines. It must
// be called before the clock is first used.
func (c *Clock) Share() { c.shared = true }

// Now returns the current virtual time.
func (c *Clock) Now() Time {
	if c.shared {
		return Time(atomic.LoadInt64(&c.now))
	}
	return Time(c.now)
}

// Hz returns the model core frequency in cycles per second.
func (c *Clock) Hz() float64 { return c.hz }

// Advance moves the clock forward by n cycles. Negative n panics:
// virtual time never runs backward.
func (c *Clock) Advance(n Cycles) {
	if n < 0 {
		panic("vtime: negative advance")
	}
	if c.shared {
		c.AdvanceShared(n)
		return
	}
	c.now += n
}

// AdvanceShared is Advance on a clock marked shared, for a caller that
// has already refused negative n: one atomic add, small enough to
// inline into a charge path.
func (c *Clock) AdvanceShared(n Cycles) { atomic.AddInt64(&c.now, n) }

// Sync advances the clock to t if t is in the future; a rank that waited
// for a message lands at the message's arrival time. Sync never moves
// the clock backward (on a shared clock a CAS maximum, so concurrent
// Syncs cannot regress it either).
func (c *Clock) Sync(t Time) {
	if !c.shared {
		if int64(t) > c.now {
			c.now = int64(t)
		}
		return
	}
	for {
		cur := atomic.LoadInt64(&c.now)
		if int64(t) <= cur || atomic.CompareAndSwapInt64(&c.now, cur, int64(t)) {
			return
		}
	}
}

// Seconds converts a duration between two points on this clock to
// seconds at the model frequency.
func (c *Clock) Seconds(from, to Time) float64 {
	return float64(to-from) / c.hz
}
