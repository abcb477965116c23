// Package vtime names the units of the virtual time that replaces the
// paper's wall-clock measurements on real hardware. Each rank's clock
// (proc.Rank) is a cycle counter advanced by the instruction-accounted
// MPI software path (CPI 1.0), by modeled application compute, and by
// fabric injection and wire latency. Messages carry the sender's clock
// at injection time; completing a receive advances the receiver's clock
// to at least the message arrival time. This is a conservative
// parallel-discrete-event approximation: it reproduces the
// compute/communication balance that shapes the paper's strong-scaling
// curves, deterministically.
package vtime

// Time is a point in virtual time, in cycles since rank spawn.
type Time int64

// Cycles is a duration in virtual cycles.
type Cycles = int64
