package main

import "time"

// The runner's cores change speed under the benchmark: a register-only
// loop that takes 428 µs takes 545 µs for seconds at a time when the
// host's other tenants are busy, and every workload slows with it. A
// 10 s run can sit entirely in either state, so no statistic over its
// trials repeats. The harness therefore times a burst of that loop
// beside everything it measures and reports host time in reference
// nanoseconds: measured ns divided by the bursts' slowdown against
// refNsPerIter. On a quiet runner a reference ns is a ns.

const (
	burstIters   = 30000
	refNsPerIter = 1.42857 // the runner's fast state: 300 000 iterations in 428.57 µs
	burstRefNs   = burstIters * refNsPerIter
)

var burstSink uint64

// burst times the calibration loop, best of three so a stray
// preemption does not read as a slow core, and returns the slowdown
// against the reference speed (1 on a quiet runner).
func burst() float64 {
	best := time.Duration(1 << 62)
	for k := 0; k < 3; k++ {
		t := time.Now()
		x := uint64(88172645463325252) + uint64(k)
		for i := 0; i < burstIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		burstSink += x
		if d := time.Since(t); d < best {
			best = d
		}
	}
	return float64(best) / burstRefNs
}

// slowdown is burst, or 1 for a workload whose plan asks for the raw
// clock.
func slowdown(rawClock bool) float64 {
	if rawClock {
		return 1
	}
	return burst()
}

// calLog is rank 0's record of a timed region: a burst at its start,
// at its end and every few steps between, each with the time it began
// and the time it took. Bursts run while no rank can (one P), so their
// time is dead time and leaves the total.
type calLog struct {
	t0       time.Time
	rawClock bool
	step     []int     // timed steps done when mark was called
	at       []int64   // ns since t0 when mark was called
	after    []int64   // ns since t0 when it returned
	slow     []float64 // the burst's slowdown
}

func (c *calLog) mark(step int) {
	c.step = append(c.step, step)
	c.at = append(c.at, int64(time.Since(c.t0)))
	c.slow = append(c.slow, slowdown(c.rawClock))
	c.after = append(c.after, int64(time.Since(c.t0)))
}

// stretches cuts the region at the marks. Each stretch, bursts left
// out, is divided by the mean slowdown of the two bursts around it:
// perStep is its reference ns per step, and raw and ref are the
// region's totals as the clock read them and in reference ns.
func (c *calLog) stretches() (raw, ref float64, perStep []float64) {
	for k := 0; k+1 < len(c.at); k++ {
		seg := float64(c.at[k+1] - c.after[k])
		segRef := seg / ((c.slow[k] + c.slow[k+1]) / 2)
		raw += seg
		ref += segRef
		perStep = append(perStep, segRef/float64(c.step[k+1]-c.step[k]))
	}
	return raw, ref, perStep
}
