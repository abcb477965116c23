package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"gompi"
)

// phase says which part of a trial a step belongs to.
type phase int

const (
	phCold  phase = iota // the first step: lazy peer state, schedule compiles, pool fills
	phWarm               // untimed steps that follow it
	phTimed              // the measured steps
)

// plan is the size of one trial of a workload.
type plan struct {
	ranks int
	cfg   gompi.Config
	warm  int // untimed steps between the cold step and the timed region
	steps int // timed steps
	// opsPerStep is the ops one rank issues in a step; per-rank
	// quantities (virtual time, charged instructions) divide by it.
	opsPerStep int
	// sides is how many ranks issue their own ops: 2 for the
	// bidirectional two-rank loops, 1 when an op is one collective
	// iteration. Process-wide quantities (wall time, mallocs) divide by
	// opsPerStep*sides.
	sides int
	// stretch is how many timed steps lie between two calibration
	// marks of rank 0 (calib.go). A stretch is the unit the host-time
	// statistic is taken over, so it must be long enough that every
	// rank's share of its steps falls inside it: tens of ms for the
	// loops whose ranks wait for each other every step, the whole timed
	// region for scale_halo, whose thousand goroutines drift by an
	// iteration.
	stretch int
	// rawClock turns the calibration off: host times are reported as
	// the clock read them. For the two workloads that wait on memory,
	// not on the core: pt2pt_large, whose 2 MB of payload buffers sit
	// at the edge of L2 and stream from L3, and scale_halo, which walks
	// tens of MB of goroutine stacks every iteration. Their time does
	// not follow the core's clock (measured correlation 0.2-0.35), so
	// dividing by the core's slowdown would add the very swings it
	// removes elsewhere.
	rawClock bool
}

// rankBody is what a workload's prepare hands the harness for one rank.
type rankBody struct {
	// step runs one closed-loop step and returns how many of its
	// outputs failed verification.
	step func(ph phase, it int) (failed int, err error)
	// finish runs the end-of-trial checks (they may communicate) and
	// returns how many there were and how many failed.
	finish func() (attempted, failed int, err error)
	// close releases what prepare acquired; collective where the
	// release is.
	close func() error
	// virtUs, when set on rank 0, replaces the harness's own
	// slowest-rank VirtualTime delta as the modelled µs per op.
	virtUs func() float64
}

type workload struct {
	name    string
	why     string
	plan    func(quick bool) plan
	prepare func(p *gompi.Proc, pl plan, in *inputs, tr *rankTracer) (*rankBody, error)
	// confirm, when set, checks on the traced pass's counts that the
	// workload stressed the layers its why names.
	confirm func(m map[string]float64) error
	// viaProfiler marks a workload whose MPI calls sit inside library
	// code the body cannot wrap: the traced pass takes its call spans
	// from Config.Profiler instead.
	viaProfiler bool
}

// rankSlot is one rank's record of a trial; every rank writes only its
// own, and the harness reads them after Run has joined the ranks.
type rankSlot struct {
	enter, first, exit int64 // host ns since launch
	v0, v1             float64
	attempted, failed  int
	m0, m1             gompi.MetricsSnapshot // traced trials only
}

// trial is the outcome of one launch of a workload.
type trial struct {
	pl      plan
	wallNs  float64   // rank 0's timed region in reference ns (calib.go)
	rawNs   float64   // the same as the clock read it
	segNs   []float64 // reference ns per op of each stretch between two calibration marks
	virtUs  float64   // per op, slowest rank
	ctr     gompi.Counters
	mallocs float64
	heapMB  float64

	// setupS is in reference seconds; slow is the slowdown it and the
	// other two were divided by.
	setupS, launchS, teardownS, slow float64

	attempted, failed int

	// traced trials only
	tracers       []*rankTracer
	stats         *gompi.Stats
	before, after gompi.MetricsSnapshot // job-wide, at the edges of the timed region
}

func (t *trial) opsRank() float64  { return float64(t.pl.steps * t.pl.opsPerStep) }
func (t *trial) opsTotal() float64 { return t.opsRank() * float64(t.pl.sides) }

// wallPerOp is the host-time statistic of a set of trials: the lower
// quartile of their stretches' reference ns per op. Noise on the runner
// is additive and comes in bursts, so the low end repeats where the
// middle does not; the quartile, not the minimum, because a stretch
// that happens to hold no GC cycle is not the cost of the software
// path, and because scale_halo gives a run only a dozen stretches.
func wallPerOp(ts []*trial) float64 { return quantile(stretches(ts), 0.25) }

func stretches(ts []*trial) []float64 {
	var out []float64
	for _, t := range ts {
		out = append(out, t.segNs...)
	}
	return out
}

// firstTimed is the index of the first timed step.
func (pl plan) firstTimed() int { return 1 + pl.warm }

// runTrial launches the workload once. With setupOnly every rank
// returns after its cold step, so only the set-up fields are filled.
func runTrial(w *workload, pl plan, in *inputs, traced, setupOnly bool) (*trial, error) {
	n := pl.ranks
	slots := make([]rankSlot, n)
	out := &trial{pl: pl}
	cfg := pl.cfg
	var t0 time.Time
	if traced {
		out.tracers = make([]*rankTracer, n)
		out.stats = &gompi.Stats{}
		cfg.Stats = out.stats
	}

	var ms0, ms1, live, base runtime.MemStats
	var c0, c1 gompi.Counters
	var virtOverride func() float64
	cal := calLog{rawClock: pl.rawClock}

	body := func(p *gompi.Proc) error {
		r := p.Rank()
		s := &slots[r]
		s.enter = int64(time.Since(t0))
		defer func() { s.exit = int64(time.Since(t0)) }()
		var tr *rankTracer
		if traced {
			tr = out.tracers[r]
		}
		b, err := w.prepare(p, pl, in, tr)
		if err != nil {
			return err
		}
		it := 0
		step := func(ph phase) error {
			id := tr.beginIter(it)
			f, err := b.step(ph, it)
			tr.endIter(id)
			s.failed += f
			it++
			return err
		}
		if err := step(phCold); err != nil {
			return err
		}
		s.first = int64(time.Since(t0))
		// One-sided origins never wait for their target, so without
		// this a rank that is through its cold step would run on into
		// its timed steps while the other has yet to be scheduled.
		if err := p.World().Barrier(); err != nil {
			return err
		}
		if setupOnly {
			return b.close()
		}
		for i := 0; i < pl.warm; i++ {
			if err := step(phWarm); err != nil {
				return err
			}
		}
		if traced {
			s.m0 = p.Metrics()
		}
		if r == 0 {
			runtime.ReadMemStats(&ms0)
			c0 = p.Counters()
			cal.mark(0)
		}
		s.v0 = p.VirtualTime()
		for i := 1; i <= pl.steps; i++ {
			if err := step(phTimed); err != nil {
				return err
			}
			if r == 0 && (i%pl.stretch == 0 || i == pl.steps) {
				cal.mark(i)
			}
		}
		s.v1 = p.VirtualTime()
		if r == 0 {
			c1 = p.Counters()
			runtime.ReadMemStats(&ms1)
			virtOverride = b.virtUs
		}
		if traced {
			s.m1 = p.Metrics()
		}
		a, f, err := b.finish()
		s.attempted += a
		s.failed += f
		if err != nil {
			return err
		}
		// Host memory of the warm world: every rank is parked in the
		// second barrier, buffers and peer state alive, while rank 0
		// collects.
		if err := p.World().Barrier(); err != nil {
			return err
		}
		if r == 0 {
			runtime.GC()
			runtime.ReadMemStats(&live)
		}
		if err := p.World().Barrier(); err != nil {
			return err
		}
		return b.close()
	}

	if traced {
		// Room for a step's iteration span and three spans per op, so
		// the timed region does not pay for growing the slice.
		hint := (pl.firstTimed()+pl.steps)*(2+3*pl.opsPerStep) + 16
		if w.viaProfiler {
			cfg.Profiler = &profiler{ranks: out.tracers, open: make([]int32, n), depth: make([]int32, n)}
			hint *= 16 // a timestep makes some fifty MPI calls
		}
		for r := range out.tracers {
			out.tracers[r] = newRankTracer(hint)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&base)
	out.slow = slowdown(pl.rawClock)
	t0 = time.Now()
	cal.t0 = t0
	for _, tr := range out.tracers {
		tr.t0 = t0
	}
	err := gompi.Run(n, cfg, body)
	done := int64(time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	// Set-up ends between the burst before the launch and the next
	// one: rank 0's first mark, or one taken now.
	if setupOnly {
		out.slow = (out.slow + slowdown(pl.rawClock)) / 2
	} else {
		out.slow = (out.slow + cal.slow[0]) / 2
	}
	var enter, first, exit int64
	for i := range slots {
		s := &slots[i]
		enter = max(enter, s.enter)
		first = max(first, s.first)
		exit = max(exit, s.exit)
		out.failed += s.failed
		out.attempted += s.attempted
		out.virtUs = math.Max(out.virtUs, (s.v1-s.v0)*1e6)
		if traced && !setupOnly {
			out.before = out.before.Merge(s.m0)
			out.after = out.after.Merge(s.m1)
		}
	}
	out.launchS = float64(enter) / 1e9 / out.slow
	out.setupS = float64(first) / 1e9 / out.slow
	out.teardownS = float64(done-exit) / 1e9 / out.slow
	if setupOnly {
		return out, nil
	}
	out.rawNs, out.wallNs, out.segNs = cal.stretches()
	for i := range out.segNs {
		out.segNs[i] /= float64(pl.opsPerStep * pl.sides)
	}
	out.virtUs /= out.opsRank()
	if virtOverride != nil {
		out.virtUs = virtOverride()
	}
	out.ctr = c1.Sub(c0)
	out.mallocs = float64(ms1.Mallocs - ms0.Mallocs)
	out.heapMB = (float64(live.HeapAlloc) - float64(base.HeapAlloc)) / (1 << 20)
	out.attempted += int(out.opsTotal())
	return out, nil
}

// --- order statistics --------------------------------------------------

// quantile returns the q-quantile of xs by linear interpolation; 0 for
// an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func column(ts []*trial, f func(*trial) float64) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = f(t)
	}
	return out
}
