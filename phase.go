package gompi

import (
	"gompi/internal/flight"
	"gompi/internal/instr"
	"gompi/internal/vtime"
)

// PhaseStats is one named application region's accumulated cost on one
// rank: how often it ran, its total virtual cycles, and the split the
// efficiency model attributes — useful (application compute) cycles,
// transport (data movement) cycles, and MPI-library instructions. It
// is collected into RankStats at teardown and drives the per-phase rows
// of Stats.Efficiency().
type PhaseStats struct {
	Name  string `json:"name"`
	Calls int64  `json:"calls"`
	// Cycles is total virtual time inside the phase, including cycles
	// spent parked waiting on peers.
	Cycles int64 `json:"cycles"`
	// UsefulCycles is application compute (ChargeCompute) inside the
	// phase; TransportCycles is fabric/shm injection and delivery.
	UsefulCycles    int64 `json:"useful_cycles"`
	TransportCycles int64 `json:"transport_cycles"`
	// MPIInstr is the MPI-library instruction count (the Table 1
	// total) charged inside the phase.
	MPIInstr int64 `json:"mpi_instr"`
}

// phaseFrame is one open PhaseBegin on the stack.
type phaseFrame struct {
	idx   int
	start vtime.Time
	snap  instr.Snapshot
}

// PhaseBegin opens a named phase region on this rank. Cycles accrued
// until the matching PhaseEnd are attributed to the region; regions
// with the same name accumulate across calls (an iteration loop entered
// 100 times yields one row with Calls=100). Regions may nest; a nested
// region's cycles are attributed to it and to every open enclosing
// region, so sibling phases partition a run only when they do not
// overlap. The API costs no instruction charges — phases are an
// observability construct, not an MPI operation.
func (p *Proc) PhaseBegin(name string) {
	if p.phaseIdx == nil {
		p.phaseIdx = make(map[string]int)
	}
	idx, ok := p.phaseIdx[name]
	if !ok {
		idx = len(p.phases)
		p.phaseIdx[name] = idx
		p.phases = append(p.phases, PhaseStats{Name: name})
	}
	p.phaseStack = append(p.phaseStack, phaseFrame{
		idx:   idx,
		start: p.rank.Now(),
		snap:  p.rank.Profile().Snap(),
	})
}

// PhaseEnd closes the innermost open phase region, accumulating its
// cycle deltas. It panics when no region is open — an unmatched
// PhaseEnd is a programming error, like an unmatched Unlock.
func (p *Proc) PhaseEnd() {
	n := len(p.phaseStack)
	if n == 0 {
		panic("gompi: PhaseEnd without matching PhaseBegin")
	}
	f := p.phaseStack[n-1]
	p.phaseStack = p.phaseStack[:n-1]
	end := p.rank.Now()
	d := p.rank.Profile().Delta(f.snap)
	cycles := int64(end - f.start)
	useful := d.Count(instr.Compute)
	ps := &p.phases[f.idx]
	ps.Calls++
	ps.Cycles += cycles
	ps.UsefulCycles += useful
	ps.TransportCycles += d.Count(instr.Transport)
	ps.MPIInstr += d.Total
	if p.tlog.Enabled() {
		p.tlog.Record(flight.Event{
			Kind: flight.Phase, Name: ps.Name,
			Peer: -1, VCI: -1,
			Start: f.start, End: end,
			Useful: useful, Comm: cycles - useful,
		})
	}
}

// Phase runs fn inside a region named name: PhaseBegin, fn, PhaseEnd.
// The region closes even when fn returns an error, so partial work is
// still attributed; fn's error is returned unchanged.
func (p *Proc) Phase(name string, fn func() error) error {
	p.PhaseBegin(name)
	defer p.PhaseEnd()
	return fn()
}

// phaseSnapshot returns the rank's accumulated phase table for the
// teardown snapshot, closing any regions left open (a body that
// returned mid-phase still gets its cycles attributed).
func (p *Proc) phaseSnapshot() []PhaseStats {
	for len(p.phaseStack) > 0 {
		p.PhaseEnd()
	}
	if len(p.phases) == 0 {
		return nil
	}
	return append([]PhaseStats(nil), p.phases...)
}
