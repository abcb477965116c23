// Package proc is the process-manager stand-in: it spawns one goroutine
// per MPI rank, assigns ranks to simulated nodes (which decides netmod
// vs shmmod locality), owns each rank's virtual clock and instruction
// profile, and collects per-rank failures. It plays the role PMI and
// the job launcher play for a real MPICH.
package proc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gompi/internal/abort"
	"gompi/internal/instr"
	"gompi/internal/metrics"
	"gompi/internal/vtime"
)

// World describes one job: P ranks over P/ranksPerNode nodes.
type World struct {
	size         int
	ranksPerNode int
	hz           float64
	ranks        []*Rank
}

// NewWorld creates a world of n ranks at ranksPerNode ranks per node,
// with per-rank clocks at the model frequency hz.
func NewWorld(n, ranksPerNode int, hz float64) *World {
	if n <= 0 {
		panic("proc: world size must be positive")
	}
	if hz <= 0 {
		panic("proc: non-positive frequency")
	}
	if ranksPerNode <= 0 {
		ranksPerNode = n // single node
	}
	w := &World{size: n, ranksPerNode: ranksPerNode, hz: hz}
	w.ranks = make([]*Rank, n)
	for i := range w.ranks {
		w.ranks[i] = &Rank{id: i, world: w, cpi: 1}
	}
	return w
}

// SetInstrCPI sets the cycles-per-instruction of MPI software on this
// platform (1 = the x86 testbeds; 6 for the BG/Q A2). It is an integer
// so that n*cpi summed over many charges and settled at once is exactly
// the sum of the per-charge products. Must be called before Run.
func (w *World) SetInstrCPI(cpi int64) {
	if cpi <= 0 {
		cpi = 1
	}
	for _, r := range w.ranks {
		r.cpi = cpi
	}
}

// SetThreadMultiple marks every rank's charge ledger and metrics
// registry as shared between goroutines: under MPI_THREAD_MULTIPLE
// several application goroutines drive one rank, so its charges and
// observations must be atomic. The default is single-writer. Must be
// called before Run.
func (w *World) SetThreadMultiple(on bool) {
	if !on {
		return
	}
	for _, r := range w.ranks {
		r.shared = true
		r.m.Share()
	}
}

// Hz returns the model core frequency, in cycles per second.
func (w *World) Hz() float64 { return w.hz }

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// RanksPerNode returns the node width.
func (w *World) RanksPerNode() int { return w.ranksPerNode }

// Node returns the node hosting rank.
func (w *World) Node(rank int) int { return rank / w.ranksPerNode }

// SameNode reports whether two ranks share a node (shmmod reachable).
func (w *World) SameNode(a, b int) bool { return w.Node(a) == w.Node(b) }

// Rank returns the rank object with the given id.
func (w *World) Rank(id int) *Rank { return w.ranks[id] }

// RunAll spawns one goroutine per rank, executes body on each, and
// returns after every rank finishes with the per-rank failures (errors
// or panics; nil entries for ranks that succeeded). A panic with abort.ErrWorldAborted — raised by
// blocking layers during teardown — is recorded as that sentinel, so
// callers can separate the original failure from its fallout.
func (w *World) RunAll(body func(r *Rank) error) []error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	wg.Add(w.size)
	for _, r := range w.ranks {
		go func(r *Rank) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if err, ok := p.(error); ok && errors.Is(err, abort.ErrWorldAborted) {
						errs[r.id] = fmt.Errorf("rank %d: %w", r.id, abort.ErrWorldAborted)
						return
					}
					errs[r.id] = fmt.Errorf("rank %d panicked: %v", r.id, p)
				}
			}()
			errs[r.id] = wrapRankErr(r.id, body(r))
		}(r)
	}
	wg.Wait()
	return errs
}

func wrapRankErr(id int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("rank %d: %w", id, err)
}

// Rank is one MPI process: a goroutine plus its charge ledger — the
// instruction profile, the cycles charged but not yet settled and the
// virtual clock. It is the one ledger the devices and transports charge.
// The ledger is single-writer: Charge, ChargeCycles, Sync and Now use
// plain loads and stores, so everything except the world queries and
// Metrics must be called only from the rank's own goroutine
// (any of its goroutines once the world is SetThreadMultiple) — and so
// must the registry's writers and Snapshot. Other goroutines learn a
// rank's clock from Metrics().ParkClock and its history from
// Metrics().Flight, both as of the rank's last park.
//
// A charge is one add: on a single-writer rank Charge and ChargeCycles
// add to the category counter and to pending, the cycles charged since
// the clock last moved, and never touch the clock. The clock settles —
// folds pending in — only where it is read, in Now and Sync, so every
// reading is exactly the time advancing at each charge would give. A
// shared rank advances its clock atomically at every charge and keeps
// pending at zero. The clock never runs backward.
type Rank struct {
	prof    instr.Profile
	pending int64 // cycles charged since the clock last settled
	now     int64 // the virtual clock: cycles since spawn
	cpi     int64 // cycles per MPI instruction (platform model)
	shared  bool  // SetThreadMultiple: every access to the ledger is atomic
	id      int
	world   *World
	m       metrics.Rank
}

// ID returns the rank's world rank.
func (r *Rank) ID() int { return r.id }

// World returns the owning world.
func (r *Rank) World() *World { return r.world }

// Charge records n MPI-library instructions and advances the virtual
// clock by n*CPI cycles. Instruction counts (Table 1, Figure 2) are
// CPI-independent; only time is platform-scaled.
func (r *Rank) Charge(cat instr.Category, n int64) {
	if n < 0 {
		panic(errNegativeCharge)
	}
	r.add(cat, n, n*r.cpi)
}

// ChargeCycles records n non-instruction cycles (transport injection,
// modeled compute) and advances the clock. They never appear in
// instruction counts, so an MPI instruction category panics.
func (r *Rank) ChargeCycles(cat instr.Category, n int64) {
	if n < 0 {
		panic(errNegativeCharge)
	}
	if cat < instr.Transport {
		panic("instr: ChargeCycles on an MPI instruction category")
	}
	r.add(cat, n, n)
}

// add records n in cat and the cycles it costs: to pending on a
// single-writer rank, to the clock itself on a shared one.
func (r *Rank) add(cat instr.Category, n, cycles int64) {
	if r.shared {
		r.prof.AddShared(cat, n)
		atomic.AddInt64(&r.now, cycles)
		return
	}
	r.prof.Add(cat, n)
	r.pending += cycles
}

// errNegativeCharge is the panic of a negative charge, raised at the
// call that made it: virtual time never runs backward. A single-writer
// rank's clock would only see the charge at the next settle.
const errNegativeCharge = "vtime: negative advance"

// settle folds the pending cycles into a single-writer rank's clock.
func (r *Rank) settle() {
	if r.pending != 0 {
		r.now += r.pending
		r.pending = 0
	}
}

// Now returns the rank's current virtual time.
func (r *Rank) Now() vtime.Time {
	if r.shared {
		return vtime.Time(atomic.LoadInt64(&r.now))
	}
	r.settle()
	return vtime.Time(r.now)
}

// Sync advances the rank's clock to t if t is in the future (message
// arrival, epoch close). It never moves the clock backward.
func (r *Rank) Sync(t vtime.Time) {
	if r.shared {
		r.syncShared(int64(t))
		return
	}
	r.settle()
	if int64(t) > r.now {
		r.now = int64(t)
	}
}

// syncShared is Sync on a shared rank: a CAS maximum, so concurrent
// Syncs cannot regress the clock either.
func (r *Rank) syncShared(t int64) {
	for {
		cur := atomic.LoadInt64(&r.now)
		if t <= cur || atomic.CompareAndSwapInt64(&r.now, cur, t) {
			return
		}
	}
}

// Cycles returns the cycles charged so far: every MPI instruction at
// the rank's CPI, plus the transport and compute cycles.
func (r *Rank) Cycles() int64 {
	p := &r.prof
	return r.cpi*p.Total() + p.Count(instr.Transport) + p.Count(instr.Compute)
}

// Profile exposes the rank's instruction profile for snapshots.
func (r *Rank) Profile() *instr.Profile { return &r.prof }

// Metrics exposes the rank's observability registry. The transports
// and devices bump its counters; the public layer snapshots it at
// teardown. Value field, so the registry costs no allocation.
func (r *Rank) Metrics() *metrics.Rank { return &r.m }
