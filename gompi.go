// Package gompi is a Go reproduction of the MPI-3.1 communication stack
// analyzed in "Why Is MPI So Slow? Analyzing the Fundamental Limits in
// Implementing MPI-3.1" (Raffenetti et al., SC'17). It provides a
// working message-passing library over simulated network fabrics with
// two interchangeable devices — the paper's lightweight CH4 design and
// a CH3-style baseline — full instruction-level cost accounting of the
// critical path, and the paper's proposed MPI standard extensions
// (global-rank sends, virtual-address RMA, predefined communicator
// handles, no-PROC_NULL / requestless / no-match sends, and the fused
// MPI_ISEND_ALL_OPTS path).
//
// Ranks are goroutines inside one process; time is virtual (per-rank
// cycle clocks driven by the same instruction charges that produce the
// paper's Table 1 and Figure 2), so message rates and application
// scaling curves are deterministic. See DESIGN.md for the full model.
//
// The entry point is Run:
//
//	cfg := gompi.Config{Device: gompi.DeviceCH4, Fabric: gompi.FabricOFI, RanksPerNode: 1}
//	err := gompi.Run(4, cfg, func(p *gompi.Proc) error {
//		world := p.World()
//		if p.Rank() == 0 {
//			return world.Send([]byte("hi"), 2, gompi.Byte, 1, 0)
//		}
//		...
//	})
package gompi

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"gompi/internal/abort"
	"gompi/internal/ch4"
	"gompi/internal/comm"
	"gompi/internal/core"
	"gompi/internal/fabric"
	"gompi/internal/flight"
	"gompi/internal/instr"
	"gompi/internal/nbc"
	"gompi/internal/original"
	"gompi/internal/proc"
	"gompi/internal/stall"
)

// ErrStalled is returned (wrapped) by Run when the stall watchdog
// tripped: every rank was parked in a blocking wait with no transport
// activity across two scan intervals — a deadlock. The wait-graph
// diagnosis went to Config.DiagWriter (os.Stderr when unset).
var ErrStalled = errors.New("gompi: stall watchdog tripped (deadlock)")

// DeviceKind selects the MPI implementation. It is a defined string
// type, so untyped string literals ("ch4") keep compiling in Config
// literals; prefer the typed constants in new code.
type DeviceKind string

// Devices.
const (
	// DeviceCH4 is the paper's lightweight device (the default).
	DeviceCH4 DeviceKind = "ch4"
	// DeviceOriginal is the CH3-style baseline.
	DeviceOriginal DeviceKind = "original"
)

// FabricKind selects the simulated network profile.
type FabricKind string

// Fabrics.
const (
	// FabricOFI is the Omni-Path/PSM2 profile.
	FabricOFI FabricKind = "ofi"
	// FabricUCX is the Mellanox EDR profile.
	FabricUCX FabricKind = "ucx"
	// FabricInf is the infinitely fast network (the default).
	FabricInf FabricKind = "inf"
	// FabricBGQ is the Blue Gene/Q profile.
	FabricBGQ FabricKind = "bgq"
)

// BuildKind selects the Figure 2 build configuration.
type BuildKind string

// Builds, in Figure 2 legend order.
const (
	BuildDefault        BuildKind = "default"
	BuildNoErr          BuildKind = "no-err"
	BuildNoErrSingle    BuildKind = "no-err-single"
	BuildNoErrSingleIPO BuildKind = "no-err-single-ipo"
)

// Config selects the library build and platform, mirroring the paper's
// experimental axes.
type Config struct {
	// Device selects the MPI implementation: DeviceCH4 (default, the
	// paper's lightweight device) or DeviceOriginal (the CH3-style
	// baseline). Plain string literals remain accepted.
	Device DeviceKind
	// Fabric selects the simulated network: FabricOFI (Omni-Path/PSM2
	// profile), FabricUCX (Mellanox EDR profile), FabricBGQ, or
	// FabricInf (the infinitely fast network; default).
	Fabric FabricKind
	// RanksPerNode controls locality: 1 (default) makes every peer
	// remote (pure netmod); >1 co-locates ranks so the shmmod carries
	// on-node traffic (ch4 only).
	RanksPerNode int
	// Build selects the Figure 2 configuration: BuildDefault,
	// BuildNoErr, BuildNoErrSingle, BuildNoErrSingleIPO.
	Build BuildKind
	// ThreadMultiple requests MPI_THREAD_MULTIPLE: communication takes
	// the per-communicator critical section.
	ThreadMultiple bool
	// VCIs is the number of virtual communication interfaces each
	// rank's ch4 endpoint exposes (1-8; 0 means 1). Each communicator's
	// traffic rides one of them, picked by its context, so with more
	// than one, concurrent goroutines of a rank driving different
	// communicators proceed in parallel instead of convoying on a
	// single endpoint lock — the Zambre-style multi-VCI design.
	// The baseline device ignores it (CH3's single critical section is
	// the point of comparison). Single-VCI behavior is bit-identical
	// to earlier builds.
	VCIs int
	// Trace enables per-operation event tracing (an MPE-style
	// profile); TraceEvents bounds the per-rank ring (default 4096).
	Trace       bool
	TraceEvents int
	// EagerLimit overrides the fabric's eager/rendezvous threshold in
	// bytes: 0 keeps the profile default, a positive value sets it,
	// and a negative value disables rendezvous entirely (everything
	// eager). Exposed for the eager-threshold ablation.
	EagerLimit int
	// ShmEagerMax is the shared-memory staged/handoff threshold in
	// bytes: on-node payloads strictly larger than it are lent to the
	// receiver as zero-copy handoff descriptors — a single copy into
	// the posted buffer, or none at all when a collective folds the
	// lent view in place — instead of being fragmented through staging
	// cells. 0 (the default) disables the handoff path; ch4 only.
	ShmEagerMax int
	// ShmCellSize and ShmRingCells override the shared-memory ring
	// geometry in bytes per cell and cells per ring (0 = the shm
	// package defaults, 4096 and 64), so the staged/handoff crossover
	// can be swept against the cell cost model.
	ShmCellSize  int
	ShmRingCells int
	// EagerPeers restores all-pairs per-peer state materialization at
	// startup: every rank pays the connection-setup cost toward every
	// peer (and pre-creates the shm ring toward every on-node peer) at
	// open, as pre-on-demand MPIs did. Default false: per-peer state
	// (fabric connection slots, shm rings) materializes on first send
	// toward each peer — the on-demand connection model of Liu et al.
	// that bounds per-rank memory by the peers actually spoken to.
	// This is the measurable baseline of the lazy-peer-state ablation.
	EagerPeers bool
	// MaxPeerBytes is a hard per-rank ceiling on modeled per-peer state
	// bytes (connection slots + shm rings). A rank whose
	// materializations exceed the ceiling fails the run with a
	// diagnostic — the assertion that keeps 10K-rank worlds inside a
	// memory budget. 0 (the default) means unlimited.
	MaxPeerBytes int64
	// CollAlgorithm pins collective algorithm selection for the whole
	// job: an nbc algorithm family name ("two-level", "flat",
	// "binomial", "rdouble", "rsag", "ring", "bruck", "pairwise",
	// "posted", ...). Empty or "auto" keeps size/topology-based
	// selection. Per-communicator override: the gompi_coll_algorithm
	// info key (CollAlgorithmKey).
	CollAlgorithm string
	// Watchdog enables the stall watchdog: a wall-clock scanner that
	// detects a deadlocked world (every rank parked in a blocking wait
	// with no transport activity), dumps a wait-graph diagnosis to
	// DiagWriter, aborts the job, and makes Run return ErrStalled. The
	// detection condition is structurally free of false positives for
	// single-threaded ranks; see internal/stall.
	Watchdog bool
	// WatchdogInterval is the scan period (50ms when zero). Raise it for
	// MPI_THREAD_MULTIPLE workloads whose compute phases exceed two scan
	// intervals while another goroutine of the rank is parked.
	WatchdogInterval time.Duration
	// DiagWriter, when non-nil, receives diagnostic dumps: the flight
	// recorder and wait graph on a watchdog trip, MPI_ABORT, or error
	// teardown. Watchdog trips fall back to os.Stderr when it is nil;
	// abort/error teardown dumps only happen when it is set.
	DiagWriter io.Writer
	// Profiler, when non-nil, receives Enter/Exit callbacks around
	// every MPI operation on every rank (a PMPI-style interception
	// layer). The implementation must be safe for concurrent use: all
	// ranks call it.
	Profiler Profiler
	// Stats, when non-nil, is filled at teardown with the per-rank
	// counters, metrics registries, and (when tracing) event logs of
	// the run. See Stats.
	Stats *Stats
}

// resolve validates the configuration into its internal pieces.
func (cfg Config) resolve() (prof fabric.Profile, bc core.Config, dev string, rpn int, err error) {
	prof, ok := fabric.ByName(string(cfg.Fabric))
	if !ok {
		return prof, bc, "", 0, fmt.Errorf("gompi: unknown fabric %q", cfg.Fabric)
	}
	bc, ok = core.ConfigByName(string(cfg.Build))
	if !ok {
		return prof, bc, "", 0, fmt.Errorf("gompi: unknown build %q", cfg.Build)
	}
	bc.ThreadMultiple = cfg.ThreadMultiple
	if cfg.ThreadMultiple {
		bc.ThreadCheck = true
	}
	if cfg.VCIs < 0 || cfg.VCIs > 8 {
		return prof, bc, "", 0, fmt.Errorf("gompi: VCIs %d outside [0,8]", cfg.VCIs)
	}
	bc.VCIs = cfg.VCIs
	dev = string(cfg.Device)
	if dev == "" {
		dev = "ch4"
	}
	if dev != "ch4" && dev != "original" {
		return prof, bc, "", 0, fmt.Errorf("gompi: unknown device %q", cfg.Device)
	}
	rpn = cfg.RanksPerNode
	if rpn <= 0 {
		rpn = 1
	}
	switch {
	case cfg.EagerLimit > 0:
		prof.EagerLimit = cfg.EagerLimit
	case cfg.EagerLimit < 0:
		prof.EagerLimit = 0 // unlimited eager
	}
	if cfg.ShmEagerMax < 0 {
		return prof, bc, "", 0, fmt.Errorf("gompi: ShmEagerMax %d negative", cfg.ShmEagerMax)
	}
	if cfg.ShmCellSize < 0 || cfg.ShmRingCells < 0 {
		return prof, bc, "", 0, fmt.Errorf("gompi: shm ring geometry %d cells x %d bytes negative",
			cfg.ShmRingCells, cfg.ShmCellSize)
	}
	bc.ShmEagerMax = cfg.ShmEagerMax
	bc.ShmCellSize = cfg.ShmCellSize
	bc.ShmRingCells = cfg.ShmRingCells
	if cfg.MaxPeerBytes < 0 {
		return prof, bc, "", 0, fmt.Errorf("gompi: MaxPeerBytes %d negative", cfg.MaxPeerBytes)
	}
	bc.EagerPeers = cfg.EagerPeers
	bc.MaxPeerBytes = cfg.MaxPeerBytes
	if _, err := nbc.ParseForce(cfg.CollAlgorithm); err != nil {
		return prof, bc, "", 0, fmt.Errorf("gompi: %v", err)
	}
	return prof, bc, dev, rpn, nil
}

// MaxPredefinedComms is the size of the predefined communicator handle
// table of the Section 3.3 proposal.
const MaxPredefinedComms = 8

// CommHandle names one predefined communicator slot (MPI_COMM_1..8 in
// the proposal's terms).
type CommHandle int

// Predefined communicator handles.
const (
	Comm1 CommHandle = iota
	Comm2
	Comm3
	Comm4
	Comm5
	Comm6
	Comm7
	Comm8
)

// Proc is one rank's handle to the library: the per-rank state an MPI
// process owns. All methods must be called from the rank's own
// goroutine (the body function Run started).
type Proc struct {
	rank  *proc.Rank
	dev   core.Device
	bc    core.Config
	meter core.Meter
	world *Comm

	// predef is the global predefined-communicator table of the
	// Section 3.3 proposal: indexing it is a constant-offset load, not
	// a dereference into a dynamically allocated object.
	predef [MaxPredefinedComms]*Comm

	// eagerLimit is the resolved fabric eager/rendezvous threshold in
	// bytes (0 = unlimited eager); the collective layers segment
	// payloads by it so collective traffic never enters rendezvous.
	eagerLimit int
	// collAlgo is Config.CollAlgorithm, the job-wide collective
	// algorithm pin (validated at resolve time).
	collAlgo string

	// Phase-region accounting (PhaseBegin/PhaseEnd): accumulated
	// per-name stats, the name→index table, and the open-region stack.
	// Owner-goroutine only, like the trace log.
	phases     []PhaseStats
	phaseIdx   map[string]int
	phaseStack []phaseFrame

	// scratch holds the public Requests the blocking calls wait on: a
	// blocking Send/Recv drops its Request on the next line, so it
	// borrows one of these (Sendrecv holds both) instead of allocating.
	scratch [2]Request
	// reqSlab is the unused tail of the slab newRequest hands the
	// nonblocking calls' Requests out of (owner goroutine only).
	reqSlab []Request

	tlog     flight.Log
	profiler Profiler
	teardown func()
	dump     func(io.Writer)
}

// DumpState writes a human-readable diagnosis of the whole job: every
// rank's virtual clock and park state, the tail of its flight recorder
// (recent protocol events), and the device wait graph — unmatched
// posted receives, unexpected-queue contents, and who-waits-on-whom
// edges. The same dump fires automatically on a stall-watchdog trip.
// Call it from the rank's own goroutine, at any time. A rank's live
// clock belongs to its goroutine alone, so each line carries the clock
// that rank last published: exact for the caller and for a parked
// rank, "as of its last park" for a rank still running — and so does
// its flight recorder, whose newest events (at most 32) a running rank
// has not published yet.
func (p *Proc) DumpState(w io.Writer) {
	p.rank.Metrics().Publish(int64(p.rank.Now()))
	if p.dump != nil {
		p.dump(w)
	}
}

// Profiler is the PMPI-style interception interface: Enter fires when
// an MPI operation begins on a rank, Exit when it returns. The op kind
// is the operation's trace classification; peer and bytes describe the
// call (peer is -1 when not applicable), and vcycles is the rank's
// virtual clock at the hook. Hooks run on the rank's goroutine inside
// the operation, so they observe virtual time exactly — but they must
// not call back into the Proc, and they must be safe for concurrent
// invocation across ranks.
type Profiler interface {
	Enter(rank int, op TraceKind, peer, bytes int, vcycles int64)
	Exit(rank int, op TraceKind, peer, bytes int, vcycles int64)
}

// Run launches an n-rank job and executes body on every rank. It
// returns when all ranks finish; rank errors are joined.
func Run(n int, cfg Config, body func(p *Proc) error) error {
	prof, bc, dev, rpn, err := cfg.resolve()
	if err != nil {
		return err
	}
	if n <= 0 {
		return fmt.Errorf("gompi: world size %d", n)
	}
	hz := prof.Hz
	if hz == 0 {
		hz = 2.2e9
	}
	world := proc.NewWorld(n, rpn, hz)
	world.SetInstrCPI(prof.InstrCPI)
	world.SetThreadMultiple(bc.ThreadMultiple)
	reg := comm.NewRegistry()

	// The device family's job-wide state: its fabric, whose event wait
	// is where every rank blocks (so its abort ends every wait and its
	// watchdog hook sees every park), its wait graph, and how a rank
	// opens its device on it.
	var fab *fabric.Fabric
	var devDump func(io.Writer)
	var open func(r *proc.Rank) core.Device
	switch dev {
	case "ch4":
		g := ch4.NewGlobal(world, prof, bc)
		fab, devDump, open = g.Fab, g.DumpState, func(r *proc.Rank) core.Device { return g.Open(r) }
	default:
		g := original.NewGlobal(world, prof, bc)
		fab, devDump, open = g.Fab, g.DumpState, func(r *proc.Rank) core.Device { return g.Open(r) }
	}

	// dumpWorld renders the whole diagnosis: per-rank clock and park
	// state, each rank's flight-recorder tail, and the device wait graph
	// (unmatched posted receives, unexpected queues, waits-on edges). It
	// runs on any goroutine, so it prints the clock and the flight events
	// each rank published at its last park, never live single-writer
	// state; what peers landed at a rank's matching units lives with
	// those units and prints in the wait graph, each line carrying the
	// ring position that places it among the rank's own events.
	var mon *stall.Monitor
	dumpWorld := func(w io.Writer) {
		fmt.Fprintf(w, "=== gompi state dump (%d rank(s), device %s) ===\n", n, dev)
		for i := 0; i < n; i++ {
			m := world.Rank(i).Metrics()
			fmt.Fprintf(w, "rank %d: vcycles=%d (as of last park) parked=%v\n", i, m.ParkClock.Load(), mon.Parked(i))
			m.Flight.Dump(w, fmt.Sprintf("rank %d", i))
		}
		reg.WriteWaitGraph(w)
		devDump(w)
	}

	// One diagnosis per job, whoever gets there first: the watchdog
	// trip, MPI_ABORT, or the first failing rank's teardown.
	var diagOnce sync.Once
	teardown := func() {
		if cfg.DiagWriter != nil {
			diagOnce.Do(func() { dumpWorld(cfg.DiagWriter) })
		}
		fab.Abort()
	}

	if cfg.Watchdog {
		diag := cfg.DiagWriter
		if diag == nil {
			diag = os.Stderr
		}
		mon = stall.New(n, cfg.WatchdogInterval, func() {
			diagOnce.Do(func() {
				fmt.Fprintln(diag, "gompi: stall watchdog tripped — every rank parked with no transport activity")
				dumpWorld(diag)
			})
			teardown()
		})
		fab.SetStall(mon)
		mon.Start()
		defer mon.Stop()
	}
	if cfg.Stats != nil {
		*cfg.Stats = Stats{
			Hz:     hz,
			Ranks:  make([]RankStats, n),
			traces: make([][]flight.Event, n),
		}
	}
	errs := world.RunAll(func(r *proc.Rank) error {
		// A rank dying by panic must also tear the world down, or
		// peers blocked on it would hang; re-panic for proc.Run's
		// recovery to report.
		defer func() {
			if rec := recover(); rec != nil {
				r.Metrics().Publish(int64(r.Now()))
				teardown()
				panic(rec)
			}
		}()
		defer mon.RankExited(r.ID())
		p := &Proc{rank: r, dev: open(r), bc: bc, meter: core.NewMeter(r, bc),
			eagerLimit: prof.EagerLimit, collAlgo: cfg.CollAlgorithm,
			profiler: cfg.Profiler, teardown: teardown, dump: dumpWorld}
		if cfg.Trace {
			p.tlog.Enable(cfg.TraceEvents)
		}
		// Start-up: no rank communicates before every device is open.
		p.world = &Comm{p: p, c: comm.NewWorld(reg, n, r.ID())}
		p.world.c.Exchange(p.dev, nil)
		err := body(p)
		// Rank exit: the dump a failing rank's teardown writes (or a
		// peer's, later) sees this rank's whole history.
		r.Metrics().Publish(int64(r.Now()))
		if cfg.Stats != nil {
			p.collectStats(cfg.Stats)
		}
		if err != nil {
			// Tear the world down so peers blocked on this rank fail
			// fast instead of hanging; their abort fallout is filtered
			// below in favor of this original error.
			teardown()
		}
		return err
	})
	if cfg.Stats != nil {
		cfg.Stats.WatchdogTrips = mon.Trips()
	}
	// Prefer original failures over teardown fallout.
	var originals, fallout []error
	for _, e := range errs {
		switch {
		case e == nil:
		case errors.Is(e, abort.ErrWorldAborted):
			fallout = append(fallout, e)
		default:
			originals = append(originals, e)
		}
	}
	if len(originals) > 0 {
		return errors.Join(originals...)
	}
	// A watchdog trip aborts the world, so every rank error is abort
	// fallout; surface the deadlock itself instead.
	if mon.Trips() > 0 {
		return fmt.Errorf("%w: diagnosis written to DiagWriter", ErrStalled)
	}
	return errors.Join(fallout...)
}

// collectStats fills the calling rank's slot of s at rank exit. Each
// rank fills only its own slot, so the collection needs no lock; the
// merge happens after RunAll joins. It is a function of its own so
// that the RankStats value (a whole metrics snapshot) lives in this
// short-lived frame, not in the rank goroutine's entry frame, whose
// locals set every rank's stack size.
//
//go:noinline
func (p *Proc) collectStats(s *Stats) {
	id := p.rank.ID()
	s.Ranks[id] = RankStats{
		Rank:          id,
		Valid:         true,
		Counters:      p.Counters(),
		Metrics:       p.dev.Stats(),
		Phases:        p.phaseSnapshot(),
		TraceDropped:  p.tlog.Dropped(),
		VirtualCycles: int64(p.rank.Now()),
	}
	s.traces[id] = p.tlog.Events()
}

// Rank returns the calling process's MPI_COMM_WORLD rank.
func (p *Proc) Rank() int { return p.rank.ID() }

// Size returns the world size.
func (p *Proc) Size() int { return p.rank.World().Size() }

// World returns the MPI_COMM_WORLD communicator.
func (p *Proc) World() *Comm { return p.world }

// PredefComm returns the communicator installed in the predefined
// handle slot (nil until CommDupPredefined populates it). The lookup is
// the proposal's constant-indexed global load.
func (p *Proc) PredefComm(h CommHandle) *Comm { return p.predef[h] }

// Progress advances the communication engines; long compute loops may
// call it to let one-sided fallback traffic make progress.
func (p *Proc) Progress() { p.dev.Progress() }

// Abort terminates the whole job immediately (MPI_ABORT): every rank's
// blocked operation fails fast and Run returns an error carrying the
// code. It does not return.
func (p *Proc) Abort(code int) {
	p.teardown()
	panic(errc(ErrOther, "MPI_ABORT called by rank %d with code %d", p.Rank(), code))
}

// Counters is a public snapshot of the rank's cost accounting: the
// Table 1 categories plus virtual time.
type Counters struct {
	ErrorCheck  int64 `json:"error_check"`
	ThreadCheck int64 `json:"thread_check"`
	Call        int64 `json:"call"`
	Redundant   int64 `json:"redundant"`
	Mandatory   int64 `json:"mandatory"`
	TotalInstr  int64 `json:"total_instr"` // sum of the five MPI categories
	Transport   int64 `json:"transport"`   // fabric/shm cycles (not MPI instructions)
	Compute     int64 `json:"compute"`     // modeled application cycles
	Cycles      int64 `json:"cycles"`      // charged cycles: TotalInstr at the platform's CPI + Transport + Compute
}

// Counters returns the current accumulated costs for this rank.
func (p *Proc) Counters() Counters {
	prof := p.rank.Profile()
	return Counters{
		ErrorCheck:  prof.Count(instr.ErrorCheck),
		ThreadCheck: prof.Count(instr.ThreadCheck),
		Call:        prof.Count(instr.Call),
		Redundant:   prof.Count(instr.Redundant),
		Mandatory:   prof.Count(instr.Mandatory),
		TotalInstr:  prof.Total(),
		Transport:   prof.Count(instr.Transport),
		Compute:     prof.Count(instr.Compute),
		Cycles:      p.rank.Cycles(),
	}
}

// Sub returns the difference c - o, for per-region measurements.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		ErrorCheck:  c.ErrorCheck - o.ErrorCheck,
		ThreadCheck: c.ThreadCheck - o.ThreadCheck,
		Call:        c.Call - o.Call,
		Redundant:   c.Redundant - o.Redundant,
		Mandatory:   c.Mandatory - o.Mandatory,
		TotalInstr:  c.TotalInstr - o.TotalInstr,
		Transport:   c.Transport - o.Transport,
		Compute:     c.Compute - o.Compute,
		Cycles:      c.Cycles - o.Cycles,
	}
}

// Metrics snapshots this rank's observability registry (message and
// byte counts by path, matching statistics, pool behavior, RMA op
// counts). The counters are per-rank and lock-free; see DESIGN.md §6a.
func (p *Proc) Metrics() MetricsSnapshot { return p.dev.Stats() }

// VirtualTime returns the rank's virtual clock in seconds since spawn.
func (p *Proc) VirtualTime() float64 {
	return float64(p.rank.Now()) / p.rank.World().Hz()
}

// VirtualCycles returns the rank's virtual clock in cycles.
func (p *Proc) VirtualCycles() int64 { return int64(p.rank.Now()) }

// ClockHz returns the model core frequency.
func (p *Proc) ClockHz() float64 { return p.rank.World().Hz() }

// ChargeCompute advances the rank's virtual clock by modeled
// application work (flop count times cycles per flop). Applications use
// it to account for arithmetic the simulation performs natively.
func (p *Proc) ChargeCompute(cycles int64) {
	p.rank.ChargeCycles(instr.Compute, cycles)
}

// noteColl attributes one collective call to its algorithm slot in the
// rank's metrics registry.
func (p *Proc) noteColl(algo, bytes int) {
	p.rank.Metrics().NoteColl(algo, int64(bytes))
}

// chargeCall records the public MPI symbol's call-frame cost.
func (p *Proc) chargeCall() {
	p.meter.Charge(instr.Call, instr.CallEntry.Value())
}

// chargeThread performs the runtime thread-level check (and the real
// critical section under MPI_THREAD_MULTIPLE). Returns an unlock
// function (no-op when single-threaded).
func (p *Proc) chargeThread(c *comm.Comm, win bool) func() {
	if !p.bc.Pays(instr.ThreadCheck, false) {
		return func() {}
	}
	cost := instr.ThreadLevel.Value()
	if win {
		cost = instr.ThreadLevelWin.Value()
	}
	p.rank.Charge(instr.ThreadCheck, cost)
	if !p.bc.ThreadMultiple || c == nil {
		return func() {}
	}
	p.rank.Charge(instr.ThreadCheck, instr.ThreadLock.Value())
	c.Lock.Lock()
	return c.Unlock
}

// TraceEvent is one recorded operation of the event trace: the record
// the flight recorder's dumps are made of, with Start..End spanning
// the call.
type TraceEvent = flight.Event

// TraceKind classifies traced operations (see the Trace* constants).
type TraceKind = flight.Kind

// Trace operation kinds, re-exported for event inspection.
const (
	TraceSend   = flight.Send
	TraceRecv   = flight.Recv
	TraceWait   = flight.Wait
	TraceColl   = flight.Coll
	TracePut    = flight.Put
	TraceGet    = flight.Get
	TraceAcc    = flight.Acc
	TraceSync   = flight.Sync
	TraceProbe  = flight.Probe
	TraceSched  = flight.Sched
	TraceFlush  = flight.RmaFlush
	TraceNotify = flight.Notify
)

// TraceEvents returns this rank's recorded events in chronological
// order (empty unless Config.Trace was set).
func (p *Proc) TraceEvents() []TraceEvent { return p.tlog.Events() }

// WriteTraceSummary renders the per-operation profile of this rank.
func (p *Proc) WriteTraceSummary(w interface{ Write([]byte) (int, error) }) {
	p.tlog.Summarize().Write(w)
}

// span starts a traced/profiled interval; the returned func records
// it. Callers open a span only when observed, so with tracing and
// profiling both off the steady-state path neither allocates nor
// evaluates the span's arguments.
func (p *Proc) span(kind flight.Kind, peer, bytes int) func() {
	return p.spanVCI(kind, peer, bytes, -1)
}

// observed reports whether calls are traced or profiled.
func (p *Proc) observed() bool { return p.tlog.Enabled() || p.profiler != nil }

// spanVCI is span with the virtual communication interface the
// operation will use (-1 when not applicable); the point-to-point
// paths record it so Chrome traces show which channel carried each
// message.
func (p *Proc) spanVCI(kind flight.Kind, peer, bytes, vci int) func() {
	traced := p.tlog.Enabled()
	start := p.rank.Now()
	if p.profiler != nil {
		p.profiler.Enter(p.rank.ID(), kind, peer, bytes, int64(start))
	}
	return func() {
		end := p.rank.Now()
		if traced {
			p.tlog.Record(flight.Event{Kind: kind, Peer: peer, Bytes: bytes, VCI: vci, Start: start, End: end})
		}
		if p.profiler != nil {
			p.profiler.Exit(p.rank.ID(), kind, peer, bytes, int64(end))
		}
	}
}

// vciOf asks the device which interface c's traffic rides, for an
// observed call's span; -1 when the device has no VCI notion (the
// baseline).
func (p *Proc) vciOf(c *Comm) int { return p.dev.VCIOf(c.c) }
