// Package ch4 is the lightweight device — the paper's primary
// contribution, rebuilt in Go. The design goals mirror the original:
// the communication fast path flows from the MPI layer to the netmod or
// shmmod in the fewest instructions, MPI-level semantics are never lost
// on the way down, and anything a transport cannot do natively falls
// back to active messages in the ch4 core. Every structural cost on the
// critical path (rank translation, communicator dereference,
// MPI_PROC_NULL handling, request management, match-bits construction,
// locality dispatch, netmod descriptor preparation) charges its
// documented instruction count, so the Table 1 / Figure 2 numbers are
// produced by executing this code under the different build
// configurations.
package ch4

import (
	"io"
	"sync"

	"gompi/internal/comm"
	"gompi/internal/core"
	"gompi/internal/datatype"
	"gompi/internal/fabric"
	"gompi/internal/instr"
	"gompi/internal/match"
	"gompi/internal/metrics"
	"gompi/internal/proc"
	"gompi/internal/request"
	"gompi/internal/shm"
	"gompi/internal/stall"
	"gompi/internal/vtime"
)

// Mandatory-overhead charge constants (Table 1 row 5, Section 3). Each
// figure is the instruction count of the code structure it annotates;
// the Section 3 proposals eliminate them one by one.
const (
	// costProcNull is the MPI_PROC_NULL comparison and branch every
	// communication call pays (Section 3.4: ~3 instructions).
	costProcNull = 3
	// costCommDeref is the dereference into the dynamically allocated
	// communicator object for context id and tables (Section 3.3: 8).
	costCommDeref = 8
	// costCommPredef is the constant-indexed global-array load that
	// replaces it under the predefined-handle proposal.
	costCommPredef = 1
	// costRankTranslate is the compressed rank-to-network-address
	// lookup (Section 3.1: ~11 instructions with the memory-scalable
	// representation of [22]).
	costRankTranslate = 11
	// costRankTranslateDense is the plain O(P)-table lookup: two
	// instructions plus the dereference (the ablation comparison).
	costRankTranslateDense = 2 + instr.CostDeref
	// costMatchBits builds the (context|source|tag) match word
	// (Section 3.6: 5).
	costMatchBits = 5
	// costMatchBitsNoMatch is the single context load that remains
	// under the no-match proposal.
	costMatchBitsNoMatch = 1
	// costRequestAlloc allocates and initializes a request object from
	// the rank's pool (Section 3.5).
	costRequestAlloc = 13
	// costCounter is the counter increment replacing it under the
	// no-request proposal (~3 instructions, as the paper estimates).
	costCounter = 3
	// costLocality is the ch4-core self/shm/netmod dispatch.
	costLocality = 4
	// costNetmodPrep translates MPI-level parameters into the netmod
	// descriptor (endpoint lookup, remote address, completion slot).
	costNetmodPrep = 15
	// costShmPrep is the cheaper shmmod descriptor setup.
	costShmPrep = 10
	// costSelfLoop is the ch4-core self-send shortcut.
	costSelfLoop = 6
	// costRecvPost readies the matching-unit receive descriptor.
	costRecvPost = 12
)

// Redundant-runtime-check charge constants (Table 1 row 4, Section
// 2.2): work the compiler folds away once the MPI call is inlined and
// the datatype is a compile-time constant. The no-err-single-ipo build
// charges none of these.
const (
	costRedundantMarshal  = 16 // generic ADI parameter struct fill
	costRedundantReload   = 8  // device-side reload of those params
	costRedundantDatatype = 14 // datatype size/contiguity re-derivation
	costRedundantBufAddr  = 9  // buffer address and alignment compute
	costRedundantComplete = 12 // completion-mode genericity checks
	costRedundantWinKind  = 15 // static/dynamic window-kind genericity
)

// AM handler ids used by the ch4 core fallback.
const (
	amPutDerived uint8 = iota + 1
	amAccDerived
	amAck
)

// Global is the device state shared by all ranks: the fabric, the
// shared-memory domain, and the build configuration. One Global exists
// per job.
type Global struct {
	World *proc.World
	Fab   *fabric.Fabric
	Shm   *shm.Domain
	Cfg   core.Config
}

// NewGlobal wires the job-wide device state. When the world spans
// multiple ranks per node, a shared-memory domain is created and its
// deliveries feed each rank's fabric matching engine, so netmod and
// shmmod share one matching context. Cfg.VCIs splits every endpoint
// into that many virtual communication interfaces; shm fragments carry
// the sender's interface choice so both transports agree on where a
// message matches.
func NewGlobal(w *proc.World, prof fabric.Profile, cfg core.Config) *Global {
	fabOpts := fabric.Options{EagerPeers: cfg.EagerPeers, MaxPeerBytes: cfg.MaxPeerBytes}
	g := &Global{World: w, Fab: fabric.NewVCIOpt(prof, w.Size(), cfg.VCIs, fabOpts), Cfg: cfg}
	if w.RanksPerNode() > 1 {
		shmCfg := shm.Config{
			CellSize:     cfg.ShmCellSize,
			RingCells:    cfg.ShmRingCells,
			EagerMax:     cfg.ShmEagerMax,
			MaxPeerBytes: cfg.MaxPeerBytes,
		}
		g.Shm = shm.NewDomainCfg(shm.DefaultProfile, shmCfg, w.Size(),
			func(dst int, bits match.Bits, src int, data []byte, arrival vtime.Time, vci int) {
				g.Fab.Endpoint(dst).DepositShmVCI(bits, src, data, arrival, vci, nil)
			},
			func(dst, vci int) { g.Fab.Endpoint(dst).WakeVCI(vci) },
		)
		g.Shm.SetDeliverView(func(dst int, bits match.Bits, src int, view []byte, arrival vtime.Time, vci int, rel shm.Releaser) {
			g.Fab.Endpoint(dst).DepositShmVCI(bits, src, view, arrival, vci, rel)
		})
	}
	return g
}

// Abort tears the world down after a rank failure: all blocked waits
// panic with abort.ErrWorldAborted.
func (g *Global) Abort() {
	g.Fab.Abort()
	if g.Shm != nil {
		g.Shm.Abort()
	}
}

// SetStall attaches the stall watchdog to both transports.
func (g *Global) SetStall(m *stall.Monitor) {
	g.Fab.SetStall(m)
	if g.Shm != nil {
		g.Shm.SetStall(m)
	}
}

// DumpState writes the device-wide wait graph: every rank's unmatched
// posted receives, buffered unexpected messages, and who-waits-on-whom
// edges. CH4 matches on the fabric endpoint, so the fabric holds most
// of the picture (shm traffic deposits there too); the shm domain adds
// its ring occupancy and outstanding zero-copy handoffs, whose senders
// may be parked awaiting completion acks.
func (g *Global) DumpState(w io.Writer) {
	g.Fab.WriteWaitGraph(w)
	if g.Shm != nil {
		g.Shm.WriteWaitGraph(w)
	}
}

// Device is one rank's ch4 instance.
type Device struct {
	g    *Global
	rank *proc.Rank
	ep   *fabric.Endpoint
	cfg  core.Config
	pool request.Pool

	// Receive-descriptor freelist: every receive's RecvOp and its
	// completion closures are recycled instead of reallocated, so
	// steady-state receive loops — persistent-collective replays
	// especially — post without touching the heap (putRecvBox names the
	// one exception). Like request.Pool the freelist is the
	// owner goroutine's alone; boxMu is taken only under
	// MPI_THREAD_MULTIPLE, where several goroutines of one rank post
	// receives concurrently. sendFree chains the recycled boxes of lent
	// sends (through sendBox.next) by the same rule.
	boxMu    sync.Mutex
	boxFree  []*recvBox
	sendFree *sendBox

	// AM fallback accounting: operations shipped and acknowledgements
	// received. All mutate only on the owner goroutine (the ack
	// handler runs there).
	amSent       int64
	amAcked      int64
	amAckArrival vtime.Time
}

// Open attaches rank to the device. Must be called on the rank's own
// goroutine before its StartBarrier.
func (g *Global) Open(r *proc.Rank) *Device {
	d := &Device{g: g, rank: r, ep: g.Fab.Endpoint(r.ID()), cfg: g.Cfg}
	d.pool.Metrics = r.Metrics()
	if g.Cfg.ThreadMultiple {
		d.pool.Share()
	}
	d.ep.Bind(r)
	if g.Shm != nil {
		g.Shm.Bind(r.ID(), r)
	}
	d.ep.RegisterAM(amPutDerived, d.handlePutDerived)
	d.ep.RegisterAM(amAccDerived, d.handleAccDerived)
	d.ep.RegisterAM(amAck, d.handleAck)
	if g.Cfg.EagerPeers {
		// The eager-peers ablation: materialize connection state toward
		// every peer (and the shm ring toward every on-node peer) at
		// open, the all-pairs O(n²)-total setup the on-demand model
		// replaces.
		d.ep.EagerConnect()
		if g.Shm != nil {
			me := r.ID()
			rpn := g.World.RanksPerNode()
			node := me / rpn
			lo, hi := node*rpn, (node+1)*rpn
			if hi > g.World.Size() {
				hi = g.World.Size()
			}
			for p := lo; p < hi; p++ {
				g.Shm.Preconnect(me, p)
			}
		}
	}
	return d
}

// Rank returns the owning rank.
func (d *Device) Rank() *proc.Rank { return d.rank }

// Config returns the device's build configuration.
func (d *Device) Config() core.Config { return d.cfg }

// Stats snapshots the rank's metrics registry, folding in the
// endpoint matching engines' counters (kept on the engine itself so
// the match hot path stays a plain increment) and the arrival-side
// counters peers write under the VCI locks — each copied under its
// lock, so a mid-run snapshot (Proc.Metrics) or a teardown snapshot
// taken while peers still send does not race with them.
func (d *Device) Stats() metrics.Snapshot {
	return d.ep.SnapshotStats()
}

// Progress drains the shared-memory rings and runs pending active
// messages. A drain that delivered anything wakes the endpoint's
// aggregate waiters once, however many messages it deposited.
func (d *Device) Progress() {
	if d.g.Shm != nil && d.g.Shm.Progress(d.rank.ID()) > 0 {
		d.ep.Notify()
	}
	d.ep.Progress()
}

// EventSeq exposes the endpoint's aggregate transport-event counter.
func (d *Device) EventSeq() uint64 { return d.ep.EventSeqVCI(fabric.AnyVCI) }

// WaitEvent parks the rank until the event counter moves past seq.
func (d *Device) WaitEvent(seq uint64) { d.ep.WaitEventVCI(fabric.AnyVCI, seq) }

// waitUntil parks the rank until pred holds, pumping both transports.
// The event-sequence capture precedes the progress pass so a message
// that lands mid-pass is never slept through.
func (d *Device) waitUntil(pred func() bool) {
	for {
		seq := d.EventSeq()
		d.Progress()
		if pred() {
			return
		}
		d.WaitEvent(seq)
	}
}

// charge records n instructions in cat on the owning rank.
func (d *Device) charge(cat instr.Category, n int64) { d.rank.Charge(cat, n) }

// chargeDispatch records the ADI dispatch call overhead (the device's
// share of Table 1's "MPI function call" row) unless the build is
// inlined.
func (d *Device) chargeDispatch(n int64) {
	if !d.cfg.Inline {
		d.charge(instr.Call, n)
	}
}

// Call-dispatch costs of the ch4 entry points: together with the
// 17-instruction public entry they form the paper's 23 (Isend) and 25
// (Put) function-call figures.
const (
	costDispatchPt2pt = 6
	costDispatchRMA   = 8
)

// chargeRedundant records redundant-runtime-check instructions unless
// the build is inlined (Section 2.2: inlining folds them into
// compile-time constants).
func (d *Device) chargeRedundant(n int64) {
	if !d.cfg.Inline {
		d.charge(instr.Redundant, n)
	}
}

// chargeRedundantType records the datatype re-derivation cost. It
// survives link-time inlining for "class 3" types (Section 2.2):
// predefined types reached through runtime variables stay opaque to
// the compiler unless the whole application is inlined.
func (d *Device) chargeRedundantType(dt *datatype.Type, n int64) {
	if !d.cfg.Inline || dt.RuntimeMapped() {
		d.charge(instr.Redundant, n)
	}
}

// sendVCI picks the virtual interface a send on c travels: a hinted
// communicator owns a private interface keyed by its context pair;
// otherwise the (context, tag) hash spreads traffic. The selection is
// a handful of arithmetic instructions already covered by the
// match-bits charge — CH4 folds VCI selection into the match-word
// build the same way.
func (d *Device) sendVCI(c *comm.Comm, bits match.Bits) int {
	if c.Hints.Pinned() {
		return d.g.Fab.VCIForCtx(bits.Context())
	}
	return d.g.Fab.VCIFor(bits)
}

// recvVCI picks the interface a receive searches. A hinted
// communicator's receives — even its remaining legal wildcard — live
// on the private interface, so they never pay the cross-VCI walk.
// No-match receives ride the same (ctx, 0, 0) hash their senders use.
// Anything else with an exact context+tag hashes like a send; a true
// wildcard falls back to AnyVCI.
func (d *Device) recvVCI(c *comm.Comm, bits, mask match.Bits) int {
	switch {
	case c.Hints.Pinned():
		return d.g.Fab.VCIForCtx(bits.Context())
	case mask == match.NoMatchMask:
		return d.g.Fab.VCIFor(bits)
	case mask.ExactCtxTag():
		return d.g.Fab.VCIFor(bits)
	default:
		return fabric.AnyVCI
	}
}

// VCIOf reports the interface a send (recv=false) or receive
// (recv=true) with the given tag on c would use, for trace annotation.
// AnyVCI (-1) means the cross-VCI path. Called only when tracing is
// enabled; never charged.
func (d *Device) VCIOf(c *comm.Comm, tag int, recv bool) int {
	if recv {
		bits, mask := match.RecvBits(c.Ctx, 0, tag)
		return d.recvVCI(c, bits, mask)
	}
	return d.sendVCI(c, match.MakeBits(c.Ctx, c.MyRank, tag))
}

// translateRank resolves a communicator rank to the world/fabric rank,
// charging by table representation.
func (d *Device) translateRank(c *comm.Comm, rank int) (int, error) {
	if c.Table.Kind() == comm.TableDense {
		d.charge(instr.Mandatory, costRankTranslateDense)
	} else {
		d.charge(instr.Mandatory, costRankTranslate)
	}
	return c.WorldRank(rank)
}
