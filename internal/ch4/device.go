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

	"gompi/internal/comm"
	"gompi/internal/core"
	"gompi/internal/fabric"
	"gompi/internal/instr"
	"gompi/internal/match"
	"gompi/internal/metrics"
	"gompi/internal/proc"
	"gompi/internal/request"
	"gompi/internal/shm"
	"gompi/internal/vtime"
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
	g     *Global
	rank  *proc.Rank
	ep    *fabric.Endpoint
	cfg   core.Config
	meter core.Meter
	pool  request.Pool // requests complete at issue: eager sends, PROC_NULL receives, empty flushes

	// Box freelists: a receive or lent send lives in a box with the
	// request it drives, and freeing the request recycles the box, so
	// steady-state loops post without touching the heap (a derived
	// layout's bounce buffer is the one exception).
	recvFree request.Freelist[recvBox]
	sendFree request.Freelist[sendBox]

	// am is the active-message fallback of the ch4 core: the one-sided
	// packet set both devices share, here carrying only what the
	// netmod cannot do natively (derived-layout Put, Accumulate and
	// GetAccumulate).
	am *core.AM
}

// Open attaches rank to the device. Must be called on the rank's own
// goroutine before the world start-up rendezvous.
func (g *Global) Open(r *proc.Rank) *Device {
	d := &Device{g: g, rank: r, ep: g.Fab.Endpoint(r.ID()), cfg: g.Cfg, meter: core.NewMeter(r, g.Cfg)}
	d.pool.Metrics = r.Metrics()
	if g.Cfg.ThreadMultiple {
		d.pool.Share()
		d.recvFree.Share()
		d.sendFree.Share()
	}
	d.ep.Bind(r)
	if g.Shm != nil {
		g.Shm.Bind(r.ID(), r)
		g.Shm.BindWait(r.ID(), d.waitUntil)
	}
	d.am = core.NewAM(r, g.Fab, 0, core.AMCosts{Move: instr.AMScatterCost, Fold: instr.AMFoldCost}, d.waitUntil)
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

// Wake moves the event counter, ending a WaitEvent.
func (d *Device) Wake() { d.ep.Notify() }

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

// cost is the device's column of the cost table.
func cost(c instr.Cost) int64 { return instr.Table[c].CH4 }

// charge records n instructions in cat under the build's removal rules.
func (d *Device) charge(cat instr.Category, n int64) { d.meter.Charge(cat, n) }

// lane is the virtual interface every operation on the communicator
// whose match bits are bits travels: sends, receives, probes, matched
// probes and no-match traffic alike (Fabric.VCIForCtx). The pick is a
// handful of arithmetic instructions already covered by the match-bits
// charge — CH4 folds VCI selection into the match-word build the same
// way.
func (d *Device) lane(bits match.Bits) int { return d.g.Fab.VCIForCtx(bits.Context()) }

// VCIOf reports the communicator's lane, for trace annotation. Called
// only when tracing is enabled; never charged.
func (d *Device) VCIOf(c *comm.Comm) int { return d.g.Fab.VCIForCtx(c.Ctx) }

// translateRank resolves a communicator rank to the world/fabric rank,
// charging by table representation.
func (d *Device) translateRank(c *comm.Comm, rank int) (int, error) {
	if c.Table.Kind() == comm.TableDense {
		d.charge(instr.Mandatory, cost(instr.RankTranslateDense))
	} else {
		d.charge(instr.Mandatory, cost(instr.RankTranslate))
	}
	return c.WorldRank(rank)
}
