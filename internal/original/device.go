// Package original is the baseline device: a deliberate reconstruction
// of the MPICH/CH3 cost structure the paper compares against
// ("MPICH/Original"), which also underlies MVAPICH, Intel MPI, and Cray
// MPI. Where ch4 rides hardware tag matching and native RDMA, this
// device lowers every operation to generic packets over active
// messages: sends carry a marshaled envelope matched in software at the
// target, one-sided operations are emulated two-sided through packet
// handlers with per-operation queue entries allocated from a globally
// locked pool, and every layer boundary costs a real function-call
// charge. The structure — not hard-coded totals — produces the paper's
// 253-instruction MPI_ISEND and 1,342-instruction MPI_PUT.
package original

import (
	"encoding/binary"
	"fmt"
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
	"gompi/internal/vtime"
)

// amEager is the handler id of the eager send packet; the one-sided
// packets are core.AM's.
const amEager = core.AMFirstFree

// pktHeader is the size of CH3's generic packet header, to which every
// one-sided packet pads its fields.
const pktHeader = 24

// Global is the job-wide device state.
type Global struct {
	World *proc.World
	Fab   *fabric.Fabric
	Cfg   core.Config
	pool  request.LockedPool // the CH3-era globally locked request pool

	mu   sync.Mutex
	devs []*Device // every opened device, for wait-graph dumps
}

// NewGlobal builds the shared state. The original device has no shmmod
// split: every message takes the generic netmod path, as the paper's
// baseline does on these fabrics.
func NewGlobal(w *proc.World, prof fabric.Profile, cfg core.Config) *Global {
	fabOpts := fabric.Options{EagerPeers: cfg.EagerPeers, MaxPeerBytes: cfg.MaxPeerBytes}
	return &Global{World: w, Fab: fabric.NewVCIOpt(prof, w.Size(), 1, fabOpts), Cfg: cfg}
}

// DumpState writes the device-wide wait graph. Matching happens in
// software at the MPI layer on this device, so each rank's own engine —
// not the fabric's unused matching unit — holds the posted and
// unexpected queues. Each device's critical section is taken raw
// (ignoring the ThreadMultiple flag): the dump runs from the watchdog or
// teardown goroutine while ranks are parked, and parked waits hold no
// device lock.
func (g *Global) DumpState(w io.Writer) {
	g.mu.Lock()
	devs := append([]*Device(nil), g.devs...)
	g.mu.Unlock()
	fmt.Fprintf(w, "wait-graph: %d rank(s), software matching at the MPI layer\n", len(devs))
	for _, d := range devs {
		d.bigMu.Lock()
		posted, unex := d.eng.PostedLen(), d.eng.UnexpectedLen()
		fmt.Fprintf(w, "rank %d: %d posted, %d unexpected, %d unacked AM\n",
			d.rank.ID(), posted, unex, d.am.Sent()-d.am.Acked())
		d.eng.PostedEach(func(e match.Entry) {
			fmt.Fprintf(w, "  posted recv %s\n", e.DescribeRecv())
		})
		d.eng.UnexpectedEach(func(e match.Entry) {
			fmt.Fprintf(w, "  unexpected %s\n", e.Bits.String())
		})
		d.bigMu.Unlock()
	}
}

// recvState is one posted receive in the software matching engine, and
// its request's driver. A derived layout lands in a bounce buffer (buf)
// that completion unpacks into user as count elements of dt; with dt
// nil, buf is the user's.
type recvState struct {
	d         *Device
	buf       []byte
	user      []byte
	dt        *datatype.Type
	count     int
	n         int
	src, tag  int
	truncated bool
	done      bool
	arrival   vtime.Time // virtual arrival of the matched packet
	posted    vtime.Time // receiver's clock at post time (post→match span)
}

// unexpected buffers one unmatched arrival.
type unexpected struct {
	data    []byte
	src     int
	arrival vtime.Time
}

// Device is one rank's baseline device instance.
type Device struct {
	g     *Global
	rank  *proc.Rank
	ep    *fabric.Endpoint
	cfg   core.Config
	meter core.Meter

	eng match.Engine // software matching, at the MPI layer

	// am carries every one-sided operation: CH3 emulates them all
	// over active messages.
	am *core.AM

	// bigMu is the CH3-era global critical section: under
	// MPI_THREAD_MULTIPLE every ADI entry on this device serializes on
	// one per-rank lock — the whole-device mutual exclusion the paper's
	// baseline pays for thread safety, in contrast to ch4's per-VCI
	// locks. Blocking waits release it while parked so packet handlers
	// and sibling goroutines can run.
	bigMu   sync.Mutex
	locking bool
}

// Open attaches a rank.
func (g *Global) Open(r *proc.Rank) *Device {
	d := &Device{
		g: g, rank: r, ep: g.Fab.Endpoint(r.ID()), cfg: g.Cfg, meter: core.NewMeter(r, g.Cfg),
		locking: g.Cfg.ThreadMultiple,
	}
	// CH3's software matching is the single linear queue the paper
	// ascribes to legacy stacks: every search pays full queue depth.
	d.eng.Mode = match.Linear
	d.ep.Bind(r)
	d.ep.RegisterAM(amEager, d.handleEager)
	d.am = core.NewAM(r, g.Fab, pktHeader, core.AMCosts{
		Move: func(int) int64 { return cost(instr.RMATargetSide) },
		Fold: func(n int) int64 { return cost(instr.RMATargetSide) + int64(n) },
	}, d.waitUntil)
	if g.Cfg.EagerPeers {
		// All-pairs connection setup at open — the eager baseline of
		// the lazy peer-state ablation (this device has no shmmod, so
		// fabric connections are the whole of its per-peer state).
		d.ep.EagerConnect()
	}
	g.mu.Lock()
	g.devs = append(g.devs, d)
	g.mu.Unlock()
	return d
}

// Stats snapshots the rank's metrics registry. Matching happens in
// software at the MPI layer on this device, so the device's own
// engine — not the (unused) endpoint matching unit — is folded in.
// Owner-goroutine only, like every other Device method, so the engine
// fold is safe unlocked.
func (d *Device) Stats() metrics.Snapshot {
	d.lock()
	defer d.unlock()
	s := d.ep.SnapshotStats()
	s.Match.BinOps, s.Match.Searches, s.Match.BinHits, s.Match.WildHits =
		d.eng.BinOps, d.eng.Searches, d.eng.BinHits, d.eng.WildHits
	return s
}

// lock enters the global critical section when the build requested
// MPI_THREAD_MULTIPLE; single-threaded builds skip the mutex entirely,
// so the serial cost model is untouched.
func (d *Device) lock() {
	if d.locking {
		d.bigMu.Lock()
	}
}

func (d *Device) unlock() {
	if d.locking {
		d.bigMu.Unlock()
	}
}

// Progress runs the packet handlers. Public entry: takes the critical
// section so handlers never race with ADI calls from sibling
// goroutines.
func (d *Device) Progress() {
	d.lock()
	d.ep.Progress()
	d.unlock()
}

// progressLocked pumps the handlers from code already inside the
// critical section.
func (d *Device) progressLocked() { d.ep.Progress() }

// cost is the device's column of the cost table: CH3's.
func cost(c instr.Cost) int64 { return instr.Table[c].CH3 }

// charge records n instructions in cat under the build's removal rules.
func (d *Device) charge(cat instr.Category, n int64) { d.meter.Charge(cat, n) }

// EventSeq exposes the endpoint's aggregate transport-event counter.
func (d *Device) EventSeq() uint64 { return d.ep.EventSeqVCI(fabric.AnyVCI) }

// WaitEvent parks the rank until the event counter moves past seq.
func (d *Device) WaitEvent(seq uint64) { d.ep.WaitEventVCI(fabric.AnyVCI, seq) }

// Wake moves the event counter, ending a WaitEvent.
func (d *Device) Wake() { d.ep.Notify() }

// waitUntil parks until pred holds, pumping packet handlers. Callers
// hold the critical section; the lock is dropped while parked — the
// CH3 "yield the global lock on blocking waits" rule — and retaken
// before pred is re-evaluated.
func (d *Device) waitUntil(pred func() bool) {
	for {
		seq := d.EventSeq()
		d.progressLocked()
		if pred() {
			return
		}
		d.unlock()
		d.WaitEvent(seq)
		d.lock()
	}
}

// envelope is the 16-byte eager packet header: match bits + length.
type envelope struct {
	bits match.Bits
	size uint32
}

func (e envelope) marshal() []byte {
	b := make([]byte, 12)
	binary.LittleEndian.PutUint64(b, uint64(e.bits))
	binary.LittleEndian.PutUint32(b[8:], e.size)
	return b
}

func unmarshalEnvelope(b []byte) envelope {
	return envelope{
		bits: match.Bits(binary.LittleEndian.Uint64(b)),
		size: binary.LittleEndian.Uint32(b[8:]),
	}
}

func errString(op string, err error) error { return fmt.Errorf("original %s: %w", op, err) }

// errf builds a formatted device error.
func errf(format string, args ...any) error {
	return fmt.Errorf("original: "+format, args...)
}

// translateRank mirrors the ch4 translation but always pays the
// baseline's full table walk.
func (d *Device) translateRank(c *comm.Comm, rank int) (int, error) {
	d.charge(instr.Mandatory, cost(instr.RankTranslate))
	return c.WorldRank(rank)
}
