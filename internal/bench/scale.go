package bench

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"gompi"
)

// ScalePoint is one measurement of the 10K-rank scale sweep: a world of
// Ranks goroutine ranks running a halo exchange plus a flat allreduce
// (AllreduceFloat64: recursive doubling on power-of-two sizes, reduce +
// bcast otherwise), either with lazy (on-demand) peer state or with the
// EagerPeers all-pairs baseline of pre-on-demand MPI stacks.
type ScalePoint struct {
	Ranks int
	Eager bool // EagerPeers ablation: all-pairs connection setup at init
	// SetupMs is the slowest rank's wall-clock time from process launch
	// to the top of its application body — the MPI_Init analogue. Eager
	// connection establishment lands here.
	SetupMs float64
	// SetupCycles is the slowest rank's virtual-time cycle count at the
	// top of its body: the deterministic, host-independent setup cost
	// (eager mode pays ConnSetup per peer before the body runs).
	SetupCycles int64
	// PeersTouched is the mean number of distinct peers per rank whose
	// connection or ring state actually materialized.
	PeersTouched float64
	// BytesPerRank / MaxBytesPerRank are the modeled per-peer state
	// footprint (connection records + shm rings): mean and worst-case
	// bytes across ranks. The lazy-vs-eager gap here is the memory
	// argument for on-demand connection management.
	BytesPerRank    float64
	MaxBytesPerRank int64
	// WallMs is the whole run's wall-clock time (setup + traffic).
	WallMs float64
}

// scaleCeiling is the per-rank modeled-state ceiling asserted on lazy
// runs: a rank whose connection+ring state exceeds it panics inside the
// library. It is sized for the sweep's traffic pattern (4 halo
// neighbors + flat allreduce: ceil(log2 n) exchange partners, or a
// binomial tree's children) with generous headroom — yet far below the
// eager baseline's all-pairs footprint at every sweep size, so the
// assertion would trip immediately if lazy mode silently regressed to
// eager materialization.
const scaleCeiling = 256 << 10

// ScaleSweep runs the halo + flat allreduce workload at each world
// size, lazy and eager, and reports setup time and bytes/rank. Sizes
// are typically {1000, 4000, 10000}; ranks are goroutines, 16 per
// simulated node, on the "ofi" fabric profile whose ConnSetup charge
// makes connection establishment visible in virtual time.
func ScaleSweep(sizes []int, iters int) ([]ScalePoint, error) {
	if iters <= 0 {
		iters = 2
	}
	out := make([]ScalePoint, 0, 2*len(sizes))
	for _, n := range sizes {
		for _, eager := range []bool{false, true} {
			pt, err := scaleRun(n, eager, iters)
			if err != nil {
				return nil, fmt.Errorf("ranks=%d eager=%v: %w", n, eager, err)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// scaleRun runs one world: a 4-point halo exchange (ranks ±1 and ±16,
// the stencil-code neighbor set) followed by a flat allreduce, and
// samples setup time at the top of every rank's body.
func scaleRun(n int, eager bool, iters int) (ScalePoint, error) {
	const rpn = 16
	cfg := gompi.Config{
		Device: gompi.DeviceCH4, Fabric: gompi.FabricOFI, Build: gompi.BuildNoErrSingleIPO,
		RanksPerNode: rpn,
		// Small rings keep the eager baseline's all-pairs footprint
		// affordable enough to run; the lazy/eager gap is unaffected.
		ShmCellSize: 256, ShmRingCells: 8,
	}
	if eager {
		cfg.EagerPeers = true
	} else {
		// The ceiling is the lazy mode's enforced contract: state stays
		// O(active peers), not O(n). Eager mode cannot run under it.
		cfg.MaxPeerBytes = scaleCeiling
	}

	var setupNs, setupCycles int64
	t0 := time.Now()
	st, err := gompi.RunStats(n, cfg, func(p *gompi.Proc) error {
		atomicMax(&setupNs, int64(time.Since(t0)))
		atomicMax(&setupCycles, p.VirtualCycles())
		w := p.World()
		me := p.Rank()

		neighbors := haloNeighbors(me, n, rpn)
		sbuf := make([]byte, 64)
		rbufs := make([][]byte, len(neighbors))
		for i := range rbufs {
			rbufs[i] = make([]byte, 64)
		}
		reqs := make([]*gompi.Request, 0, 2*len(neighbors))
		vals := []float64{float64(me), 1}
		for it := 0; it < iters; it++ {
			reqs = reqs[:0]
			for i, nb := range neighbors {
				r, err := w.Irecv(rbufs[i], len(rbufs[i]), gompi.Byte, nb, it)
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
			}
			for _, nb := range neighbors {
				r, err := w.Isend(sbuf, len(sbuf), gompi.Byte, nb, it)
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
			}
			if err := gompi.Waitall(reqs); err != nil {
				return err
			}
			if _, err := w.AllreduceFloat64(vals, gompi.OpSum); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return ScalePoint{}, err
	}
	agg := st.Aggregate()
	wall := time.Since(t0)
	return ScalePoint{
		Ranks:           n,
		Eager:           eager,
		SetupMs:         float64(atomic.LoadInt64(&setupNs)) / 1e6,
		SetupCycles:     atomic.LoadInt64(&setupCycles),
		PeersTouched:    float64(agg.Peers.Touched) / float64(n),
		BytesPerRank:    float64(agg.Peers.StateBytes) / float64(n),
		MaxBytesPerRank: agg.Peers.MaxStateBytes,
		WallMs:          float64(wall) / 1e6,
	}, nil
}

// haloNeighbors returns the 4-point stencil neighbor set of rank me in
// a world of n ranks laid out rpn per node: ±1 (intra-node in the
// interior) and ±rpn (usually cross-node), clipped at the world edges.
func haloNeighbors(me, n, rpn int) []int {
	nbs := make([]int, 0, 4)
	for _, d := range []int{-rpn, -1, 1, rpn} {
		if nb := me + d; nb >= 0 && nb < n {
			nbs = append(nbs, nb)
		}
	}
	return nbs
}

func atomicMax(addr *int64, v int64) {
	for {
		cur := atomic.LoadInt64(addr)
		if v <= cur || atomic.CompareAndSwapInt64(addr, cur, v) {
			return
		}
	}
}

// WriteScaleTable renders the sweep as an aligned text table.
func WriteScaleTable(w io.Writer, pts []ScalePoint) {
	fmt.Fprintf(w, "%8s %6s %10s %12s %8s %12s %12s %10s\n",
		"ranks", "mode", "setup-ms", "setup-cyc", "peers", "B/rank", "maxB/rank", "wall-ms")
	for _, p := range pts {
		mode := "lazy"
		if p.Eager {
			mode = "eager"
		}
		fmt.Fprintf(w, "%8d %6s %10.1f %12d %8.1f %12.0f %12d %10.0f\n",
			p.Ranks, mode, p.SetupMs, p.SetupCycles, p.PeersTouched,
			p.BytesPerRank, p.MaxBytesPerRank, p.WallMs)
	}
}
