package gompi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gompi/internal/fabric"
	"gompi/internal/metrics"
)

// Tests for the 10K-rank scale work: the unified communicator-creation
// surface, the lazy peer-state defaults and ceiling, sparse rank
// tables at large world sizes, and watchdog diagnosis of a big world.

// TestCommOptionsSurfacePinned pins the unified communicator-creation
// surface at compile time: DupOpt/SplitOpt/CreateOpt with CommOptions
// are the canonical entry points, and the historical names remain as
// fixed-signature wrappers.
func TestCommOptionsSurfacePinned(t *testing.T) {
	c := (*Comm)(nil)
	var (
		_ func(CommOptions) (*Comm, error)           = c.DupOpt
		_ func(int, int, CommOptions) (*Comm, error) = c.SplitOpt
		_ func(*Group, CommOptions) (*Comm, error)   = c.CreateOpt
		_ func() (*Comm, error)                      = c.Dup
		_ func(int, int) (*Comm, error)              = c.Split
		_ func(int, int) (*Comm, error)              = c.SplitType
		_ func(*Group) (*Comm, error)                = c.Create
	)
	var o CommOptions
	o.Hints = CommHints{NoAnySource: true, NoAnyTag: true, ExactLength: true}
	o.Type = SplitTypeShared
}

// TestCommOptionsBehavior checks that the options struct reproduces
// the historical variants: a typed split partitions by node, hints
// attach at creation, and an unknown type is rejected.
func TestCommOptionsBehavior(t *testing.T) {
	run(t, 4, Config{RanksPerNode: 2}, func(p *Proc) error {
		w := p.World()
		node, err := w.SplitOpt(0, 0, CommOptions{
			Type:  SplitTypeShared,
			Hints: CommHints{NoAnySource: true},
		})
		if err != nil {
			return err
		}
		if node.Size() != 2 || node.Rank() != p.Rank()%2 {
			return fmt.Errorf("node comm %d/%d", node.Rank(), node.Size())
		}
		if !node.Hints().NoAnySource {
			return fmt.Errorf("split hint lost")
		}
		d, err := w.DupOpt(CommOptions{Hints: CommHints{NoAnyTag: true}})
		if err != nil {
			return err
		}
		if !d.Hints().NoAnyTag {
			return fmt.Errorf("dup hint lost")
		}
		evens, err := w.Group().Incl([]int{0, 2})
		if err != nil {
			return err
		}
		sub, err := w.CreateOpt(evens, CommOptions{Hints: CommHints{ExactLength: true}})
		if err != nil {
			return err
		}
		if p.Rank()%2 == 0 {
			if sub == nil || !sub.Hints().ExactLength {
				return fmt.Errorf("create hint lost")
			}
		} else if sub != nil {
			return fmt.Errorf("non-member got a communicator")
		}
		if _, err := w.SplitOpt(0, 0, CommOptions{Type: 99}); ClassOf(err) != ErrArg {
			return fmt.Errorf("unknown split type: %v", err)
		}
		return nil
	})
}

// TestScaleConfigDefaults pins the scale knobs' defaults: peer state is
// lazy unless EagerPeers is set, a zero MaxPeerBytes means no ceiling,
// and a negative ceiling is rejected at Run.
func TestScaleConfigDefaults(t *testing.T) {
	var st Stats
	run(t, 2, Config{Stats: &st}, func(p *Proc) error {
		if p.Rank() == 0 {
			return p.World().Send([]byte{1}, 1, Byte, 1, 0)
		}
		buf := make([]byte, 1)
		_, err := p.World().Recv(buf, 1, Byte, 0, 0)
		return err
	})
	// Lazy is the default: the one exercised peer materialized state,
	// and nothing else did.
	peers := st.Aggregate().Peers
	if peers.Touched == 0 || peers.StateBytes == 0 {
		t.Errorf("default run recorded no peer-state materialization: %+v", peers)
	}
	if err := Run(1, Config{MaxPeerBytes: -1}, func(p *Proc) error { return nil }); err == nil || !strings.Contains(err.Error(), "MaxPeerBytes") {
		t.Errorf("negative MaxPeerBytes accepted: %v", err)
	}
}

// scaleGeometry is the small-ring layout the ceiling and harness tests
// share: 16 ranks/node with 8-cell 256-byte rings keeps the modeled
// per-peer state small enough that the eager baseline can materialize
// everything, yet large enough that the ceiling separates the modes.
func scaleGeometry() Config {
	return Config{
		Fabric: "inf", RanksPerNode: 16,
		ShmCellSize: 256, ShmRingCells: 8,
	}
}

// TestPeerStateCeilingDifferential is the memory-ceiling assertion of
// the lazy model: a 256-rank halo exchange runs comfortably under a
// 32KB per-rank ceiling with on-demand peer state, while the EagerPeers
// baseline — all-pairs connections plus every intra-node ring — blows
// through the same ceiling at init and aborts the world.
func TestPeerStateCeilingDifferential(t *testing.T) {
	const n, ceiling = 256, 32 << 10
	body := func(p *Proc) error {
		w := p.World()
		me := p.Rank()
		var reqs []*Request
		sbuf := make([]byte, 32)
		for _, d := range []int{-1, 1} {
			nb := me + d
			if nb < 0 || nb >= n {
				continue
			}
			rr, err := w.Irecv(make([]byte, 32), 32, Byte, nb, 0)
			if err != nil {
				return err
			}
			sr, err := w.Isend(sbuf, 32, Byte, nb, 0)
			if err != nil {
				return err
			}
			reqs = append(reqs, rr, sr)
		}
		return Waitall(reqs)
	}

	lazy := scaleGeometry()
	lazy.MaxPeerBytes = ceiling
	if err := Run(n, lazy, body); err != nil {
		t.Fatalf("lazy run under %dB ceiling: %v", ceiling, err)
	}

	eager := scaleGeometry()
	eager.MaxPeerBytes = ceiling
	eager.EagerPeers = true
	err := failFast(t, n, eager, body)
	if err == nil || !strings.Contains(err.Error(), "MaxPeerBytes") {
		t.Fatalf("eager run under the same ceiling must trip it, got: %v", err)
	}
}

// TestLanesFirstTouchCountsPeerOnce: under MPI_THREAD_MULTIPLE, four
// goroutines of one rank, released together, make the rank's first
// sends to one peer, each on its own hinted duplicate of the world (its
// own critical section and VCI; duplication takes no message), so the
// four sends reach the connection check at once. Whichever lane wins
// the race pays
// the connection setup: the sender is charged exactly the transport
// cycles the same four sends cost from one goroutine, its peer state
// counts one peer of fabric.ConnStateBytes, and its endpoint holds one
// connection.
func TestLanesFirstTouchCountsPeerOnce(t *testing.T) {
	const lanes = 4
	type result struct {
		transport int64
		peers     metrics.PeerStats
		dump      string
	}
	send := func(concurrent bool) result {
		var res result
		var st Stats
		cfg := Config{Device: DeviceCH4, Fabric: "ofi", ThreadMultiple: true, VCIs: lanes, Stats: &st}
		run(t, 2, cfg, func(p *Proc) error {
			comms := make([]*Comm, lanes)
			for i := range comms {
				c, err := p.World().DupOpt(CommOptions{Hints: CommHints{NoAnySource: true, NoAnyTag: true}})
				if err != nil {
					return err
				}
				comms[i] = c
			}
			if p.Rank() == 1 {
				for tag, c := range comms {
					if _, err := c.Recv(make([]byte, 1), 1, Byte, 0, tag); err != nil {
						return err
					}
				}
				return nil
			}
			gate := make(chan struct{})
			errs := make(chan error, lanes)
			lane := func(tag int) {
				<-gate
				r, err := comms[tag].Isend([]byte{byte(tag)}, 1, Byte, 1, tag)
				if err == nil {
					_, err = r.Wait()
				}
				errs <- err
			}
			for tag := 0; tag < lanes; tag++ {
				if concurrent {
					go lane(tag)
				}
			}
			close(gate)
			for tag := 0; tag < lanes; tag++ {
				if !concurrent {
					lane(tag)
				}
				if err := <-errs; err != nil {
					return err
				}
			}
			res.transport = p.Counters().Transport
			var dump bytes.Buffer
			p.DumpState(&dump)
			res.dump = dump.String()
			return nil
		})
		res.peers = st.Ranks[0].Metrics.Peers
		return res
	}
	seq, par := send(false), send(true)
	if par.transport != seq.transport {
		t.Errorf("%d lanes racing to a new peer charged %d transport cycles, one goroutine %d: the connection setup was not paid exactly once",
			lanes, par.transport, seq.transport)
	}
	for _, r := range []result{seq, par} {
		if r.peers.Touched != 1 || r.peers.StateBytes != fabric.ConnStateBytes {
			t.Errorf("peer state %+v, want 1 peer of %d bytes", r.peers, fabric.ConnStateBytes)
		}
		if !strings.Contains(r.dump, "rank 0: 0 posted, 0 unexpected, 0 queued AM, 1 conns") {
			t.Errorf("rank 0 must hold exactly one connection:\n%s", r.dump)
		}
	}
}

// TestWatchdogDiagnosesLargeWorld deadlocks a 1K-rank world — every
// rank receives from its successor in a ring and nobody sends — and
// checks the watchdog still trips and the wait-graph names concrete
// edges with lazily materialized endpoints.
func TestWatchdogDiagnosesLargeWorld(t *testing.T) {
	const n = 1024
	var diag bytes.Buffer
	var st Stats
	cfg := Config{
		Fabric:           "ofi",
		Watchdog:         true,
		WatchdogInterval: 10 * time.Millisecond,
		DiagWriter:       &diag,
		Stats:            &st,
	}
	err := Run(n, cfg, func(p *Proc) error {
		buf := make([]byte, 8)
		_, err := p.World().Recv(buf, 8, Byte, (p.Rank()+1)%n, 0)
		return err
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if st.WatchdogTrips == 0 {
		t.Error("watchdog never tripped")
	}
	out := diag.String()
	if !strings.Contains(out, "stall watchdog tripped") {
		t.Errorf("diagnosis missing trip header:\n%.2000s", out)
	}
	// The ring produces concrete who-waits-on-whom edges; spot-check
	// one from each end of the world.
	for _, want := range []string{"rank 0 waits on rank 1", fmt.Sprintf("rank %d waits on rank 0", n-1)} {
		if !strings.Contains(out, want) {
			t.Errorf("diagnosis missing edge %q", want)
		}
	}
}

// TestSparseWorld10K builds a 10,000-rank world, translates ranks, and
// splits it — with zero traffic. With sparse rank tables and lazy peer
// state this is cheap: no O(n) per-rank table copies, no per-peer
// endpoint or ring state at all. The peer-state aggregate pins that:
// constructing and carving a 10K world materializes nothing.
func TestSparseWorld10K(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime caps goroutines below 10K ranks")
	}
	const n = 10_000
	var st Stats
	cfg := Config{RanksPerNode: 16, Stats: &st}
	run(t, n, cfg, func(p *Proc) error {
		w := p.World()
		me := p.Rank()
		// O(1) rank translation on the identity table.
		if wr, err := w.WorldRank(me); err != nil || wr != me {
			return fmt.Errorf("world translation %d -> %d (%v)", me, wr, err)
		}
		if _, err := w.WorldRank(n); err == nil {
			return fmt.Errorf("out-of-range translation accepted")
		}
		// A parity split: 5000 ranks each, stride-2 arithmetic groups.
		half, err := w.Split(me%2, me)
		if err != nil {
			return err
		}
		if half.Size() != n/2 || half.Rank() != me/2 {
			return fmt.Errorf("split %d/%d", half.Rank(), half.Size())
		}
		// Translation through the strided table stays exact.
		if wr, err := half.WorldRank(half.Rank()); err != nil || wr != me {
			return fmt.Errorf("split translation %d -> %d (%v)", half.Rank(), wr, err)
		}
		return nil
	})
	if peers := st.Aggregate().Peers; peers.Touched != 0 || peers.StateBytes != 0 {
		t.Errorf("world construction + split materialized peer state: %+v", peers)
	}
}

// TestScaleHalo4096 runs the scale workload's pattern — a 4-point halo
// (±1, ±16) and a flat recursive-doubling allreduce — on 4096 lazily
// connected ranks under the per-rank state ceiling, and checks every
// halo stamp, both sums, and the peer-state aggregate against the
// count the pattern itself gives: a rank materializes one ring per
// on-node destination and one connection per off-node one, nothing
// else.
func TestScaleHalo4096(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime caps goroutines below the 4096 ranks")
	}
	const n, rpn, iters = 4096, 16, 2
	halo := func(me int) []int {
		var nbs []int
		for _, nb := range []int{me - rpn, me - 1, me + 1, me + rpn} {
			if nb >= 0 && nb < n {
				nbs = append(nbs, nb)
			}
		}
		return nbs
	}
	cfg := scaleGeometry()
	cfg.Fabric = "ofi"
	cfg.MaxPeerBytes = 32 << 10
	var st Stats
	cfg.Stats = &st
	run(t, n, cfg, func(p *Proc) error {
		w := p.World()
		me := p.Rank()
		nbs := halo(me)
		sbuf := make([]byte, 16)
		rbufs := make([][]byte, len(nbs))
		for it := 0; it < iters; it++ {
			var reqs []*Request
			for i, nb := range nbs {
				rbufs[i] = make([]byte, 16)
				r, err := w.Irecv(rbufs[i], 16, Byte, nb, it)
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
			}
			binary.LittleEndian.PutUint64(sbuf, uint64(me))
			binary.LittleEndian.PutUint64(sbuf[8:], uint64(it))
			for _, nb := range nbs {
				r, err := w.Isend(sbuf, 16, Byte, nb, it)
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
			}
			if err := Waitall(reqs); err != nil {
				return err
			}
			for i, nb := range nbs {
				if from, at := binary.LittleEndian.Uint64(rbufs[i]), binary.LittleEndian.Uint64(rbufs[i][8:]); from != uint64(nb) || at != uint64(it) {
					return fmt.Errorf("rank %d iteration %d: halo from %d stamped (%d, %d)", me, it, nb, from, at)
				}
			}
			sums, err := w.AllreduceFloat64([]float64{float64(me), 1}, OpSum)
			if err != nil {
				return err
			}
			if sums[0] != n*(n-1)/2 || sums[1] != n {
				return fmt.Errorf("rank %d iteration %d: allreduce gave %v", me, it, sums)
			}
		}
		return nil
	})

	// What the pattern must have materialized: each rank's destinations
	// are its halo neighbours and its log2(n) doubling partners.
	ringBytes := int64(cfg.ShmRingCells*(cfg.ShmCellSize+64) + 192)
	const connBytes = 256
	var touched, stateBytes, maxBytes int64
	for me := 0; me < n; me++ {
		dests := map[int]bool{}
		for _, nb := range halo(me) {
			dests[nb] = true
		}
		for bit := 1; bit < n; bit <<= 1 {
			dests[me^bit] = true
		}
		var mine int64
		for d := range dests {
			if d/rpn == me/rpn {
				mine += ringBytes
			} else {
				mine += connBytes
			}
		}
		touched += int64(len(dests))
		stateBytes += mine
		maxBytes = max(maxBytes, mine)
	}
	// me^1 and me^16 are halo neighbours already; the other ±1 is missing
	// at the two ends of the world, the other ±16 in its first and last node.
	if closed := int64(14*n - 2 - 2*rpn); touched != closed {
		t.Fatalf("the pattern touches %d peers, the closed form says %d", touched, closed)
	}
	got := st.Aggregate().Peers
	if got.Touched != touched || got.StateBytes != stateBytes || got.MaxStateBytes != maxBytes {
		t.Errorf("peer state %+v, want %d peers, %d B, max %d B", got, touched, stateBytes, maxBytes)
	}
}
