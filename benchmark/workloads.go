package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"gompi"
	"gompi/internal/md"
)

// inputs is everything a trial's bodies read that the seed decides.
// The program under test sees only these.
type inputs struct {
	salt    uint64 // folded into every sequence stamp
	tag     int    // base tag of the point-to-point traffic
	payload []byte // largeBytes of seeded bytes
	mdSeed  int64  // velocity seed of app_md
}

const largeBytes = 256 << 10

func makeInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		salt:    rng.Uint64(),
		tag:     1 + rng.Intn(1000),
		payload: make([]byte, largeBytes),
		mdSeed:  1 + rng.Int63n(1<<31),
	}
	rng.Read(in.payload)
	return in
}

// stamp is the 8-byte value message seq from sender carries.
func (in *inputs) stamp(seq, sender int) uint64 {
	return (uint64(seq)<<8 | uint64(sender&0xff)) ^ in.salt
}

var le = binary.LittleEndian

// div scales a size down for -quick, never below lo.
func div(n int, quick bool, lo int) int {
	if !quick {
		return n
	}
	if n /= 50; n < lo {
		n = lo
	}
	return n
}

const window = 64 // operations in flight per step of the small-message loops

var workloads = []*workload{
	{
		name: "pt2pt_net_small",
		why:  "8 B bidirectional Isend/Irecv windows between 2 nodes: public API, ch4, fabric eager and matching do all the work, shm none",
		plan: func(q bool) plan {
			return plan{ranks: 2, cfg: gompi.Config{Device: "ch4", Fabric: "ofi", RanksPerNode: 1},
				warm: 20, steps: div(2048, q, 8), opsPerStep: window, sides: 2, stretch: 128}
		},
		prepare: prepPt2ptSmall,
		confirm: func(m map[string]float64) error {
			if s := m["path.net_share"]; s < 0.95 {
				return fmt.Errorf("pt2pt_net_small: netmod carried %.3f of the messages, want >= 0.95", s)
			}
			return nil
		},
	},
	{
		name: "pt2pt_shm_small",
		why:  "the same loop with both ranks on one node: shm ring cells and Domain.Progress carry everything, the netmod injects nothing",
		plan: func(q bool) plan {
			return plan{ranks: 2, cfg: gompi.Config{Device: "ch4", Fabric: "ofi", RanksPerNode: 2},
				warm: 20, steps: div(2048, q, 8), opsPerStep: window, sides: 2, stretch: 128}
		},
		prepare: prepPt2ptSmall,
		confirm: func(m map[string]float64) error {
			if s := m["path.shm_share"]; s < 0.95 {
				return fmt.Errorf("pt2pt_shm_small: shm carried %.3f of the messages, want >= 0.95", s)
			}
			return nil
		},
	},
	{
		name: "pt2pt_large",
		why:  "256 KiB exchanges, on-node by zero-copy handoff then off-node by rendezvous: copy-bound, so per-message bookkeeping savings should not show",
		plan: func(q bool) plan {
			return plan{ranks: 4, cfg: gompi.Config{Device: "ch4", Fabric: "ofi", RanksPerNode: 2, ShmEagerMax: 16384},
				warm: 50, steps: div(1000, q, 4), opsPerStep: 1, sides: 1, stretch: 125, rawClock: true}
		},
		prepare: prepPt2ptLarge,
		confirm: func(m map[string]float64) error {
			if m["path.handoff_share"] <= 0 || m["path.rndv_share"] <= 0 {
				return fmt.Errorf("pt2pt_large: handoff share %.3f and rendezvous share %.3f must both be nonzero",
					m["path.handoff_share"], m["path.rndv_share"])
			}
			return nil
		},
	},
	{
		name: "rma_put",
		why:  "8 B Put windows closed by FlushAll in a LockAll epoch: the fabric one-sided path, bypassing the match engine and the request pool",
		plan: func(q bool) plan {
			return plan{ranks: 2, cfg: gompi.Config{Device: "ch4", Fabric: "ofi", RanksPerNode: 1},
				warm: 20, steps: div(8192, q, 8), opsPerStep: window, sides: 1, stretch: 1024}
		},
		prepare: prepRmaPut,
		confirm: func(m map[string]float64) error {
			if m["rma.puts_per_op"] != 1 || m["match.searches_per_msg"] >= 0.01 {
				return fmt.Errorf("rma_put: %.4f exported puts per put attempted (want 1), %.4f match searches per put (want < 0.01)",
					m["rma.puts_per_op"], m["match.searches_per_msg"])
			}
			return nil
		},
	},
	{
		name: "coll_mix",
		why:  "Allreduce, 16 KiB Bcast, Iallreduce and a persistent allreduce replay on 8 ranks: the blocking and the schedule-based collective engines side by side",
		plan: func(q bool) plan {
			return plan{ranks: 8, cfg: gompi.Config{Device: "ch4", Fabric: "ofi", RanksPerNode: 2},
				warm: 50, steps: div(2000, q, 8), opsPerStep: 1, sides: 1, stretch: 250}
		},
		prepare: prepCollMix,
	},
	{
		name:    "scale_halo",
		why:     "4-neighbour halo plus allreduce on 1024 lazily connected ranks: parked goroutines, first-touch peer state and shm ring rescans the 2-rank loops never reach",
		plan:    func(q bool) plan { return scalePlan(scaleRanks, q) },
		prepare: prepScaleHalo,
	},
	{
		name: "app_md",
		why:  "Lennard-Jones melt at the strong-scaling limit (23 atoms/core, 8 ranks): what an application sees, with MPI-layer savings diluted by force compute",
		plan: func(q bool) plan {
			return plan{ranks: 8, cfg: gompi.Config{Device: "ch4", Fabric: "bgq", RanksPerNode: 1},
				warm: 1, steps: 6, opsPerStep: div(50, q, 2), sides: 1, stretch: 1}
		},
		prepare:     prepAppMd,
		viaProfiler: true,
	},
}

// scaleRanks is scale_halo's world. A launch's host time depends on
// where its 35 MB of goroutine stacks and peer state happen to land
// (7-9 % between launches of one process), so a run needs a dozen
// launches: 1024 ranks give that in 15 s where 2048 give four. The
// traced pass measures scaleLo and scaleHi once each for the exponent.
const (
	scaleRanks = 1024
	scaleLo    = 512
	scaleHi    = 2048
)

// scalePlan is scale_halo at a given world size; -quick runs it at an
// eighth of the ranks.
func scalePlan(ranks int, quick bool) plan {
	if quick {
		ranks /= 8
	}
	return plan{ranks: ranks, cfg: gompi.Config{
		Device: "ch4", Fabric: "ofi", RanksPerNode: 16,
		// Small rings keep big worlds cheap to build; the ceiling is
		// the lazy model's contract (state is O(active peers)).
		ShmCellSize: 256, ShmRingCells: 8,
		CollAlgorithm: "two-level", MaxPeerBytes: 256 << 10,
	}, warm: 1, steps: 8, opsPerStep: 1, sides: 1, stretch: 8, rawClock: true}
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func noFinish() (int, int, error) { return 0, 0, nil }
func noClose() error              { return nil }

// prepPt2ptSmall: each step posts a window of receives, sends a window
// of sequence-stamped 8 B messages to the peer, completes all of them
// and checks every stamp received.
func prepPt2ptSmall(p *gompi.Proc, _ plan, in *inputs, tr *rankTracer) (*rankBody, error) {
	w := p.World()
	me := p.Rank()
	peer := 1 - me
	sb := make([]byte, window*8)
	rb := make([]byte, window*8)
	reqs := make([]*gompi.Request, 0, 2*window)
	step := func(_ phase, it int) (int, error) {
		reqs = reqs[:0]
		for i := 0; i < window; i++ {
			s := tr.begin(spIrecv)
			r, err := w.Irecv(rb[i*8:i*8+8], 8, gompi.Byte, peer, in.tag)
			tr.end(s)
			if err != nil {
				return 0, err
			}
			reqs = append(reqs, r)
		}
		for i := 0; i < window; i++ {
			le.PutUint64(sb[i*8:], in.stamp(it*window+i, me))
			s := tr.begin(spIsend)
			r, err := w.Isend(sb[i*8:i*8+8], 8, gompi.Byte, peer, in.tag)
			tr.end(s)
			if err != nil {
				return 0, err
			}
			reqs = append(reqs, r)
		}
		s := tr.begin(spWaitall)
		err := gompi.Waitall(reqs)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		bad := 0
		for i := 0; i < window; i++ {
			if le.Uint64(rb[i*8:]) != in.stamp(it*window+i, peer) {
				bad++
			}
		}
		return bad, nil
	}
	return &rankBody{step: step, finish: noFinish, close: noClose}, nil
}

// prepPt2ptLarge: ranks 2k and 2k+1 share a node. Each step exchanges
// largeBytes with the on-node partner (above ShmEagerMax: handoff) and
// then with the off-node partner (above the eager limit: rendezvous).
// Head and tail stamps are checked every step, the whole payload once.
func prepPt2ptLarge(p *gompi.Proc, _ plan, in *inputs, tr *rankTracer) (*rankBody, error) {
	w := p.World()
	me := p.Rank()
	sb := append([]byte(nil), in.payload...)
	rb := make([]byte, largeBytes)
	reqs := make([]*gompi.Request, 0, 2)
	last := 0
	exchange := func(peer, it int) (int, error) {
		le.PutUint64(sb, in.stamp(it, me))
		le.PutUint64(sb[largeBytes-8:], in.stamp(it, me))
		reqs = reqs[:0]
		s := tr.begin(spIrecv)
		r, err := w.Irecv(rb, largeBytes, gompi.Byte, peer, in.tag)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		reqs = append(reqs, r)
		s = tr.begin(spIsend)
		r, err = w.Isend(sb, largeBytes, gompi.Byte, peer, in.tag)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		reqs = append(reqs, r)
		s = tr.begin(spWaitall)
		err = gompi.Waitall(reqs)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		want := in.stamp(it, peer)
		if le.Uint64(rb) != want || le.Uint64(rb[largeBytes-8:]) != want {
			return 1, nil
		}
		return 0, nil
	}
	step := func(_ phase, it int) (int, error) {
		last = it
		bad, err := exchange(me^1, it)
		if err != nil {
			return bad, err
		}
		b2, err := exchange(me^2, it)
		return bad + b2, err
	}
	finish := func() (int, int, error) {
		// rb holds the off-node partner's last payload.
		want := append([]byte(nil), in.payload...)
		le.PutUint64(want, in.stamp(last, me^2))
		le.PutUint64(want[largeBytes-8:], in.stamp(last, me^2))
		if !bytes.Equal(rb, want) {
			return 1, 1, nil
		}
		return 1, 0, nil
	}
	return &rankBody{step: step, finish: finish, close: noClose}, nil
}

// prepRmaPut: inside one LockAll epoch rank 0 puts a window of stamped
// 8 B values into rank 1's window memory each step and flushes; rank 1
// issues nothing and waits at the end. One-sided traffic does not
// couple the ranks' host time, so a second origin would only interleave
// with the first by the scheduler's quantum. After the last flush the
// target's memory must hold the last step.
func prepRmaPut(p *gompi.Proc, _ plan, in *inputs, tr *rankTracer) (*rankBody, error) {
	w := p.World()
	me := p.Rank()
	win, mem, err := w.WinAllocate(window*8, 1)
	if err != nil {
		return nil, err
	}
	if err := win.LockAll(); err != nil {
		return nil, err
	}
	locked := true
	src := make([]byte, window*8)
	last := 0
	step := func(_ phase, it int) (int, error) {
		last = it
		if me != 0 {
			return 0, nil
		}
		for i := 0; i < window; i++ {
			le.PutUint64(src[i*8:], in.stamp(it*window+i, me))
			s := tr.begin(spPut)
			err := win.Put(src[i*8:i*8+8], 8, gompi.Byte, 1, i*8)
			tr.end(s)
			if err != nil {
				return 0, err
			}
		}
		s := tr.begin(spFlush)
		err := win.FlushAll()
		tr.end(s)
		return 0, err
	}
	unlock := func() error {
		if !locked {
			return nil
		}
		locked = false
		return win.UnlockAll()
	}
	finish := func() (int, int, error) {
		if err := unlock(); err != nil {
			return 0, 0, err
		}
		if err := w.Barrier(); err != nil {
			return 0, 0, err
		}
		if me != 1 {
			return 0, 0, nil
		}
		bad := 0
		for i := 0; i < window; i++ {
			if le.Uint64(mem[i*8:]) != in.stamp(last*window+i, 0) {
				bad++
			}
		}
		return window, bad, nil
	}
	closeWin := func() error {
		if err := unlock(); err != nil {
			return err
		}
		return win.Free()
	}
	return &rankBody{step: step, finish: finish, close: closeWin}, nil
}

const (
	collDoubles = 8
	bcastBytes  = 16 << 10
)

// prepCollMix: one step is a blocking Allreduce of 8 doubles, a 16 KiB
// Bcast from rank 0, an Iallreduce completed by Wait, and one replay of
// a persistent allreduce bound at prepare time. Every sum is checked
// against its closed form, the broadcast by head and tail stamps.
func prepCollMix(p *gompi.Proc, _ plan, in *inputs, tr *rankTracer) (*rankBody, error) {
	w := p.World()
	me := p.Rank()
	n := w.Size()
	const nb = collDoubles * 8
	send, recv := make([]byte, nb), make([]byte, nb)
	isend, irecv := make([]byte, nb), make([]byte, nb)
	psend, precv := make([]byte, nb), make([]byte, nb)
	bbuf := make([]byte, bcastBytes)
	vals := make([]float64, collDoubles)

	s := tr.begin(spPcollInit)
	pc, err := w.AllreduceInit(psend, precv, collDoubles, gompi.Double, gompi.OpSum)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	// Rank r contributes r+1+j+k to element j, so the sum is
	// n(n+1)/2 + n(j+k); k tells the three allreduces of a step apart.
	fill := func(buf []byte, k int) {
		for j := range vals {
			vals[j] = float64(me + 1 + j + k)
		}
		gompi.Float64Bytes(vals, buf)
	}
	check := func(buf []byte, k int) int {
		bad := 0
		for j, v := range gompi.BytesFloat64(buf, vals) {
			if v != float64(n*(n+1)/2+n*(j+k)) {
				bad++
			}
		}
		return bad
	}
	step := func(_ phase, it int) (int, error) {
		bad := 0
		fill(send, 3*it)
		s := tr.begin(spAllreduce)
		err := w.Allreduce(send, recv, collDoubles, gompi.Double, gompi.OpSum)
		tr.end(s)
		if err != nil {
			return bad, err
		}
		bad += check(recv, 3*it)

		if me == 0 {
			le.PutUint64(bbuf, in.stamp(it, 0))
			le.PutUint64(bbuf[bcastBytes-8:], in.stamp(it, 0))
		}
		s = tr.begin(spBcast)
		err = w.Bcast(bbuf, bcastBytes, gompi.Byte, 0)
		tr.end(s)
		if err != nil {
			return bad, err
		}
		if le.Uint64(bbuf) != in.stamp(it, 0) || le.Uint64(bbuf[bcastBytes-8:]) != in.stamp(it, 0) {
			bad++
		}

		fill(isend, 3*it+1)
		s = tr.begin(spIallreduce)
		req, err := w.Iallreduce(isend, irecv, collDoubles, gompi.Double, gompi.OpSum)
		if err == nil {
			_, err = req.Wait()
		}
		tr.end(s)
		if err != nil {
			return bad, err
		}
		bad += check(irecv, 3*it+1)

		fill(psend, 3*it+2)
		s = tr.begin(spPcollReplay)
		err = pc.Start()
		if err == nil {
			err = pc.Wait()
		}
		tr.end(s)
		if err != nil {
			return bad, err
		}
		bad += check(precv, 3*it+2)
		return bad, nil
	}
	return &rankBody{step: step, finish: noFinish, close: noClose}, nil
}

// prepScaleHalo: the stencil-code neighbour set (±1 on the node, ±16
// across nodes, clipped at the world's edges) exchanges 64 B stamped
// halos, then everyone joins a two-element AllreduceFloat64.
func prepScaleHalo(p *gompi.Proc, pl plan, in *inputs, tr *rankTracer) (*rankBody, error) {
	w := p.World()
	me := p.Rank()
	n := p.Size()
	rpn := pl.cfg.RanksPerNode
	var nbs []int
	for _, d := range []int{-rpn, -1, 1, rpn} {
		if nb := me + d; nb >= 0 && nb < n {
			nbs = append(nbs, nb)
		}
	}
	const halo = 64
	sb := make([]byte, halo)
	rbs := make([][]byte, len(nbs))
	for i := range rbs {
		rbs[i] = make([]byte, halo)
	}
	reqs := make([]*gompi.Request, 0, 2*len(nbs))
	vals := []float64{0, 1}
	step := func(_ phase, it int) (int, error) {
		reqs = reqs[:0]
		for i, nb := range nbs {
			s := tr.begin(spIrecv)
			r, err := w.Irecv(rbs[i], halo, gompi.Byte, nb, in.tag)
			tr.end(s)
			if err != nil {
				return 0, err
			}
			reqs = append(reqs, r)
		}
		le.PutUint64(sb, in.stamp(it, 0)^uint64(me)<<32)
		for _, nb := range nbs {
			s := tr.begin(spIsend)
			r, err := w.Isend(sb, halo, gompi.Byte, nb, in.tag)
			tr.end(s)
			if err != nil {
				return 0, err
			}
			reqs = append(reqs, r)
		}
		s := tr.begin(spWaitall)
		err := gompi.Waitall(reqs)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		bad := 0
		for i, nb := range nbs {
			if le.Uint64(rbs[i]) != in.stamp(it, 0)^uint64(nb)<<32 {
				bad++
			}
		}
		vals[0], vals[1] = float64(me), 1
		s = tr.begin(spAllreduce)
		sum, err := w.AllreduceFloat64(vals, gompi.OpSum)
		tr.end(s)
		if err != nil {
			return bad, err
		}
		if sum[0] != float64(n*(n-1)/2) || sum[1] != float64(n) {
			bad++
		}
		return bad, nil
	}
	return &rankBody{step: step, finish: noFinish, close: noClose}, nil
}

// Tolerances of internal/md's own conservation test, widened for the
// drift a few hundred steps accumulate.
const (
	mdDriftTol    = 5e-3
	mdMomentumTol = 1e-9 // per atom
)

// prepAppMd: one step is a whole md.Run. The cold step runs a single
// timestep, the warm step ten, and each timed step opsPerStep of them;
// energy drift and total momentum of every timed run are checked.
func prepAppMd(p *gompi.Proc, pl plan, in *inputs, _ *rankTracer) (*rankBody, error) {
	var runs []md.Result
	step := func(ph phase, _ int) (int, error) {
		prm := md.Params{AtomsPerCore: 23, RankGrid: [3]int{2, 2, 2}, Seed: in.mdSeed}
		switch ph {
		case phCold:
			prm.Steps = 1
		case phWarm:
			prm.Steps = 10
		default:
			prm.Steps = pl.opsPerStep
		}
		r, err := md.Run(p, prm)
		if ph == phTimed {
			runs = append(runs, r)
		}
		return 0, err
	}
	finish := func() (int, int, error) {
		if p.Rank() != 0 {
			return 0, 0, nil
		}
		bad := 0
		for _, res := range runs {
			if res.AtomsTotal == 0 || res.Seconds <= 0 {
				return 2 * len(runs), 2 * len(runs), fmt.Errorf("app_md: empty result %+v", res)
			}
			if drift := math.Abs(res.Energy-res.InitialEnergy) / math.Abs(res.InitialEnergy); drift > mdDriftTol {
				bad++
			}
			if res.Momentum > mdMomentumTol*float64(res.AtomsTotal) {
				bad++
			}
		}
		return 2 * len(runs), bad, nil
	}
	virt := func() float64 {
		var sec float64
		for _, res := range runs {
			sec += res.Seconds
		}
		return sec * 1e6 / float64(len(runs)*pl.opsPerStep)
	}
	return &rankBody{step: step, finish: finish, close: noClose, virtUs: virt}, nil
}
