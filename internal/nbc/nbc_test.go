package nbc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"gompi/internal/coll"
	"gompi/internal/datatype"
	"gompi/internal/metrics"
)

// fakeNet is an in-memory transport: one deep FIFO channel per
// (src,dst) pair, so sends never block (eager contract) and same-tag
// traffic matches in order (the engine's FIFO assumption).
type fakeNet struct {
	size, rpn, eager int
	// block makes RanksPerNodeBlock report the rpn mapping, so
	// computeTopo takes the arithmetic derivation instead of the scan.
	block bool
	q     [][]chan fakeMsg
	sent  []int64 // messages injected per source rank
}

type fakeMsg struct {
	tag  int
	data []byte
}

func newFakeNet(size, rpn, eager int) *fakeNet {
	n := &fakeNet{size: size, rpn: rpn, eager: eager, sent: make([]int64, size)}
	n.q = make([][]chan fakeMsg, size)
	for s := range n.q {
		n.q[s] = make([]chan fakeMsg, size)
		for d := range n.q[s] {
			n.q[s][d] = make(chan fakeMsg, 4096)
		}
	}
	return n
}

func (n *fakeNet) rankView(r int) *fakeRank { return &fakeRank{net: n, rank: r} }

type fakeRank struct {
	net  *fakeNet
	rank int
}

func (f *fakeRank) Rank() int             { return f.rank }
func (f *fakeRank) Size() int             { return f.net.size }
func (f *fakeRank) SegLimit(peer int) int { return f.net.eager }

// The fake has no topology cache and no handoff path; it answers
// RanksPerNodeBlock only when the net is built with block set.
func (f *fakeRank) RanksPerNodeBlock() (int, bool) {
	if f.net.block && f.net.rpn > 0 {
		return f.net.rpn, true
	}
	return 0, false
}
func (f *fakeRank) LoadTopo(prefer int) (any, bool) { return nil, false }
func (f *fakeRank) StoreTopo(prefer int, v any)     {}
func (f *fakeRank) HandoffEager() int               { return 0 }
func (f *fakeRank) SendNoCopy(data []byte, dest, tag int) (Pending, bool, error) {
	return nil, false, nil
}
func (f *fakeRank) RecvReduce(acc []byte, op coll.Op, elem *datatype.Type, src, tag int) (Pending, error) {
	return nil, fmt.Errorf("fake transport has no receive-reduce")
}

func (f *fakeRank) Node(rank int) int {
	if f.net.rpn <= 0 {
		return 0
	}
	return rank / f.net.rpn
}

func (f *fakeRank) Send(data []byte, dest, tag int) error {
	if dest < 0 || dest >= f.net.size {
		return fmt.Errorf("send to bad rank %d", dest)
	}
	cp := append([]byte(nil), data...)
	select {
	case f.net.q[f.rank][dest] <- fakeMsg{tag: tag, data: cp}:
		f.net.sent[f.rank]++
		return nil
	default:
		return fmt.Errorf("fake transport queue full (%d->%d)", f.rank, dest)
	}
}

type fakePending struct {
	ch  chan fakeMsg
	buf []byte
	tag int
}

// deliver lands m like a device would: a longer message is an error
// (truncation), a shorter one is delivered short and left for the
// engine's exact-size check to catch.
func (p *fakePending) deliver(m fakeMsg) (int, error) {
	if m.tag != p.tag {
		return 0, fmt.Errorf("tag mismatch: got %d want %d", m.tag, p.tag)
	}
	if len(m.data) > len(p.buf) {
		return 0, fmt.Errorf("truncated: got %d want %d", len(m.data), len(p.buf))
	}
	return copy(p.buf, m.data), nil
}

func (p *fakePending) Done() (int, bool, error) {
	select {
	case m := <-p.ch:
		n, err := p.deliver(m)
		return n, true, err
	default:
		return 0, false, nil
	}
}

func (p *fakePending) Wait() (int, error) { return p.deliver(<-p.ch) }

func (f *fakeRank) Recv(buf []byte, src, tag int) (Pending, error) {
	if src < 0 || src >= f.net.size {
		return nil, fmt.Errorf("recv from bad rank %d", src)
	}
	return &fakePending{ch: f.net.q[src][f.rank], buf: buf, tag: tag}, nil
}

// runRanks executes fn once per rank concurrently and fails the test
// on the first error.
func runRanks(t *testing.T, net *fakeNet, fn func(tr Transport, rank int) error) {
	t.Helper()
	errs := make([]error, net.size)
	var wg sync.WaitGroup
	for r := 0; r < net.size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(net.rankView(r), r)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// do compiles one collective into a fresh schedule and waits on it.
func do(compile func(s *Schedule) error) error {
	s := new(Schedule)
	if err := compile(s); err != nil {
		return err
	}
	return s.Wait()
}

// mustForce resolves a Force name the test spells out.
func mustForce(name string) Force {
	f, err := ParseForce(name)
	if err != nil {
		panic(err)
	}
	return f
}

func longs(vs ...int64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return out
}

func pattern(rank, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rank*131 + i)
	}
	return out
}

func TestBarrier(t *testing.T) {
	for _, size := range worldSizes {
		net := newFakeNet(size, 1, 0)
		runRanks(t, net, func(tr Transport, rank int) error {
			return do(func(s *Schedule) error { Barrier(s, tr, 7); return nil })
		})
	}
}

func TestBcastAlgorithms(t *testing.T) {
	for _, algo := range []string{"binomial", "scatter-allgather", "two-level"} {
		f := mustForce(algo)
		for _, size := range []int{1, 2, 3, 4, 5, 8} {
			for _, root := range []int{0, size - 1} {
				for _, n := range []int{17, 3000} {
					name := fmt.Sprintf("%s/p%d/root%d/n%d", algo, size, root, n)
					want := pattern(root, n)
					net := newFakeNet(size, 2, 256)
					runRanks(t, net, func(tr Transport, rank int) error {
						buf := make([]byte, n)
						if rank == root {
							copy(buf, want)
						}
						if err := do(func(s *Schedule) error { return Bcast(s, tr, 9, buf, root, f) }); err != nil {
							return err
						}
						if !bytes.Equal(buf, want) {
							return fmt.Errorf("%s: wrong payload", name)
						}
						return nil
					})
				}
			}
		}
	}
}

func TestReduceAlgorithms(t *testing.T) {
	for _, algo := range []string{"binomial", "chain"} {
		f := mustForce(algo)
		for _, size := range []int{1, 2, 3, 4, 5, 8} {
			for _, root := range []int{0, size - 1} {
				var wantSum int64
				for r := 0; r < size; r++ {
					wantSum += int64(r + 1)
				}
				net := newFakeNet(size, 1, 0)
				runRanks(t, net, func(tr Transport, rank int) error {
					contrib := longs(int64(rank+1), int64(10*(rank+1)))
					recv := make([]byte, len(contrib))
					if err := do(func(s *Schedule) error {
						return Reduce(s, tr, 11, coll.OpSum, datatype.Long, contrib, recv, root, f)
					}); err != nil {
						return err
					}
					if rank == root && !bytes.Equal(recv, longs(wantSum, 10*wantSum)) {
						return fmt.Errorf("%s p%d root %d: wrong sum", algo, size, root)
					}
					return nil
				})
			}
		}
	}
}

// TestReduceNonCommutative pins the satellite regression: a
// subtraction operator (non-commutative, left-associative) must fold
// in strict rank order. With contributions 1,2,4,8,... the chain
// yields v0-v1-...-v{P-1}; the binomial tree would pair ranks and
// produce a different (wrong) value for P >= 4.
func TestReduceNonCommutative(t *testing.T) {
	sub := coll.CreateOp(func(in, inout []byte, count int, elem *datatype.Type) error {
		// Chain order: inout holds the later-ranks partial (the
		// accumulated suffix), in is this rank's value; the fold at
		// rank r computes v_r - suffix.
		for i := 0; i < count; i++ {
			a := int64(binary.LittleEndian.Uint64(in[8*i:]))
			b := int64(binary.LittleEndian.Uint64(inout[8*i:]))
			binary.LittleEndian.PutUint64(inout[8*i:], uint64(a-b))
		}
		return nil
	}, false)
	if coll.Commutative(sub) {
		t.Fatal("subtraction registered as commutative")
	}

	const size = 4
	// v_r = 2^r: chain = 1-(2-(4-8)) = 1-(2-(-4)) = 1-6 = -5.
	const want = -5
	net := newFakeNet(size, 1, 0)
	runRanks(t, net, func(tr Transport, rank int) error {
		contrib := longs(int64(1) << uint(rank))
		recv := make([]byte, 8)
		// Force the binomial tree: the pick must still choose the
		// chain because the op is non-commutative.
		s := new(Schedule)
		if err := Reduce(s, tr, 13, sub, datatype.Long, contrib, recv, 0, ForceBinomial); err != nil {
			return err
		}
		if s.Algo != metrics.CollReduceChain {
			return fmt.Errorf("non-commutative op not forced onto chain (algo %d)", s.Algo)
		}
		if err := s.Wait(); err != nil {
			return err
		}
		if rank == 0 {
			if got := int64(binary.LittleEndian.Uint64(recv)); got != want {
				return fmt.Errorf("rank-ordered subtraction: got %d want %d", got, want)
			}
		}
		return nil
	})
}

func TestAllreduceAlgorithms(t *testing.T) {
	for _, algo := range []string{"rdouble", "rsag", "two-level", "reduce-bcast"} {
		f := mustForce(algo)
		for _, size := range worldSizes {
			// 8 elements: divisible by every pow2 size here, so RSAG
			// runs for real on 2/4/8 and falls back elsewhere. 12
			// elements gives non-power-of-two per-rank counts (3 on 4
			// ranks, 6 on 2) so the RSAG retrace can't rely on
			// size-aligned block offsets.
			for _, elems := range []int{8, 12} {
				var want []int64
				for e := 0; e < elems; e++ {
					var sum int64
					for r := 0; r < size; r++ {
						sum += int64(r*10 + e)
					}
					want = append(want, sum)
				}
				wantB := longs(want...)
				net := newFakeNet(size, 2, 0)
				runRanks(t, net, func(tr Transport, rank int) error {
					var vals []int64
					for e := 0; e < elems; e++ {
						vals = append(vals, int64(rank*10+e))
					}
					contrib := longs(vals...)
					recv := make([]byte, len(contrib))
					if err := do(func(s *Schedule) error {
						Allreduce(s, tr, 15, coll.OpSum, datatype.Long, contrib, recv, f)
						return nil
					}); err != nil {
						return err
					}
					if !bytes.Equal(recv, wantB) {
						return fmt.Errorf("%s p%d n%d: wrong result", algo, size, elems)
					}
					return nil
				})
			}
		}
	}
}

func TestAllgatherAlgorithms(t *testing.T) {
	for _, algo := range []string{"ring", "bruck"} {
		f := mustForce(algo)
		for _, size := range worldSizes {
			const bs = 24
			var want []byte
			for r := 0; r < size; r++ {
				want = append(want, pattern(r, bs)...)
			}
			net := newFakeNet(size, 1, 0)
			runRanks(t, net, func(tr Transport, rank int) error {
				recv := make([]byte, bs*size)
				if err := do(func(s *Schedule) error { return Allgather(s, tr, 17, pattern(rank, bs), recv, f) }); err != nil {
					return err
				}
				if !bytes.Equal(recv, want) {
					return fmt.Errorf("%s p%d: wrong result", algo, size)
				}
				return nil
			})
		}
	}
}

func TestAlltoallAlgorithms(t *testing.T) {
	for _, algo := range []string{"pairwise", "posted"} {
		f := mustForce(algo)
		for _, size := range worldSizes {
			const bs = 16
			net := newFakeNet(size, 1, 0)
			runRanks(t, net, func(tr Transport, rank int) error {
				send := make([]byte, bs*size)
				for d := 0; d < size; d++ {
					copy(send[d*bs:], pattern(rank*100+d, bs))
				}
				recv := make([]byte, bs*size)
				if err := do(func(s *Schedule) error { return Alltoall(s, tr, 19, send, recv, f) }); err != nil {
					return err
				}
				for srcRank := 0; srcRank < size; srcRank++ {
					want := pattern(srcRank*100+rank, bs)
					if !bytes.Equal(recv[srcRank*bs:(srcRank+1)*bs], want) {
						return fmt.Errorf("%s p%d: wrong block from %d", algo, size, srcRank)
					}
				}
				return nil
			})
		}
	}
}

// TestSegmentation forces an eager limit far below the payload and
// checks both that the result reassembles correctly and that no
// injected message exceeded the limit.
func TestSegmentation(t *testing.T) {
	const size, n, eager = 4, 1000, 64
	want := pattern(2, n)
	net := newFakeNet(size, 1, eager)
	runRanks(t, net, func(tr Transport, rank int) error {
		buf := make([]byte, n)
		if rank == 2 {
			copy(buf, want)
		}
		if err := do(func(s *Schedule) error { return Bcast(s, tr, 21, buf, 2, ForceBinomial) }); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("segmented bcast corrupted payload")
		}
		return nil
	})
	// Every fragment must fit the eager limit (queues are drained, but
	// sends were counted): ceil(1000/64) = 16 fragments per hop, and a
	// binomial bcast on 4 ranks has 3 hops.
	var total int64
	for _, c := range net.sent {
		total += c
	}
	if wantMsgs := int64(3 * 16); total != wantMsgs {
		t.Fatalf("segmentation: %d messages injected, want %d", total, wantMsgs)
	}
}

// TestPollingProgress drives a schedule only through Test (the
// MPI_Test path) — no blocking waits anywhere.
func TestPollingProgress(t *testing.T) {
	const size = 4
	net := newFakeNet(size, 1, 0)
	runRanks(t, net, func(tr Transport, rank int) error {
		contrib := longs(int64(rank + 1))
		recv := make([]byte, 8)
		s := new(Schedule)
		Allreduce(s, tr, 23, coll.OpSum, datatype.Long, contrib, recv, ForceRDouble)
		for {
			done, err := s.Test()
			if err != nil {
				return err
			}
			if done {
				break
			}
			runtime.Gosched()
		}
		if got := int64(binary.LittleEndian.Uint64(recv)); got != 10 {
			return fmt.Errorf("got %d want 10", got)
		}
		return nil
	})
}

func TestTwoLevelDetection(t *testing.T) {
	if twoLevel(newFakeNet(4, 1, 0).rankView(0)) {
		t.Error("rpn=1 (all ranks on distinct nodes) reported two-level")
	}
	if twoLevel(newFakeNet(4, 4, 0).rankView(0)) {
		t.Error("single node reported two-level")
	}
	if !twoLevel(newFakeNet(4, 2, 0).rankView(0)) {
		t.Error("4 ranks on 2 nodes not reported two-level")
	}
}

// TestTopoBlockMatchesScan is the differential of the two node-structure
// derivations: a transport that reports the block mapping gets the
// arithmetic blockTopo, one that does not gets the O(size) scan, and
// both must give every rank the same leader, leader list, leader index
// and local list, for every size, ranks-per-node and preferred leader.
// twoLevel likewise answers a block mapping arithmetically and must
// agree with its scan.
func TestTopoBlockMatchesScan(t *testing.T) {
	for size := 1; size <= 40; size++ {
		for _, rpn := range []int{1, 2, 3, 4, 8, size, size + 5} {
			block := &fakeNet{size: size, rpn: rpn, block: true}
			scan := &fakeNet{size: size, rpn: rpn}
			if b, s := twoLevel(block.rankView(0)), twoLevel(scan.rankView(0)); b != s {
				t.Fatalf("size %d rpn %d: twoLevel block %v, scan %v", size, rpn, b, s)
			}
			for _, prefer := range []int{-1, 0, size - 1, size / 2} {
				for me := 0; me < size; me++ {
					b, s := computeTopo(block.rankView(me), prefer), computeTopo(scan.rankView(me), prefer)
					if b.leader != s.leader || b.myIdx != s.myIdx ||
						!slices.Equal(b.leaders, s.leaders) || !slices.Equal(b.locals, s.locals) {
						t.Fatalf("size %d rpn %d prefer %d rank %d: block %+v, scan %+v", size, rpn, prefer, me, b, s)
					}
				}
			}
		}
	}
}

// TestSelection checks what the picks choose at the cut-ins and that
// every precondition of a forced family is checked there.
func TestSelection(t *testing.T) {
	flat := newFakeNet(8, 1, 0).rankView(0)
	hier := newFakeNet(8, 2, 0).rankView(0)
	nonPow2 := newFakeNet(6, 1, 0).rankView(0)
	handoff := &shapeRank{size: 8, rpn: 2, handoff: 1024}

	for _, c := range []struct {
		what      string
		got, want int
	}{
		{"small flat bcast", bcastAlgo(flat, 64, ForceAuto), metrics.CollBcastBinomial},
		{"large flat bcast", bcastAlgo(flat, 1<<20, ForceAuto), metrics.CollBcastScatterAllgather},
		{"hierarchical bcast", bcastAlgo(hier, 64, ForceAuto), metrics.CollBcastTwoLevel},
		{"forced-flat bcast", bcastAlgo(hier, 64, ForceFlat), metrics.CollBcastBinomial},

		{"reduce", reduceAlgo(coll.OpSum, ForceAuto), metrics.CollReduceBinomial},
		{"forced-chain reduce", reduceAlgo(coll.OpSum, ForceChain), metrics.CollReduceChain},
		{"non-commutative reduce", reduceAlgo(opConcat, ForceBinomial), metrics.CollReduceChain},

		{"small pow2 allreduce", allreduceAlgo(flat, coll.OpSum, datatype.Long, 64, ForceAuto), metrics.CollAllreduceRecDoubling},
		{"large pow2 allreduce", allreduceAlgo(flat, coll.OpSum, datatype.Long, 1<<19, ForceAuto), metrics.CollAllreduceRedScatGather},
		{"large indivisible allreduce", allreduceAlgo(flat, coll.OpSum, datatype.Long, 1<<19+8, ForceAuto), metrics.CollAllreduceRecDoubling},
		{"hierarchical allreduce", allreduceAlgo(hier, coll.OpSum, datatype.Long, 64, ForceAuto), metrics.CollAllreduceTwoLevel},
		{"below handoff allreduce", allreduceAlgo(handoff, coll.OpSum, datatype.Long, 1024, ForceAuto), metrics.CollAllreduceTwoLevel},
		{"above handoff allreduce", allreduceAlgo(handoff, coll.OpSum, datatype.Long, 1032, ForceAuto), metrics.CollAllreduceTwoLevelZC},
		{"non-commutative allreduce", allreduceAlgo(flat, opConcat, datatype.Long, 64, ForceAuto), metrics.CollAllreduceReduceBcast},
		{"non-commutative forced allreduce", allreduceAlgo(hier, opConcat, datatype.Long, 64, ForceTwoLevel), metrics.CollAllreduceReduceBcast},
		{"non-pow2 allreduce", allreduceAlgo(nonPow2, coll.OpSum, datatype.Long, 64, ForceAuto), metrics.CollAllreduceReduceBcast},
		{"non-pow2 forced rdouble", allreduceAlgo(nonPow2, coll.OpSum, datatype.Long, 64, ForceRDouble), metrics.CollAllreduceReduceBcast},
		{"indivisible forced rsag", allreduceAlgo(flat, coll.OpSum, datatype.Long, 24, ForceRSAG), metrics.CollAllreduceReduceBcast},
		{"divisible forced rsag", allreduceAlgo(flat, coll.OpSum, datatype.Long, 64, ForceRSAG), metrics.CollAllreduceRedScatGather},

		{"small allgather", allgatherAlgo(256, ForceAuto), metrics.CollAllgatherBruck},
		{"large allgather", allgatherAlgo(1<<16, ForceAuto), metrics.CollAllgatherRing},
		{"small alltoall", alltoallAlgo(flat, 256, ForceAuto), metrics.CollAlltoallPosted},
		{"large alltoall", alltoallAlgo(flat, 1<<16, ForceAuto), metrics.CollAlltoallPairwise},
	} {
		if c.got != c.want {
			t.Errorf("%s: %s, want %s", c.what, metrics.CollAlgoNames[c.got], metrics.CollAlgoNames[c.want])
		}
	}

	if _, err := ParseForce("no-such-algo"); err == nil {
		t.Error("ParseForce accepted junk")
	}
	if f, err := ParseForce("two-level"); err != nil || f != ForceTwoLevel {
		t.Errorf("ParseForce(two-level) = %v, %v", f, err)
	}
}
