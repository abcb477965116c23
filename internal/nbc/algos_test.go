package nbc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"gompi/internal/coll"
	"gompi/internal/datatype"
	"gompi/internal/metrics"
)

// The algorithms the blocking entry points run (and the compilers only
// they use: linear gather/scatter, the v-forms, the scans, reduce +
// scatter), on every root and on non-power-of-two sizes.

var worldSizes = []int{1, 2, 3, 4, 5, 7, 8, 16}

func getLongs(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// opConcat is the non-commutative probe: every element is a byte string
// packed into a uint64 (low byte first), and in OP inout appends
// inout's bytes after in's. Folding single-byte contributions 'a'+rank
// spells the fold order out.
var opConcat = coll.CreateOp(func(in, inout []byte, count int, elem *datatype.Type) error {
	for i := 0; i < count; i++ {
		a := binary.LittleEndian.Uint64(in[8*i:])
		b := binary.LittleEndian.Uint64(inout[8*i:])
		shift := uint(0)
		for a>>shift != 0 {
			shift += 8
		}
		binary.LittleEndian.PutUint64(inout[8*i:], a|b<<shift)
	}
	return nil
}, false)

// spell packs the ranks lo..hi as the string opConcat would fold.
func spell(lo, hi int) []byte {
	var v uint64
	for r := hi; r >= lo; r-- {
		v = v<<8 | uint64('a'+r)
	}
	return longs(int64(v))
}

func TestBcastAllRoots(t *testing.T) {
	for _, n := range worldSizes {
		for root := 0; root < n; root++ {
			want := pattern(root, 16)
			runRanks(t, newFakeNet(n, 1, 0), func(tr Transport, rank int) error {
				buf := make([]byte, 16)
				if rank == root {
					copy(buf, want)
				}
				if err := do(func(s *Schedule) error {
					return Bcast(s, tr, 1, buf, root, ForceBinomial)
				}); err != nil {
					return err
				}
				if !bytes.Equal(buf, want) {
					return fmt.Errorf("p%d root %d: got %v", n, root, buf)
				}
				return nil
			})
		}
	}
}

func TestRootRangeRejected(t *testing.T) {
	tr := newFakeNet(2, 1, 0).rankView(0)
	s := new(Schedule)
	buf := make([]byte, 8)
	for _, root := range []int{-1, 2} {
		if Bcast(s, tr, 1, buf, root, ForceBinomial) == nil ||
			Reduce(s, tr, 1, coll.OpSum, datatype.Long, buf, buf, root, ForceBinomial) == nil ||
			Gather(s, tr, 1, buf, make([]byte, 16), root) == nil ||
			Scatter(s, tr, 1, make([]byte, 16), buf, root) == nil ||
			Gatherv(s, tr, 1, buf, buf, []int{8, 0}, []int{0, 8}, root) == nil ||
			Scatterv(s, tr, 1, buf, []int{8, 0}, []int{0, 8}, buf, root) == nil {
			t.Errorf("root %d accepted", root)
		}
	}
}

func TestReduceAllRoots(t *testing.T) {
	for _, n := range worldSizes {
		for root := 0; root < n; root++ {
			runRanks(t, newFakeNet(n, 1, 0), func(tr Transport, rank int) error {
				mine := longs(int64(rank+1), int64(2*rank))
				out := make([]byte, len(mine))
				if err := do(func(s *Schedule) error {
					return Reduce(s, tr, 2, coll.OpSum, datatype.Long, mine, out, root, ForceBinomial)
				}); err != nil {
					return err
				}
				if rank != root {
					return nil
				}
				if got := getLongs(out); got[0] != int64(n*(n+1)/2) || got[1] != int64(n*(n-1)) {
					return fmt.Errorf("p%d root %d: reduce = %v", n, root, got)
				}
				return nil
			})
		}
	}
}

func TestReduceMaxMin(t *testing.T) {
	runRanks(t, newFakeNet(5, 1, 0), func(tr Transport, rank int) error {
		mine := longs(int64(rank), int64(-rank))
		for _, c := range []struct {
			op   coll.Op
			want []int64
		}{{coll.OpMax, []int64{4, 0}}, {coll.OpMin, []int64{0, -4}}} {
			out := make([]byte, len(mine))
			if err := do(func(s *Schedule) error {
				return Reduce(s, tr, 3, c.op, datatype.Long, mine, out, 0, ForceBinomial)
			}); err != nil {
				return err
			}
			if got := getLongs(out); rank == 0 && (got[0] != c.want[0] || got[1] != c.want[1]) {
				return fmt.Errorf("%v = %v", c.op, got)
			}
		}
		return nil
	})
}

// TestUserOpInReduce folds with a commutative user operator (gcd).
func TestUserOpInReduce(t *testing.T) {
	gcd := coll.CreateOp(func(in, inout []byte, count int, elem *datatype.Type) error {
		a, b := getLongs(in), getLongs(inout)
		for i := range b {
			x, y := a[i], b[i]
			for y != 0 {
				x, y = y, x%y
			}
			copy(inout[8*i:], longs(x))
		}
		return nil
	}, true)
	runRanks(t, newFakeNet(4, 1, 0), func(tr Transport, rank int) error {
		out := make([]byte, 8)
		if err := do(func(s *Schedule) error {
			return Reduce(s, tr, 4, gcd, datatype.Long, longs(int64(12*(rank+1))), out, 0, ForceBinomial)
		}); err != nil {
			return err
		}
		if rank == 0 && getLongs(out)[0] != 12 {
			return fmt.Errorf("gcd reduce = %d", getLongs(out)[0])
		}
		return nil
	})
}

// TestRankOrderedFolds: a non-commutative operator must be folded in
// strict rank order by every reduction, on every size and root.
func TestRankOrderedFolds(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8} {
		for root := 0; root < n; root++ {
			runRanks(t, newFakeNet(n, 1, 0), func(tr Transport, rank int) error {
				mine := spell(rank, rank)
				red, all := make([]byte, 8), make([]byte, 8)
				scan, ex := make([]byte, 8), longs(-99)
				rs := make([]byte, 8)
				rsSend := bytes.Repeat(mine, n)
				s := new(Schedule)
				if err := Reduce(s, tr, 5, opConcat, datatype.Long, mine, red, root, ForceBinomial); err != nil {
					return err
				}
				if s.Algo != metrics.CollReduceChain {
					return fmt.Errorf("non-commutative reduce compiled to %s", metrics.CollAlgoNames[s.Algo])
				}
				if err := s.Wait(); err != nil {
					return err
				}
				// The same schedule, recompiled in place for each call.
				Allreduce(s, tr, 6, opConcat, datatype.Long, mine, all, ForceRDouble)
				if err := s.Wait(); err != nil {
					return err
				}
				Scan(s, tr, 7, opConcat, datatype.Long, mine, scan)
				if err := s.Wait(); err != nil {
					return err
				}
				Exscan(s, tr, 8, opConcat, datatype.Long, mine, ex)
				if err := s.Wait(); err != nil {
					return err
				}
				if err := ReduceScatterBlock(s, tr, 9, opConcat, datatype.Long, rsSend, rs); err != nil {
					return err
				}
				if err := s.Wait(); err != nil {
					return err
				}
				whole := spell(0, n-1)
				switch {
				case rank == root && !bytes.Equal(red, whole):
					return fmt.Errorf("p%d root %d: reduce = %q", n, root, red)
				case !bytes.Equal(all, whole):
					return fmt.Errorf("p%d: allreduce = %q", n, all)
				case !bytes.Equal(scan, spell(0, rank)):
					return fmt.Errorf("p%d rank %d: scan = %q", n, rank, scan)
				case rank == 0 && getLongs(ex)[0] != -99:
					return fmt.Errorf("rank 0 exscan touched recv: %q", ex)
				case rank > 0 && !bytes.Equal(ex, spell(0, rank-1)):
					return fmt.Errorf("p%d rank %d: exscan = %q", n, rank, ex)
				case !bytes.Equal(rs, whole):
					return fmt.Errorf("p%d rank %d: reduce_scatter = %q", n, rank, rs)
				}
				return nil
			})
		}
	}
}

func TestAllreduceDouble(t *testing.T) {
	runRanks(t, newFakeNet(8, 1, 0), func(tr Transport, rank int) error {
		mine, out := make([]byte, 8), make([]byte, 8)
		binary.LittleEndian.PutUint64(mine, math.Float64bits(1.0))
		if err := do(func(s *Schedule) error {
			Allreduce(s, tr, 11, coll.OpSum, datatype.Double, mine, out, ForceRDouble)
			return nil
		}); err != nil {
			return err
		}
		if got := math.Float64frombits(binary.LittleEndian.Uint64(out)); got != 8.0 {
			return fmt.Errorf("sum of eight 1.0 = %v", got)
		}
		return nil
	})
}

func TestGatherScatterAllRoots(t *testing.T) {
	for _, n := range worldSizes {
		for root := 0; root < n; root++ {
			runRanks(t, newFakeNet(n, 1, 0), func(tr Transport, rank int) error {
				mine := []byte{byte(rank), byte(rank + 100)}
				all := make([]byte, 2*n)
				if err := do(func(s *Schedule) error { return Gather(s, tr, 12, mine, all, root) }); err != nil {
					return err
				}
				if rank == root {
					for r := 0; r < n; r++ {
						if all[2*r] != byte(r) || all[2*r+1] != byte(r+100) {
							return fmt.Errorf("gather block %d = %v", r, all[2*r:2*r+2])
						}
					}
				}
				// Scatter it back; every rank must get its own block.
				back := make([]byte, 2)
				if err := do(func(s *Schedule) error { return Scatter(s, tr, 13, all, back, root) }); err != nil {
					return err
				}
				if !bytes.Equal(back, mine) {
					return fmt.Errorf("p%d root %d rank %d: scatter got %v", n, root, rank, back)
				}
				return nil
			})
		}
	}
}

func TestGatherScatterShortRootBuffer(t *testing.T) {
	tr := newFakeNet(2, 1, 0).rankView(0)
	s := new(Schedule)
	if Gather(s, tr, 1, make([]byte, 4), make([]byte, 7), 0) == nil {
		t.Error("short gather recv buffer accepted")
	}
	if Scatter(s, tr, 1, make([]byte, 7), make([]byte, 4), 0) == nil {
		t.Error("short scatter send buffer accepted")
	}
}

func TestReduceScatterBlock(t *testing.T) {
	for _, n := range []int{1, 3, 4} {
		runRanks(t, newFakeNet(n, 1, 0), func(tr Transport, rank int) error {
			var send []byte // one long per destination rank
			for r := 0; r < n; r++ {
				send = append(send, longs(int64(r+1))...)
			}
			recv := make([]byte, 8)
			if err := do(func(s *Schedule) error {
				return ReduceScatterBlock(s, tr, 16, coll.OpSum, datatype.Long, send, recv)
			}); err != nil {
				return err
			}
			if got := getLongs(recv)[0]; got != int64(n*(rank+1)) {
				return fmt.Errorf("p%d rank %d got %d", n, rank, got)
			}
			return nil
		})
	}
}

func TestScanExscan(t *testing.T) {
	for _, n := range worldSizes {
		runRanks(t, newFakeNet(n, 1, 0), func(tr Transport, rank int) error {
			mine := longs(int64(rank + 1))
			inc, minv := make([]byte, 8), make([]byte, 8)
			ex := longs(-99) // sentinel: rank 0 must keep it
			s := new(Schedule)
			Scan(s, tr, 17, coll.OpSum, datatype.Long, mine, inc)
			if err := s.Wait(); err != nil {
				return err
			}
			// Values decreasing with rank: the running minimum is one's own.
			Scan(s, tr, 18, coll.OpMin, datatype.Long, longs(int64(10-rank)), minv)
			if err := s.Wait(); err != nil {
				return err
			}
			Exscan(s, tr, 19, coll.OpSum, datatype.Long, mine, ex)
			if err := s.Wait(); err != nil {
				return err
			}
			r := rank + 1
			wantEx := int64(rank * r / 2)
			if rank == 0 {
				wantEx = -99
			}
			if getLongs(inc)[0] != int64(r*(r+1)/2) || getLongs(minv)[0] != int64(10-rank) || getLongs(ex)[0] != wantEx {
				return fmt.Errorf("p%d rank %d: scan %d min-scan %d exscan %d",
					n, rank, getLongs(inc)[0], getLongs(minv)[0], getLongs(ex)[0])
			}
			return nil
		})
	}
}

// ragged builds the counts/displs table where rank r contributes r+1
// bytes, packed back to back.
func ragged(n int) (counts, displs []int, total int) {
	counts, displs = make([]int, n), make([]int, n)
	for r := 0; r < n; r++ {
		counts[r], displs[r] = r+1, total
		total += r + 1
	}
	return
}

func TestGathervScattervAllgatherv(t *testing.T) {
	for _, n := range worldSizes {
		counts, displs, total := ragged(n)
		var want []byte
		for r := 0; r < n; r++ {
			want = append(want, bytes.Repeat([]byte{byte(r + 1)}, r+1)...)
		}
		for _, root := range []int{0, n - 1} {
			runRanks(t, newFakeNet(n, 1, 0), func(tr Transport, rank int) error {
				mine := bytes.Repeat([]byte{byte(rank + 1)}, rank+1)
				recv := make([]byte, total)
				if err := do(func(s *Schedule) error {
					return Gatherv(s, tr, 20, mine, recv, counts, displs, root)
				}); err != nil {
					return err
				}
				if rank == root && !bytes.Equal(recv, want) {
					return fmt.Errorf("p%d root %d: gatherv = %v", n, root, recv)
				}
				back := make([]byte, rank+1)
				if err := do(func(s *Schedule) error {
					return Scatterv(s, tr, 21, recv, counts, displs, back, root)
				}); err != nil {
					return err
				}
				if !bytes.Equal(back, mine) {
					return fmt.Errorf("p%d root %d rank %d: scatterv = %v", n, root, rank, back)
				}
				every := make([]byte, total)
				if err := do(func(s *Schedule) error {
					return Allgatherv(s, tr, 22, mine, every, counts, displs)
				}); err != nil {
					return err
				}
				if !bytes.Equal(every, want) {
					return fmt.Errorf("p%d rank %d: allgatherv = %v", n, rank, every)
				}
				return nil
			})
		}
	}
}

// TestVTablesValidated: a table of the wrong length, a block outside
// the buffer and a contribution that contradicts the table are compile
// errors on the rank that can see them, before any traffic.
func TestVTablesValidated(t *testing.T) {
	tr := newFakeNet(2, 1, 0).rankView(0)
	s := new(Schedule)
	one, two := []byte{1}, make([]byte, 2)
	if Gatherv(s, tr, 1, one, two, []int{1}, []int{0}, 0) == nil {
		t.Error("gatherv: short counts accepted")
	}
	if Gatherv(s, tr, 1, one, two, []int{1, 1}, []int{0}, 0) == nil {
		t.Error("gatherv: short displs accepted")
	}
	if Gatherv(s, tr, 1, one, two, []int{1, 1}, []int{0, 2}, 0) == nil {
		t.Error("gatherv: block past the buffer accepted")
	}
	if Scatterv(s, tr, 1, two, []int{1}, []int{0}, one, 0) == nil {
		t.Error("scatterv: short counts accepted")
	}
	if Scatterv(s, tr, 1, two, []int{1, -1}, []int{0, 1}, one, 0) == nil {
		t.Error("scatterv: negative count accepted")
	}
	if Allgatherv(s, tr, 1, one, two, []int{1}, []int{0}) == nil {
		t.Error("allgatherv: short table accepted")
	}
	if Allgatherv(s, tr, 1, two, two, []int{1, 1}, []int{0, 1}) == nil {
		t.Error("allgatherv: contribution contradicting counts accepted")
	}
	// Non-roots do not consult the table.
	if err := Gatherv(s, newFakeNet(2, 1, 0).rankView(1), 1, one, nil, nil, nil, 0); err != nil {
		t.Errorf("gatherv non-root: %v", err)
	}
}

// TestShortDeliveryDetected: a rank that sends fewer bytes than the
// root's table expects is reported, not silently accepted.
func TestShortDeliveryDetected(t *testing.T) {
	net := newFakeNet(2, 1, 0)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = do(func(s *Schedule) error {
				return Gatherv(s, net.rankView(r), 1, []byte{9}, make([]byte, 3), []int{1, 2}, []int{0, 1}, 0)
			})
		}(r)
	}
	wg.Wait()
	if errs[0] == nil {
		t.Error("root accepted 1 byte where its table says 2")
	}
}

// Property: allreduce(SUM) over random contributions equals the local
// sum of all contributions, on every rank, for random world sizes.
func TestAllreduceSumProperty(t *testing.T) {
	f := func(sz uint8, vals [16]int32) bool {
		n := int(sz%7) + 1
		var want int64
		for r := 0; r < n; r++ {
			want += int64(vals[r])
		}
		net := newFakeNet(n, 1, 0)
		results := make([]int64, n)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				out := make([]byte, 8)
				if do(func(s *Schedule) error {
					Allreduce(s, net.rankView(r), 23, coll.OpSum, datatype.Long, longs(int64(vals[r])), out, ForceRDouble)
					return nil
				}) == nil {
					results[r] = getLongs(out)[0]
				}
			}(r)
		}
		wg.Wait()
		for r := 0; r < n; r++ {
			if results[r] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: bcast delivers the root's exact bytes for random payloads,
// sizes, and roots, whole or segmented.
func TestBcastProperty(t *testing.T) {
	f := func(sz, rt uint8, payload []byte, segment bool) bool {
		n := int(sz%6) + 1
		root := int(rt) % n
		if len(payload) == 0 {
			payload = []byte{0}
		}
		eager := 0
		if segment {
			eager = 3
		}
		net := newFakeNet(n, 1, eager)
		ok := make([]bool, n)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				buf := make([]byte, len(payload))
				if r == root {
					copy(buf, payload)
				}
				ok[r] = do(func(s *Schedule) error {
					return Bcast(s, net.rankView(r), 24, buf, root, ForceBinomial)
				}) == nil && bytes.Equal(buf, payload)
			}(r)
		}
		wg.Wait()
		for _, o := range ok {
			if !o {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRecompileInPlaceAllocatesNothing: once a schedule has seen a
// shape, compiling it again — into the same Schedule, over fresh caller
// buffers — allocates nothing and retains none of the old buffers.
func TestRecompileInPlaceAllocatesNothing(t *testing.T) {
	tr := Transport(newFakeNet(16, 1, 64).rankView(3))
	s := new(Schedule)
	bufs := [2][]byte{make([]byte, 256), make([]byte, 256)}
	out := make([]byte, 256)
	compile := func(i int) {
		b := bufs[i%2]
		Barrier(s, tr, i)
		if Bcast(s, tr, i, b, 5, ForceBinomial) != nil ||
			Reduce(s, tr, i, coll.OpSum, datatype.Long, b, out, 1, ForceBinomial) != nil ||
			Reduce(s, tr, i, opConcat, datatype.Long, b, out, 1, ForceBinomial) != nil ||
			Gather(s, tr, i, b[:16], out, 3) != nil ||
			Scatter(s, tr, i, b, out[:16], 3) != nil ||
			Allgather(s, tr, i, b[:16], out, ForceRing) != nil ||
			Alltoall(s, tr, i, b, out, ForcePairwise) != nil ||
			ReduceScatterBlock(s, tr, i, coll.OpSum, datatype.Long, b, out[:16]) != nil {
			t.Fatal("compile failed")
		}
		Scan(s, tr, i, coll.OpSum, datatype.Long, b, out)
		Exscan(s, tr, i, coll.OpSum, datatype.Long, b, out)
		Allreduce(s, tr, i, coll.OpSum, datatype.Long, b, out, ForceRDouble)
	}
	compile(0)
	i := 0
	if allocs := testing.AllocsPerRun(100, func() { i++; compile(i) }); allocs != 0 {
		t.Errorf("recompiling in place allocates %.1f objects per round of 12 collectives", allocs)
	}
	Barrier(s, tr, 0)
	for _, st := range s.steps[:cap(s.steps)] {
		if len(st.a) > 2 || st.b != nil {
			t.Fatalf("stale step retained a caller buffer: %+v", st)
		}
	}
}

// TestStepSize pins the packed step: the retained size of a parked
// rank's schedule is steps x this.
func TestStepSize(t *testing.T) {
	if sz := unsafe.Sizeof(step{}); sz > 72 {
		t.Errorf("step is %d bytes, budget 72", sz)
	}
}
