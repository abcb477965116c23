package gompi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// runICollJob executes body on a 4-rank world with the given config
// knobs, failing the test on any rank error.
func runICollJob(t *testing.T, cfg Config, n int, body func(p *Proc) error) *Stats {
	t.Helper()
	st, err := RunStats(n, cfg, body)
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	return st
}

// TestICollAllComplete runs every nonblocking collective through
// Wait/Test on both devices and checks the results.
func TestICollAllComplete(t *testing.T) {
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		t.Run(string(dev), func(t *testing.T) {
			const n = 4
			runICollJob(t, Config{Device: dev, RanksPerNode: 2}, n, func(p *Proc) error {
				w := p.World()
				rank, size := p.Rank(), p.Size()

				// Ibarrier.
				req, err := w.Ibarrier()
				if err != nil {
					return err
				}
				if _, err := req.Wait(); err != nil {
					return err
				}

				// Ibcast, root 1.
				buf := make([]byte, 100)
				if rank == 1 {
					for i := range buf {
						buf[i] = byte(i + 7)
					}
				}
				req, err = w.Ibcast(buf, len(buf), Byte, 1)
				if err != nil {
					return err
				}
				if _, err := req.Wait(); err != nil {
					return err
				}
				for i := range buf {
					if buf[i] != byte(i+7) {
						return fmt.Errorf("ibcast byte %d wrong", i)
					}
				}

				// Ireduce to root 2, completed by Test polling.
				contrib := make([]byte, 8)
				binary.LittleEndian.PutUint64(contrib, uint64(rank+1))
				rbuf := make([]byte, 8)
				req, err = w.Ireduce(contrib, rbuf, 1, Long, OpSum, 2)
				if err != nil {
					return err
				}
				for {
					_, done, err := req.Test()
					if err != nil {
						return err
					}
					if done {
						break
					}
				}
				if rank == 2 {
					if got := binary.LittleEndian.Uint64(rbuf); got != 10 {
						return fmt.Errorf("ireduce got %d want 10", got)
					}
				}

				// Iallreduce.
				abuf := make([]byte, 8)
				req, err = w.Iallreduce(contrib, abuf, 1, Long, OpSum)
				if err != nil {
					return err
				}
				if _, err := req.Wait(); err != nil {
					return err
				}
				if got := binary.LittleEndian.Uint64(abuf); got != 10 {
					return fmt.Errorf("iallreduce got %d want 10", got)
				}

				// Iallgather.
				block := []byte{byte(rank), byte(rank + 100)}
				gbuf := make([]byte, len(block)*size)
				req, err = w.Iallgather(block, gbuf, len(block), Byte)
				if err != nil {
					return err
				}
				if _, err := req.Wait(); err != nil {
					return err
				}
				for r := 0; r < size; r++ {
					if gbuf[2*r] != byte(r) || gbuf[2*r+1] != byte(r+100) {
						return fmt.Errorf("iallgather block %d wrong", r)
					}
				}

				// Ialltoall.
				sendAll := make([]byte, 4*size)
				for d := 0; d < size; d++ {
					binary.LittleEndian.PutUint32(sendAll[4*d:], uint32(rank*1000+d))
				}
				recvAll := make([]byte, 4*size)
				req, err = w.Ialltoall(sendAll, recvAll, 4, Byte)
				if err != nil {
					return err
				}
				if _, err := req.Wait(); err != nil {
					return err
				}
				for srcRank := 0; srcRank < size; srcRank++ {
					want := uint32(srcRank*1000 + rank)
					if got := binary.LittleEndian.Uint32(recvAll[4*srcRank:]); got != want {
						return fmt.Errorf("ialltoall from %d: got %d want %d", srcRank, got, want)
					}
				}
				return nil
			})
		})
	}
}

// netBytesAllreduce measures aggregate network bytes for one 4-rank,
// 2-ranks-per-node Iallreduce of n bytes under the given algorithm pin.
func netBytesAllreduce(t *testing.T, algo string, n int) int64 {
	t.Helper()
	st := runICollJob(t, Config{RanksPerNode: 2, CollAlgorithm: algo}, 4, func(p *Proc) error {
		send := make([]byte, n)
		for i := range send {
			send[i] = byte(p.Rank() + 1)
		}
		recv := make([]byte, n)
		req, err := p.World().Iallreduce(send, recv, n/8, Long, OpBOr)
		if err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		var want byte
		for r := 0; r < p.Size(); r++ {
			want |= byte(r + 1)
		}
		for i := range recv {
			if recv[i] != want {
				return fmt.Errorf("allreduce byte %d: got %d want %d", i, recv[i], want)
			}
		}
		return nil
	})
	return st.Aggregate().NetSend.Bytes
}

// TestTwoLevelAllreduceNetBytes is the tentpole acceptance check: on 4
// ranks across 2 nodes, the hierarchical allreduce must move fewer
// bytes over the network than flat recursive doubling (2n vs 4n for
// payload n), observable in the aggregated metrics.
func TestTwoLevelAllreduceNetBytes(t *testing.T) {
	const n = 4096
	flat := netBytesAllreduce(t, "flat", n)
	two := netBytesAllreduce(t, "two-level", n)
	if flat != 4*n {
		t.Errorf("flat recursive doubling net bytes = %d, want %d", flat, 4*n)
	}
	if two != 2*n {
		t.Errorf("two-level net bytes = %d, want %d", two, 2*n)
	}
	if two >= flat {
		t.Fatalf("two-level allreduce saved nothing: %d >= %d net bytes", two, flat)
	}
	// Auto selection on a hierarchical layout must pick the two-level
	// algorithm.
	if auto := netBytesAllreduce(t, "", n); auto != two {
		t.Errorf("auto selection net bytes = %d, want the two-level %d", auto, two)
	}
}

// TestTwoLevelBcastNetBytes pins the broadcast side, with the
// algorithm forced through the communicator info key instead of the
// Config: root 1 on the {0,1}|{2,3} layout costs 3n net flat
// (vrank rotation sends 1→2, 1→3, 2→0 across nodes) but only 1n
// two-level (root → the other node's leader).
func TestTwoLevelBcastNetBytes(t *testing.T) {
	const n = 2048
	run := func(algo string) int64 {
		st := runICollJob(t, Config{RanksPerNode: 2}, 4, func(p *Proc) error {
			w := p.World()
			if algo != "" {
				w.SetInfo(CollAlgorithmKey, algo)
			}
			buf := make([]byte, n)
			if p.Rank() == 1 {
				for i := range buf {
					buf[i] = byte(i)
				}
			}
			req, err := w.Ibcast(buf, n, Byte, 1)
			if err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			for i := range buf {
				if buf[i] != byte(i) {
					return fmt.Errorf("bcast byte %d wrong", i)
				}
			}
			return nil
		})
		return st.Aggregate().NetSend.Bytes
	}
	flat := run("flat")
	two := run("two-level")
	if flat != 3*n {
		t.Errorf("flat binomial net bytes = %d, want %d", flat, 3*n)
	}
	if two != n {
		t.Errorf("two-level net bytes = %d, want %d", two, n)
	}
	if two >= flat {
		t.Fatalf("two-level bcast saved nothing: %d >= %d net bytes", two, flat)
	}
}

// TestIallreduceOverlap demonstrates genuine communication/compute
// overlap: the schedule completes through Test polls issued from
// inside a compute loop, and the final Wait costs zero additional
// virtual time because nothing is left to do.
func TestIallreduceOverlap(t *testing.T) {
	runICollJob(t, Config{RanksPerNode: 2}, 4, func(p *Proc) error {
		const elems = 512
		send := make([]byte, 8*elems)
		for i := 0; i < elems; i++ {
			binary.LittleEndian.PutUint64(send[8*i:], uint64(p.Rank()+i))
		}
		recv := make([]byte, len(send))
		req, err := p.World().Iallreduce(send, recv, elems, Long, OpSum)
		if err != nil {
			return err
		}
		completedDuringCompute := false
		// The poll budget is only a hang guard. How many polls a rank
		// burns is host time, not model time: a peer's first send
		// allocates its shm ring, and since pollers no longer queue
		// behind that on a domain lock they spin meanwhile.
		for i := 0; i < 10_000_000; i++ {
			p.ChargeCompute(1000)
			if _, done, err := req.Test(); err != nil {
				return err
			} else if done {
				completedDuringCompute = true
				break
			}
		}
		if !completedDuringCompute {
			return fmt.Errorf("iallreduce made no progress across 10M polls")
		}
		// The virtual-time assertion: with the schedule already
		// complete, Wait must not advance the clock at all.
		before := p.VirtualCycles()
		if _, err := req.Wait(); err != nil {
			return err
		}
		if after := p.VirtualCycles(); after != before {
			return fmt.Errorf("wait after completion advanced the clock %d -> %d", before, after)
		}
		for i := 0; i < elems; i++ {
			want := uint64(0+1+2+3) + 4*uint64(i)
			if got := binary.LittleEndian.Uint64(recv[8*i:]); got != want {
				return fmt.Errorf("elem %d: got %d want %d", i, got, want)
			}
		}
		return nil
	})
}

// TestWaitallMixed completes point-to-point and collective requests
// through one Waitall call (MPI_WAITALL over heterogeneous requests).
func TestWaitallMixed(t *testing.T) {
	runICollJob(t, Config{}, 4, func(p *Proc) error {
		w := p.World()
		rank, size := p.Rank(), p.Size()
		peer := rank ^ 1

		in := make([]byte, 64)
		rreq, err := w.Irecv(in, len(in), Byte, peer, 77)
		if err != nil {
			return err
		}
		out := bytes.Repeat([]byte{byte(rank + 1)}, 64)
		sreq, err := w.Isend(out, len(out), Byte, peer, 77)
		if err != nil {
			return err
		}
		contrib := make([]byte, 8)
		binary.LittleEndian.PutUint64(contrib, uint64(rank+1))
		sum := make([]byte, 8)
		areq, err := w.Iallreduce(contrib, sum, 1, Long, OpSum)
		if err != nil {
			return err
		}
		breq, err := w.Ibarrier()
		if err != nil {
			return err
		}
		if err := Waitall([]*Request{rreq, sreq, areq, breq}); err != nil {
			return err
		}
		for i := range in {
			if in[i] != byte(peer+1) {
				return fmt.Errorf("pt2pt payload byte %d wrong", i)
			}
		}
		var want uint64
		for r := 0; r < size; r++ {
			want += uint64(r + 1)
		}
		if got := binary.LittleEndian.Uint64(sum); got != want {
			return fmt.Errorf("mixed allreduce got %d want %d", got, want)
		}
		return nil
	})
}

// TestLargeAlltoallNeverBlocks pins the collective never-blocks
// contract: with a tiny eager threshold and blocks far above it, both
// the blocking and nonblocking Alltoall must segment into eager
// fragments — zero rendezvous messages — instead of stalling sends.
func TestLargeAlltoallNeverBlocks(t *testing.T) {
	const blockBytes = 4096
	st := runICollJob(t, Config{Fabric: FabricOFI, EagerLimit: 512}, 4, func(p *Proc) error {
		w := p.World()
		rank, size := p.Rank(), p.Size()
		send := make([]byte, blockBytes*size)
		for d := 0; d < size; d++ {
			copy(send[d*blockBytes:(d+1)*blockBytes], bytes.Repeat([]byte{byte(10*rank + d)}, blockBytes))
		}
		check := func(recv []byte) error {
			for srcRank := 0; srcRank < size; srcRank++ {
				want := byte(10*srcRank + rank)
				for i := 0; i < blockBytes; i++ {
					if recv[srcRank*blockBytes+i] != want {
						return fmt.Errorf("block from %d corrupt at %d", srcRank, i)
					}
				}
			}
			return nil
		}
		recv := make([]byte, blockBytes*size)
		if err := w.Alltoall(send, recv, blockBytes, Byte); err != nil {
			return err
		}
		if err := check(recv); err != nil {
			return err
		}
		recv2 := make([]byte, blockBytes*size)
		req, err := w.Ialltoall(send, recv2, blockBytes, Byte)
		if err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		return check(recv2)
	})
	if rndv := st.Aggregate().Rndv.Msgs; rndv != 0 {
		t.Fatalf("collective traffic entered rendezvous %d times; segmentation must keep it eager", rndv)
	}
}

// opSubtract is the non-commutative regression operator: inout = in - inout.
var opSubtract = OpCreate(func(in, inout []byte, count int, elem *Datatype) error {
	for i := 0; i < count; i++ {
		a := int64(binary.LittleEndian.Uint64(in[8*i:]))
		b := int64(binary.LittleEndian.Uint64(inout[8*i:]))
		binary.LittleEndian.PutUint64(inout[8*i:], uint64(a-b))
	}
	return nil
}, false)

// TestNonCommutativeReducePublic pins MPI_Op_create semantics end to
// end: a subtraction operator declared non-commutative must fold in
// strict rank order through both the blocking and nonblocking
// reduction paths. With contributions 2^rank on 4 ranks the
// rank-ordered fold is 1-(2-(4-8)) = -5; the commutative tree
// algorithms produce a different value, so this fails on the old path.
func TestNonCommutativeReducePublic(t *testing.T) {
	if OpCommutative(opSubtract) {
		t.Fatal("opSubtract registered as commutative")
	}
	if !OpCommutative(OpSum) {
		t.Fatal("OpSum not commutative")
	}
	const want = int64(-5)
	runICollJob(t, Config{}, 4, func(p *Proc) error {
		w := p.World()
		contrib := make([]byte, 8)
		binary.LittleEndian.PutUint64(contrib, uint64(int64(1)<<uint(p.Rank())))

		recv := make([]byte, 8)
		if err := w.Reduce(contrib, recv, 1, Long, opSubtract, 0); err != nil {
			return err
		}
		if p.Rank() == 0 {
			if got := int64(binary.LittleEndian.Uint64(recv)); got != want {
				return fmt.Errorf("blocking reduce: got %d want %d", got, want)
			}
		}

		all := make([]byte, 8)
		if err := w.Allreduce(contrib, all, 1, Long, opSubtract); err != nil {
			return err
		}
		if got := int64(binary.LittleEndian.Uint64(all)); got != want {
			return fmt.Errorf("blocking allreduce: got %d want %d", got, want)
		}

		irecv := make([]byte, 8)
		req, err := w.Ireduce(contrib, irecv, 1, Long, opSubtract, 0)
		if err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			if got := int64(binary.LittleEndian.Uint64(irecv)); got != want {
				return fmt.Errorf("ireduce: got %d want %d", got, want)
			}
		}

		iall := make([]byte, 8)
		req, err = w.Iallreduce(contrib, iall, 1, Long, opSubtract)
		if err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		if got := int64(binary.LittleEndian.Uint64(iall)); got != want {
			return fmt.Errorf("iallreduce: got %d want %d", got, want)
		}
		return nil
	})
}

// TestCollAlgorithmValidation pins configuration errors: a bogus
// Config.CollAlgorithm fails at Run, a bogus info key fails at the
// collective call.
func TestCollAlgorithmValidation(t *testing.T) {
	err := Run(2, Config{CollAlgorithm: "no-such-algo"}, func(p *Proc) error { return nil })
	if err == nil {
		t.Fatal("Run accepted a bogus CollAlgorithm")
	}
	runICollJob(t, Config{}, 2, func(p *Proc) error {
		w := p.World()
		w.SetInfo(CollAlgorithmKey, "bogus")
		buf := make([]byte, 8)
		if _, err := w.Ibcast(buf, 8, Byte, 0); err == nil {
			return fmt.Errorf("Ibcast accepted a bogus info-key algorithm")
		}
		// Clear the pin; the world must still be usable (and ranks must
		// stay aligned on the tag sequence, which the failed call never
		// touched... it did draw a tag, so draw it on every rank alike).
		w.SetInfo(CollAlgorithmKey, "auto")
		req, err := w.Ibcast(buf, 8, Byte, 0)
		if err != nil {
			return err
		}
		_, err = req.Wait()
		return err
	})
}

// TestSchedRoundTrace checks that nonblocking-collective schedules
// emit per-round trace spans (TraceSched) into the event log.
func TestSchedRoundTrace(t *testing.T) {
	st := runICollJob(t, Config{Trace: true}, 4, func(p *Proc) error {
		contrib := make([]byte, 8)
		binary.LittleEndian.PutUint64(contrib, uint64(p.Rank()))
		recv := make([]byte, 8)
		req, err := p.World().Iallreduce(contrib, recv, 1, Long, OpSum)
		if err != nil {
			return err
		}
		_, err = req.Wait()
		return err
	})
	for rank := 0; rank < 4; rank++ {
		rounds := 0
		for _, e := range st.TraceEvents(rank) {
			if e.Kind == TraceSched {
				rounds++
			}
		}
		// Recursive doubling on 4 flat ranks has 2 rounds.
		if rounds != 2 {
			t.Errorf("rank %d recorded %d sched-round spans, want 2", rank, rounds)
		}
	}
}

// TestCollMetricsSnapshot checks the per-algorithm call/byte counters
// surface in MetricsSnapshot and merge across ranks.
func TestCollMetricsSnapshot(t *testing.T) {
	const n = 256
	st := runICollJob(t, Config{RanksPerNode: 2}, 4, func(p *Proc) error {
		buf := make([]byte, n)
		req, err := p.World().Ibcast(buf, n, Byte, 0)
		if err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		return p.World().Barrier()
	})
	agg := st.Aggregate()
	var twoLevelCalls, barrierCalls, twoLevelBytes int64
	for _, cs := range agg.Coll {
		switch cs.Algo {
		case "bcast/two-level":
			twoLevelCalls, twoLevelBytes = cs.Calls, cs.Bytes
		case "barrier/dissemination":
			barrierCalls = cs.Calls
		}
	}
	if twoLevelCalls != 4 {
		t.Errorf("bcast/two-level calls = %d, want 4 (one per rank)", twoLevelCalls)
	}
	if twoLevelBytes != 4*n {
		t.Errorf("bcast/two-level bytes = %d, want %d", twoLevelBytes, 4*n)
	}
	if barrierCalls != 4 {
		t.Errorf("barrier/dissemination calls = %d, want 4", barrierCalls)
	}
}

// TestBlockingCollectivesObserved: every blocking collective is a
// schedule, so each call lands in the per-algorithm counters under its
// own name (Scan, Exscan and the v-collectives included) and, with
// tracing on, leaves sched-round spans like an I-collective does.
func TestBlockingCollectivesObserved(t *testing.T) {
	const n = 4
	st := runICollJob(t, Config{Trace: true}, n, func(p *Proc) error {
		w := p.World()
		a, b := make([]byte, 8), make([]byte, 8)
		wide, wide2 := make([]byte, 8*n), make([]byte, 8*n)
		counts, displs := []int{8, 8, 8, 8}, []int{0, 8, 16, 24}
		for _, call := range []func() error{
			w.Barrier,
			func() error { return w.Bcast(a, 8, Byte, 1) },
			func() error { return w.Reduce(a, b, 1, Long, OpSum, 2) },
			func() error { return w.Allreduce(a, b, 1, Long, OpSum) },
			func() error { return w.Gather(a, wide, 8, Byte, 3) },
			func() error { return w.Scatter(wide, a, 8, Byte, 3) },
			func() error { return w.Allgather(a, wide, 8, Byte) },
			func() error { return w.Alltoall(wide, wide2, 8, Byte) },
			func() error { return w.ReduceScatterBlock(wide, a, 1, Long, OpSum) },
			func() error { return w.Scan(a, b, 1, Long, OpSum) },
			func() error { return w.Exscan(a, b, 1, Long, OpSum) },
			func() error { return w.Gatherv(a, wide, counts, displs, 0) },
			func() error { return w.Scatterv(wide, counts, displs, a, 0) },
			func() error { return w.Allgatherv(a, wide, counts, displs) },
		} {
			if err := call(); err != nil {
				return err
			}
		}
		return nil
	})
	calls := map[string]int64{}
	for _, cs := range st.Aggregate().Coll {
		calls[cs.Algo] = cs.Calls
	}
	for _, algo := range []string{
		"barrier/dissemination", "bcast/binomial", "reduce/binomial", "allreduce/rdouble",
		"gather/linear", "scatter/linear", "allgather/ring", "alltoall/pairwise",
		"reduce_scatter/block", "scan/chain", "exscan/chain",
		"gatherv/linear", "scatterv/linear", "allgatherv/ring",
	} {
		if calls[algo] != n {
			t.Errorf("%s: %d calls recorded, want %d (one per rank)", algo, calls[algo], n)
		}
	}
	for rank := 0; rank < n; rank++ {
		colls, _, rounds, stray := collSpans(st.TraceEvents(rank))
		// Every collective has at least one round on every rank here, and
		// a blocking call's rounds all run inside its own span.
		if colls != 14 || rounds < colls || stray != 0 {
			t.Errorf("rank %d: %d collective spans, %d sched-round spans, %d of them outside every collective", rank, colls, rounds, stray)
		}
	}
}

// collSpans counts a rank's collective, wait and sched-round spans, and
// how many round spans lie outside every envelope a collective opens:
// the call's own span for a blocking one, and from the start of the
// I-call or Start to the end of the wait that follows it otherwise.
func collSpans(events []TraceEvent) (colls, waits, rounds, stray int) {
	type envelope struct{ start, end int64 }
	var env []envelope
	for _, e := range events {
		switch e.Kind {
		case TraceColl:
			colls++
			env = append(env, envelope{int64(e.Start), int64(e.End)})
		case TraceWait:
			waits++
			// The log is ordered by End, so the collective this wait
			// completes is already in env: stretch the latest one.
			if len(env) > 0 {
				env[len(env)-1].end = int64(e.End)
			}
		}
	}
	for _, e := range events {
		if e.Kind != TraceSched {
			continue
		}
		rounds++
		inside := false
		for _, v := range env {
			inside = inside || (v.start <= int64(e.Start) && int64(e.End) <= v.end)
		}
		if !inside {
			stray++
		}
	}
	return colls, waits, rounds, stray
}

// TestStartedCollectivesObserved: the I- and persistent forms are seen
// the same way. Each I-call and each persistent Init and Start opens a
// collective span, each Wait a wait span (Config.Profiler's "Enter/Exit
// around every MPI operation" gets the same pairs); the schedule rounds
// run between the start of the one and the end of the other; and the
// instrument is free in the model: a traced run charges the MPI layer
// exactly the instructions an untraced one does, a persistent Start
// none for error checking.
func TestStartedCollectivesObserved(t *testing.T) {
	const n, replays = 4, 3
	// layer is what the MPI layer charges per call, whatever the peers'
	// timing: error checks, thread checks, call frames.
	var layer [2][n]int64
	var startChecks [2][n]int64
	job := func(traced bool) *Stats {
		k := 0
		if traced {
			k = 1
		}
		return runICollJob(t, Config{Trace: traced}, n, func(p *Proc) error {
			w := p.World()
			a, b := make([]byte, 8), make([]byte, 8)
			for _, start := range []func() (*Request, error){
				w.Ibarrier,
				func() (*Request, error) { return w.Ibcast(a, 8, Byte, 1) },
				func() (*Request, error) { return w.Iallreduce(a, b, 1, Long, OpSum) },
			} {
				req, err := start()
				if err != nil {
					return err
				}
				if _, err := req.Wait(); err != nil {
					return err
				}
			}
			op, err := w.AllreduceInit(a, b, 1, Long, OpSum)
			if err != nil {
				return err
			}
			for i := 0; i < replays; i++ {
				before := p.Counters()
				if err := op.Start(); err != nil {
					return err
				}
				startChecks[k][p.Rank()] += p.Counters().Sub(before).ErrorCheck
				if err := op.Wait(); err != nil {
					return err
				}
			}
			c := p.Counters()
			layer[k][p.Rank()] = c.ErrorCheck + c.ThreadCheck + c.Call
			return nil
		})
	}
	job(false)
	st := job(true)
	if layer[0] != layer[1] {
		t.Errorf("MPI-layer instructions per rank: %v untraced, %v traced", layer[0], layer[1])
	}
	if startChecks != [2][n]int64{} {
		t.Errorf("persistent Start charged error checking: %v", startChecks)
	}
	for rank := 0; rank < n; rank++ {
		colls, waits, rounds, stray := collSpans(st.TraceEvents(rank))
		// Three I-calls, one Init and the Starts; one wait for each but
		// the Init; at least one round per started collective.
		if colls != 4+replays || waits != 3+replays || rounds < waits || stray != 0 {
			t.Errorf("rank %d: %d collective spans, %d wait spans, %d sched-round spans, %d of them outside every collective",
				rank, colls, waits, rounds, stray)
		}
	}
}
