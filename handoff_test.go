package gompi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gompi/internal/metrics"
)

// fillPattern writes a deterministic byte pattern so corruption is
// position-sensitive (a swapped fragment changes bytes, not just sums).
func fillPattern(buf []byte, seed int) {
	for i := range buf {
		buf[i] = byte((i+seed)*131 + 7)
	}
}

// Receive orders for the copy-count table (0: whichever the two
// goroutines make). Both are host order, kept by a channel between the
// rank bodies so no virtual clock sees it.
const (
	postedFirst     = iota + 1 // the receive is posted before the send
	unexpectedFirst            // the message waits unexpected for its receive
)

// TestHandoffCopyCounts pins the copy-count contract of lending on
// both transports. On-node above the handoff threshold and off-node
// above the eager limit a message costs zero staging copies and
// exactly one direct copy into the posted buffer, whether the receive
// was posted first or the message waited unexpected (before the
// netmod lent, that wait cost a staging copy); a matched probe takes
// one private copy and releases the sender. Below the thresholds the
// staged shm path pays at least two for a multi-cell message (copy-in
// plus reassembly) and at least one for a one-cell message, which is
// delivered from its cell; an unexpected eager netmod message pays one.
func TestHandoffCopyCounts(t *testing.T) {
	const thresh = 16384
	cases := []struct {
		name   string
		rpn    int // 2: on-node (shm), 1: off-node (netmod, eager limit 8 KiB)
		size   int
		order  int
		mprobe bool // receive with Mprobe + Message.Recv
		// expectations on the job-wide aggregate
		stagedMax int64 // -1 = no bound
		stagedMin int64
		direct    int64
		handoffs  int64
	}{
		{name: "handoff", rpn: 2, size: 65536, stagedMax: 0, stagedMin: 0, direct: 1, handoffs: 1},
		{name: "staged", rpn: 2, size: 8192, stagedMax: -1, stagedMin: 2, direct: 1, handoffs: 0},
		{name: "staged-one-cell", rpn: 2, size: 4096, stagedMax: -1, stagedMin: 1, direct: 1, handoffs: 0},
		{name: "rendezvous-posted", rpn: 1, size: 65536, order: postedFirst, stagedMax: 0, stagedMin: 0, direct: 1},
		{name: "rendezvous-unexpected", rpn: 1, size: 65536, order: unexpectedFirst, stagedMax: 0, stagedMin: 0, direct: 1},
		{name: "eager-unexpected", rpn: 1, size: 4096, order: unexpectedFirst, stagedMax: 1, stagedMin: 1, direct: 1},
		{name: "rendezvous-mprobe", rpn: 1, size: 65536, order: unexpectedFirst, mprobe: true, stagedMax: 1, stagedMin: 1, direct: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var st Stats
			cfg := Config{RanksPerNode: tc.rpn, Fabric: "ofi", ShmEagerMax: thresh, Stats: &st}
			ready := make(chan struct{})
			err := Run(2, cfg, func(p *Proc) error {
				w := p.World()
				if p.Rank() == 0 {
					if tc.order == postedFirst {
						<-ready
					}
					buf := make([]byte, tc.size)
					fillPattern(buf, 3)
					r, err := w.Isend(buf, tc.size, Byte, 1, 9)
					if tc.order == unexpectedFirst {
						close(ready)
					}
					if err != nil {
						return err
					}
					_, err = r.Wait()
					return err
				}
				got := make([]byte, tc.size)
				switch {
				case tc.mprobe:
					<-ready
					m, err := w.Mprobe(0, 9)
					if err != nil {
						return err
					}
					if _, err := m.Recv(got, tc.size, Byte); err != nil {
						return err
					}
				case tc.order == postedFirst:
					r, err := w.Irecv(got, tc.size, Byte, 0, 9)
					close(ready)
					if err != nil {
						return err
					}
					if _, err := r.Wait(); err != nil {
						return err
					}
				default:
					if tc.order == unexpectedFirst {
						<-ready
					}
					if _, err := w.Recv(got, tc.size, Byte, 0, 9); err != nil {
						return err
					}
				}
				want := make([]byte, tc.size)
				fillPattern(want, 3)
				if !bytes.Equal(got, want) {
					return fmt.Errorf("payload corrupted")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			agg := st.Aggregate()
			if tc.stagedMax >= 0 && agg.CopiesStaged.Msgs > tc.stagedMax {
				t.Errorf("CopiesStaged.Msgs = %d, want <= %d", agg.CopiesStaged.Msgs, tc.stagedMax)
			}
			if agg.CopiesStaged.Msgs < tc.stagedMin {
				t.Errorf("CopiesStaged.Msgs = %d, want >= %d", agg.CopiesStaged.Msgs, tc.stagedMin)
			}
			if agg.CopiesDirect.Msgs != tc.direct {
				t.Errorf("CopiesDirect.Msgs = %d, want %d", agg.CopiesDirect.Msgs, tc.direct)
			}
			if agg.ShmHandoff.Msgs != tc.handoffs {
				t.Errorf("ShmHandoff.Msgs = %d, want %d", agg.ShmHandoff.Msgs, tc.handoffs)
			}
			if tc.handoffs > 0 {
				if agg.ShmHandoff.Bytes != int64(tc.size) {
					t.Errorf("ShmHandoff.Bytes = %d, want %d", agg.ShmHandoff.Bytes, tc.size)
				}
				if agg.Lat.HandoffRTT.Count < tc.handoffs {
					t.Errorf("HandoffRTT.Count = %d, want >= %d", agg.Lat.HandoffRTT.Count, tc.handoffs)
				}
			}
		})
	}
}

// TestHandoffAllreduceInPlace runs the zero-copy two-level allreduce on
// a single 4-rank node: the intra-node reduce-scatter folds lent views
// in place, so the whole collective performs ZERO staging copies — the
// only copies in the job are the final fan-out landings in the posted
// result buffers.
func TestHandoffAllreduceInPlace(t *testing.T) {
	const (
		ranks = 4
		count = 4096 // longs; 32 KiB payload, 8 KiB per-member chunk
	)
	var st Stats
	cfg := Config{
		RanksPerNode:  ranks,
		Fabric:        "ofi",
		ShmEagerMax:   1024,
		CollAlgorithm: "two-level",
		Stats:         &st,
	}
	err := Run(ranks, cfg, func(p *Proc) error {
		w := p.World()
		rank := p.Rank()
		send := make([]byte, count*8)
		for i := 0; i < count; i++ {
			binary.LittleEndian.PutUint64(send[i*8:], uint64((rank+1)*(i+1)))
		}
		recv := make([]byte, count*8)
		r, err := w.Iallreduce(send, recv, count, Long, OpSum)
		if err != nil {
			return err
		}
		if _, err := r.Wait(); err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			want := uint64(10 * (i + 1)) // (1+2+3+4)*(i+1)
			if got := binary.LittleEndian.Uint64(recv[i*8:]); got != want {
				return fmt.Errorf("rank %d element %d = %d, want %d", rank, i, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	agg := st.Aggregate()
	zc := agg.Coll[metrics.CollAllreduceTwoLevelZC]
	if zc.Calls != ranks {
		t.Errorf("two-level-zerocopy calls = %d, want %d", zc.Calls, ranks)
	}
	if agg.CopiesStaged.Msgs != 0 {
		t.Errorf("CopiesStaged.Msgs = %d, want 0 (in-place reduction)", agg.CopiesStaged.Msgs)
	}
	// Leader lands 3 chunks, fan-out lands 3 full results; the
	// reduce-scatter folds are not copies.
	if agg.CopiesDirect.Msgs != 6 {
		t.Errorf("CopiesDirect.Msgs = %d, want 6", agg.CopiesDirect.Msgs)
	}
	if agg.ShmHandoff.Msgs == 0 {
		t.Error("no handoffs recorded for the zero-copy allreduce")
	}
}

// TestHandoffSelectionFallsBack pins that the zero-copy algorithm is
// NOT selected below the handoff threshold, when handoff is disabled,
// or on the baseline device, which has no handoff path: the plain
// two-level algorithm runs instead, and Allreduce and Iallreduce give
// every element the sum ch4's zero-copy run gives.
func TestHandoffSelectionFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dev   DeviceKind
		eager int
		count int
	}{
		{name: "below-threshold", eager: 1 << 20, count: 64},
		{name: "disabled", eager: 0, count: 4096},
		{name: "original", dev: DeviceOriginal, eager: 4096, count: 8192}, // 64 KiB
	} {
		t.Run(tc.name, func(t *testing.T) {
			var st Stats
			cfg := Config{
				Device: tc.dev, RanksPerNode: 2, Fabric: "ofi",
				ShmEagerMax: tc.eager, CollAlgorithm: "two-level", Stats: &st,
			}
			err := Run(4, cfg, func(p *Proc) error {
				w := p.World()
				send := make([]byte, tc.count*8)
				recv, irecv := make([]byte, tc.count*8), make([]byte, tc.count*8)
				for i := 0; i < tc.count; i++ {
					binary.LittleEndian.PutUint64(send[i*8:], uint64(p.Rank()+1))
				}
				if err := w.Allreduce(send, recv, tc.count, Long, OpSum); err != nil {
					return err
				}
				r, err := w.Iallreduce(send, irecv, tc.count, Long, OpSum)
				if err != nil {
					return err
				}
				if _, err := r.Wait(); err != nil {
					return err
				}
				for i := 0; i < tc.count; i++ {
					if a, b := binary.LittleEndian.Uint64(recv[i*8:]), binary.LittleEndian.Uint64(irecv[i*8:]); a != 10 || b != 10 {
						return fmt.Errorf("element %d = %d (Allreduce), %d (Iallreduce), want 10", i, a, b)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			agg := st.Aggregate()
			if zc := agg.Coll[metrics.CollAllreduceTwoLevelZC]; zc.Calls != 0 {
				t.Errorf("two-level-zerocopy used %d times, want 0", zc.Calls)
			}
			if tl := agg.Coll[metrics.CollAllreduceTwoLevel]; tl.Calls != 4 {
				t.Errorf("two-level used %d times, want 4", tl.Calls)
			}
		})
	}
}

// TestHandoffProbeFullSize pins satellite semantics: Iprobe and Mprobe
// on a handoff message report the full payload size, not the one
// descriptor cell that carried it.
func TestHandoffProbeFullSize(t *testing.T) {
	const size = 32768
	run(t, 2, Config{RanksPerNode: 2, Fabric: "ofi", ShmEagerMax: 4096}, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			buf := make([]byte, size)
			fillPattern(buf, 11)
			r, err := w.Isend(buf, size, Byte, 1, 4)
			if err != nil {
				return err
			}
			_, err = r.Wait()
			return err
		}
		// Non-consuming probe first: full size, not one cell.
		for {
			st, ok, err := w.Iprobe(0, 4)
			if err != nil {
				return err
			}
			if ok {
				if st.GetCount(Byte) != size {
					return fmt.Errorf("Iprobe count %d, want %d", st.GetCount(Byte), size)
				}
				break
			}
		}
		m, err := w.Mprobe(0, 4)
		if err != nil {
			return err
		}
		if m.Size() != size || m.Count(Byte) != size {
			return fmt.Errorf("Mprobe size %d count %d, want %d", m.Size(), m.Count(Byte), size)
		}
		got := make([]byte, size)
		st, err := m.Recv(got, size, Byte)
		if err != nil {
			return err
		}
		if st.GetCount(Byte) != size {
			return fmt.Errorf("Mrecv count %d, want %d", st.GetCount(Byte), size)
		}
		want := make([]byte, size)
		fillPattern(want, 11)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("mrecv payload corrupted")
		}
		return nil
	})
}

// TestWatchdogHandoffDeadlock drives the handoff-specific deadlock — a
// sender parked on a completion ack for a lent buffer whose receiver
// exited without receiving — and checks that the watchdog trips, the
// abort unparks the sender, and the diagnosis names the outstanding
// handoff in the wait graph and the flight recorder.
func TestWatchdogHandoffDeadlock(t *testing.T) {
	var diag bytes.Buffer
	var st Stats
	cfg := Config{
		RanksPerNode: 2, Fabric: "ofi",
		ShmEagerMax:      1024,
		Watchdog:         true,
		WatchdogInterval: 5 * time.Millisecond,
		DiagWriter:       &diag,
		Stats:            &st,
	}
	err := Run(2, cfg, func(p *Proc) error {
		if p.Rank() != 0 {
			return nil // exit without ever receiving
		}
		buf := make([]byte, 65536)
		r, err := p.World().Isend(buf, len(buf), Byte, 1, 0)
		if err != nil {
			return err
		}
		_, err = r.Wait() // parks awaiting the handoff ack
		return err
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	out := diag.String()
	if !bytes.Contains(diag.Bytes(), []byte("awaits handoff ack")) {
		t.Errorf("diagnosis missing handoff wait-graph line:\n%s", out)
	}
	if !bytes.Contains(diag.Bytes(), []byte("shm-handoff")) {
		t.Errorf("flight recorder missing shm-handoff event:\n%s", out)
	}
}

// TestWatchdogRendezvousDeadlock drives the deadlock netmod lending
// makes legal (MPI standard mode): two ranks on different nodes each
// blocking-Send 64 KiB — above the eager limit — to the other before
// receiving. Neither send can complete, so the watchdog must trip:
// ErrStalled, each rank's lent view in the wait graph, and a
// rendezvous edge each way. Run returning at all means Abort unparked
// both senders.
func TestWatchdogRendezvousDeadlock(t *testing.T) {
	var diag bytes.Buffer
	cfg := Config{
		Fabric:           "ofi",
		Watchdog:         true,
		WatchdogInterval: 5 * time.Millisecond,
		DiagWriter:       &diag,
	}
	done := make(chan error, 1)
	go func() {
		done <- Run(2, cfg, func(p *Proc) error {
			w := p.World()
			peer := 1 - p.Rank()
			buf := make([]byte, 65536)
			if err := w.Send(buf, len(buf), Byte, peer, 0); err != nil {
				return err
			}
			_, err := w.Recv(buf, len(buf), Byte, peer, 0)
			return err
		})
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(time.Minute):
		t.Fatal("Run hung: the watchdog did not trip or Abort did not unpark the senders")
	}
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	for _, want := range []string{
		"[lent 65536 bytes]",
		"rank 0 waits on rank 1 [rendezvous]",
		"rank 1 waits on rank 0 [rendezvous]",
	} {
		if !strings.Contains(diag.String(), want) {
			t.Errorf("diagnosis missing %q:\n%s", want, diag.String())
		}
	}
}

// rendezvousRun is one arm of FuzzRendezvousLent: what the receiver got
// and was charged, and the sender's costs that lending must not touch.
type rendezvousRun struct {
	recv       Counters
	recvClock  int64
	sendTransp int64 // the sender's transport cycles
	sendSync   int64 // how far syncs moved the sender's clock past its charges
}

// rendezvousStream sends one message of each size from rank 0 to rank
// 1 on another node (ofi: eager limit 8 KiB) — as request-carrying
// Isends, which lend above the limit, or as requestless
// IsendOpt{NoReq}, which are always captured — with every receive
// posted before the first send or after the last (host order, kept by
// a channel). The receiver first runs far ahead in virtual time, so
// every arrival lies in its past and its clock is its own charges: a
// lend that charged or synced either side differently would show.
func rendezvousStream(sizes []int, noReq, posted bool) (got [][]byte, out rendezvousRun, err error) {
	ready := make(chan struct{})
	err = Run(2, Config{Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		tag := func(i int) int { return i % 3 }
		if p.Rank() == 0 {
			if posted {
				<-ready
			}
			var reqs []*Request
			for i, n := range sizes {
				buf := make([]byte, n)
				fillPattern(buf, i)
				if noReq {
					if err := w.IsendNoReq(buf, n, Byte, 1, tag(i)); err != nil {
						return err
					}
					continue
				}
				r, err := w.Isend(buf, n, Byte, 1, tag(i))
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
			}
			if !posted {
				close(ready)
			}
			if err := Waitall(reqs); err != nil {
				return err
			}
			if err := w.CommWaitall(); err != nil {
				return err
			}
			c := p.Counters()
			out.sendTransp, out.sendSync = c.Transport, p.VirtualCycles()-c.Cycles
			return nil
		}
		p.ChargeCompute(1 << 32)
		if !posted {
			<-ready
		}
		reqs := make([]*Request, len(sizes))
		got = make([][]byte, len(sizes))
		for i, n := range sizes {
			got[i] = make([]byte, n)
			r, err := w.Irecv(got[i], n, Byte, 0, tag(i))
			if err != nil {
				return err
			}
			reqs[i] = r
		}
		if posted {
			close(ready)
		}
		if err := Waitall(reqs); err != nil {
			return err
		}
		out.recv, out.recvClock = p.Counters(), p.VirtualCycles()
		return nil
	})
	return got, out, err
}

// FuzzRendezvousLent differentially fuzzes netmod lending: the same
// message stream sent lent (Isend) and captured (IsendOpt{NoReq}) must
// deliver byte-identical buffers, charge the receiver identically and
// leave its clock identical, and cost the sender the same transport
// cycles and syncs. Each input byte is one message of 128x bytes, so
// sizes straddle the 8 KiB eager limit (64 is exactly at it); posted
// picks the receive order.
func FuzzRendezvousLent(f *testing.F) {
	f.Add([]byte{64, 65}, true)
	f.Add([]byte{64, 65}, false)
	f.Add([]byte{0, 200, 63, 255, 1, 128}, false)
	f.Add([]byte{255, 255, 255, 10}, true)
	f.Fuzz(func(t *testing.T, raw []byte, posted bool) {
		if len(raw) > 8 {
			raw = raw[:8]
		}
		sizes := make([]int, len(raw))
		for i, b := range raw {
			sizes[i] = 128 * int(b)
		}
		lentGot, lent, err := rendezvousStream(sizes, false, posted)
		if err != nil {
			t.Fatalf("lent run: %v", err)
		}
		capturedGot, captured, err := rendezvousStream(sizes, true, posted)
		if err != nil {
			t.Fatalf("captured run: %v", err)
		}
		for i, n := range sizes {
			want := make([]byte, n)
			fillPattern(want, i)
			if !bytes.Equal(lentGot[i], want) || !bytes.Equal(capturedGot[i], want) {
				t.Fatalf("sizes %v posted %v: message %d (%d bytes) corrupted", sizes, posted, i, n)
			}
		}
		if lent != captured {
			t.Fatalf("sizes %v posted %v: lent and captured runs differ:\n lent     %+v\n captured %+v",
				sizes, posted, lent, captured)
		}
	})
}

// handoffEcho runs a 2-rank on-node job sending one size-byte message
// under the given threshold and returns the received bytes.
func handoffEcho(size, eagerMax int) ([]byte, error) {
	got := make([]byte, size)
	err := Run(2, Config{RanksPerNode: 2, Fabric: "ofi", ShmEagerMax: eagerMax}, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			buf := make([]byte, size)
			fillPattern(buf, 29)
			r, err := w.Isend(buf, size, Byte, 1, 2)
			if err != nil {
				return err
			}
			_, err = r.Wait()
			return err
		}
		_, err := w.Recv(got, size, Byte, 0, 2)
		return err
	})
	return got, err
}

// FuzzHandoffStaged differentially fuzzes the staged and handoff
// paths: for any payload size and threshold, the bytes delivered must
// be identical whether the message rode staging cells or a lent view.
// Seeds straddle the threshold (below, exact, above) and ragged
// multi-cell sizes.
func FuzzHandoffStaged(f *testing.F) {
	f.Add(uint32(0), uint32(4096))
	f.Add(uint32(4095), uint32(4096))
	f.Add(uint32(4096), uint32(4096))
	f.Add(uint32(4097), uint32(4096))
	f.Add(uint32(3*4096+123), uint32(4096))
	f.Add(uint32(16384), uint32(1))
	f.Fuzz(func(t *testing.T, size, thresh uint32) {
		size %= 1 << 17
		thresh = thresh%(1<<16) + 1
		staged, err := handoffEcho(int(size), 0)
		if err != nil {
			t.Fatalf("staged run: %v", err)
		}
		handoff, err := handoffEcho(int(size), int(thresh))
		if err != nil {
			t.Fatalf("handoff run: %v", err)
		}
		if !bytes.Equal(staged, handoff) {
			t.Fatalf("size %d thresh %d: staged and handoff payloads differ", size, thresh)
		}
	})
}

// shmCellStream sends one staged on-node message of each size from rank
// 0 to rank 1 through rings of cellSize-byte cells, two cells deep, so
// the producer overwrites every cell many times over. posted puts every
// receive up before the first send (host order, kept by a channel);
// otherwise the receiver probes for the last message first, so all of
// them wait unexpected, copied out of cells long since reused. As in
// rendezvousStream the receiver runs far ahead in virtual time. staged
// is the job's CopiesStaged message count.
func shmCellStream(sizes []int, cellSize int, posted bool) (got [][]byte, out rendezvousRun, staged int64, err error) {
	var st Stats
	ready := make(chan struct{})
	cfg := Config{Fabric: "ofi", RanksPerNode: 2, ShmCellSize: cellSize, ShmRingCells: 2, Stats: &st}
	err = Run(2, cfg, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			if posted {
				<-ready
			}
			for i, n := range sizes {
				buf := make([]byte, n)
				fillPattern(buf, i)
				if err := w.Send(buf, n, Byte, 1, i); err != nil {
					return err
				}
			}
			c := p.Counters()
			out.sendTransp, out.sendSync = c.Transport, p.VirtualCycles()-c.Cycles
			return nil
		}
		p.ChargeCompute(1 << 32)
		if !posted {
			if _, err := w.Probe(0, len(sizes)-1); err != nil {
				return err
			}
		}
		reqs := make([]*Request, len(sizes))
		got = make([][]byte, len(sizes))
		for i, n := range sizes {
			got[i] = make([]byte, n)
			r, err := w.Irecv(got[i], n, Byte, 0, i)
			if err != nil {
				return err
			}
			reqs[i] = r
		}
		if posted {
			close(ready)
		}
		if err := Waitall(reqs); err != nil {
			return err
		}
		out.recv, out.recvClock = p.Counters(), p.VirtualCycles()
		return nil
	})
	return got, out, st.Aggregate().CopiesStaged.Msgs, err
}

// TestShmOneCellDifferential pins delivery straight from a ring cell: a
// message that fits one cell skips the reassembly copy and nothing
// else. With the cell size varied around the payload, every stream
// delivers the same bytes; while each message fits one cell the cell
// size changes no charge, clock or copy count; and a message split
// over two cells costs exactly one more staging copy (its reassembly).
func TestShmOneCellDifferential(t *testing.T) {
	const P = 256
	sizes := []int{P, P, 1, P, 0, P, P / 2, P, P, 3, P, P}
	nonEmpty, full := 0, 0
	for _, n := range sizes {
		if n > 0 {
			nonEmpty++
		}
		if n == P {
			full++
		}
	}
	for _, posted := range []bool{true, false} {
		// Staging copies with every message in one cell: the sender's
		// copy-in, plus the unexpected queue's copy when not posted.
		oneCell := int64(nonEmpty)
		if !posted {
			oneCell *= 2
		}
		var ref rendezvousRun
		for k, cell := range []int{P, P + 1, 2 * P, P - 1} {
			got, run, staged, err := shmCellStream(sizes, cell, posted)
			if err != nil {
				t.Fatalf("cell %d posted %v: %v", cell, posted, err)
			}
			for i, n := range sizes {
				want := make([]byte, n)
				fillPattern(want, i)
				if !bytes.Equal(got[i], want) {
					t.Fatalf("cell %d posted %v: message %d (%d bytes) corrupted", cell, posted, i, n)
				}
			}
			want := oneCell
			if cell < P {
				want += int64(full) // one reassembly per two-cell message
			}
			if staged != want {
				t.Errorf("cell %d posted %v: %d staging copies, want %d", cell, posted, staged, want)
			}
			// A probing receiver's clock counts its polls; only a posted
			// stream's charges are a function of the messages alone.
			if !posted || cell < P {
				continue
			}
			if k == 0 {
				ref = run
			} else if run != ref {
				t.Errorf("one-cell streams differ with the cell size:\n cell %d %+v\n cell %d %+v", P, ref, cell, run)
			}
		}
	}
}
