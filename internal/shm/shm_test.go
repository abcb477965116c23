package shm

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"gompi/internal/instr"
	"gompi/internal/match"
	"gompi/internal/proc"
	"gompi/internal/vtime"
)

// testRank returns the one rank of a fresh world: the ledger a domain
// charges, as a device binds its rank.
func testRank() *proc.Rank { return proc.NewWorld(1, 1, 2.2e9).Rank(0) }

// sharedRank is testRank in a world built for MPI_THREAD_MULTIPLE: one
// rank charged from several goroutines at once.
func sharedRank() *proc.Rank {
	w := proc.NewWorld(1, 1, 2.2e9)
	w.SetThreadMultiple(true)
	return w.Rank(0)
}

// bindSpin binds the full-ring wait of ranks 0..n-1 to the tests'
// stand-in for a device's event loop, which polls ready until it holds,
// yielding in between, and returns the count of waits begun.
func bindSpin(d *Domain, n int) *atomic.Int64 {
	waits := new(atomic.Int64)
	for i := 0; i < n; i++ {
		d.BindWait(i, func(ready func() bool) {
			waits.Add(1)
			for !ready() {
				runtime.Gosched()
			}
		})
	}
	return waits
}

type delivery struct {
	bits    match.Bits
	src     int
	data    []byte
	arrival vtime.Time
}

// newTestDomain returns a domain that records deliveries per rank.
func newTestDomain(n int) (*Domain, []*[]delivery, []*proc.Rank) {
	boxes := make([]*[]delivery, n)
	for i := range boxes {
		boxes[i] = new([]delivery)
	}
	d := NewDomain(DefaultProfile, n, func(dst int, bits match.Bits, src int, data []byte, arrival vtime.Time, vci int) {
		// Deliver lends the ring's reassembly scratch: copy to retain.
		cp := append([]byte(nil), data...)
		*boxes[dst] = append(*boxes[dst], delivery{bits, src, cp, arrival})
	}, nil)
	w := proc.NewWorld(n, n, 2.2e9)
	meters := make([]*proc.Rank, n)
	for i := range meters {
		meters[i] = w.Rank(i)
		d.Bind(i, meters[i])
	}
	bindSpin(d, n)
	return d, boxes, meters
}

func TestSmallMessage(t *testing.T) {
	d, boxes, _ := newTestDomain(2)
	bits := match.MakeBits(1, 0, 5)
	d.Send(0, 1, bits, []byte("hi"))
	if n := d.Progress(1); n != 1 {
		t.Fatalf("Progress delivered %d, want 1", n)
	}
	got := (*boxes[1])[0]
	if got.src != 0 || got.bits != bits || string(got.data) != "hi" {
		t.Fatalf("delivery = %+v", got)
	}
}

func TestZeroLengthMessage(t *testing.T) {
	d, boxes, _ := newTestDomain(2)
	d.Send(0, 1, match.MakeBits(1, 0, 0), nil)
	if n := d.Progress(1); n != 1 {
		t.Fatalf("Progress delivered %d, want 1", n)
	}
	if len((*boxes[1])[0].data) != 0 {
		t.Fatal("zero-length message delivered with data")
	}
}

func TestFragmentationReassembly(t *testing.T) {
	d, boxes, _ := newTestDomain(2)
	msg := make([]byte, 3*CellSize+123)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	d.Send(0, 1, match.MakeBits(1, 0, 1), msg)
	if n := d.Progress(1); n != 1 {
		t.Fatalf("Progress delivered %d, want 1", n)
	}
	if !bytes.Equal((*boxes[1])[0].data, msg) {
		t.Fatal("reassembled message differs from sent")
	}
}

// TestOneCellDeliveryMatchesModel holds drainRing to the cost model
// with the cell size varied around the payload, so the same stream is
// delivered from its cells and reassembled in turns, through a ring
// two cells deep that every message overwrites: each message arrives
// intact, stamped with its last cell's arrival; the receiver is charged
// CellOverhead plus PerByte per cell and RecvOverhead per message,
// whichever path delivered it; and only a message spread over several
// cells pays a reassembly copy.
func TestOneCellDeliveryMatchesModel(t *testing.T) {
	const P = 100
	p := DefaultProfile
	sizes := []int{P, 1, P, 0, P / 2, P, 2*P + 1, P, 3}
	for _, cell := range []int{P - 1, P, P + 1, 2 * P} {
		var got []delivery
		d := NewDomainCfg(p, Config{CellSize: cell, RingCells: 2}, 2,
			func(dst int, bits match.Bits, src int, data []byte, arrival vtime.Time, vci int) {
				got = append(got, delivery{bits, src, append([]byte(nil), data...), arrival})
			}, nil)
		snd, rcv := testRank(), testRank()
		d.Bind(0, snd)
		d.Bind(1, rcv)
		bindSpin(d, 2)
		for i, n := range sizes {
			msg := make([]byte, n)
			for j := range msg {
				msg[j] = byte(i*31 + j)
			}
			cost := vtime.Cycles(p.RecvOverhead)
			for off := 0; off == 0 || off < n; off += cell {
				cost += p.CellOverhead + vtime.Cycles(p.PerByte*float64(min(cell, n-off)))
			}
			rclock, rstaged := rcv.Now(), rcv.Metrics().CopiesStaged.Msgs
			got = got[:0]
			if n > 2*cell {
				// Longer than the ring: drain cells as they land.
				sent := make(chan struct{})
				go func() {
					d.Send(0, 1, match.MakeBits(1, 0, i), msg)
					close(sent)
				}()
				for len(got) == 0 {
					d.Progress(1)
				}
				<-sent
			} else {
				d.Send(0, 1, match.MakeBits(1, 0, i), msg)
				if n := d.Progress(1); n != 1 {
					t.Fatalf("cell %d, message %d: Progress delivered %d, want 1", cell, i, n)
				}
			}
			if len(got) != 1 || !bytes.Equal(got[0].data, msg) || got[0].bits.Tag() != i {
				t.Fatalf("cell %d, message %d (%d bytes): delivered %+v", cell, i, n, got)
			}
			if want := snd.Now() + vtime.Time(p.Latency); got[0].arrival != want {
				t.Errorf("cell %d, message %d: arrival %d, want %d (last cell's)", cell, i, got[0].arrival, want)
			}
			if d := vtime.Cycles(rcv.Now() - rclock); d != cost {
				t.Errorf("cell %d, message %d (%d bytes): receiver charged %d cycles, want %d", cell, i, n, d, cost)
			}
			want := int64(0)
			if n > cell {
				want = 1
			}
			if d := rcv.Metrics().CopiesStaged.Msgs - rstaged; d != want {
				t.Errorf("cell %d, message %d (%d bytes): %d reassembly copies, want %d", cell, i, n, d, want)
			}
		}
	}
}

// TestRingPayloadBoundary runs messages at every edge of the inline
// and slab storage — empty, around inlineBytes, around one cell, and
// multi-cell with a tail that fits inline or not — through four cell
// sizes, and holds each to the cost model: the bytes delivered are the
// bytes sent, the sender and the receiver are charged their per-message
// and per-cell cycles whichever storage carried a fragment, and only a
// message longer than a cell pays a reassembly copy. A ring allocates
// its slab at its first fragment longer than inlineBytes, and a ring
// whose cells never hold one never does.
func TestRingPayloadBoundary(t *testing.T) {
	p := DefaultProfile
	for _, cell := range []int{16, 64, 256, 4096} {
		sizes := []int{0, 1, 63, 64, 65, cell - 1, cell, cell + 1, 2*cell + 1, 2*cell + 64, 2*cell + 65}
		var got []delivery
		d := NewDomainCfg(p, Config{CellSize: cell, RingCells: 8}, 2,
			func(dst int, bits match.Bits, src int, data []byte, arrival vtime.Time, vci int) {
				got = append(got, delivery{bits, src, append([]byte(nil), data...), arrival})
			}, nil)
		snd, rcv := testRank(), testRank()
		d.Bind(0, snd)
		d.Bind(1, rcv)
		bindSpin(d, 2)
		r := d.ring(0, 1)
		long := false // a fragment longer than inlineBytes has been sent
		for i, n := range sizes {
			msg := make([]byte, n)
			for j := range msg {
				msg[j] = byte(i*31 + j)
			}
			sendCost, recvCost := p.SendOverhead, p.RecvOverhead
			for off := 0; off == 0 || off < n; off += cell {
				frag := min(cell, n-off)
				perCell := p.CellOverhead + vtime.Cycles(p.PerByte*float64(frag))
				sendCost += perCell
				recvCost += perCell
				long = long || frag > inlineBytes
			}
			sclock, sstaged := snd.Now(), snd.Metrics().CopiesStaged.Msgs
			rclock, rstaged := rcv.Now(), rcv.Metrics().CopiesStaged.Msgs
			got = got[:0]
			d.Send(0, 1, match.MakeBits(1, 0, i), msg)
			if k := d.Progress(1); k != 1 || len(got) != 1 || !bytes.Equal(got[0].data, msg) || got[0].bits.Tag() != i {
				t.Fatalf("cell %d, %d bytes: %d deliveries, %+v", cell, n, k, got)
			}
			if c := vtime.Cycles(snd.Now() - sclock); c != sendCost {
				t.Errorf("cell %d, %d bytes: sender charged %d cycles, want %d", cell, n, c, sendCost)
			}
			if c := vtime.Cycles(rcv.Now() - rclock); c != recvCost {
				t.Errorf("cell %d, %d bytes: receiver charged %d cycles, want %d", cell, n, c, recvCost)
			}
			wantSend, wantRecv := int64(0), int64(0)
			if n > 0 {
				wantSend = 1 // copy-in
			}
			if n > cell {
				wantRecv = 1 // reassembly
			}
			if c := snd.Metrics().CopiesStaged.Msgs - sstaged; c != wantSend {
				t.Errorf("cell %d, %d bytes: sender staged %d copies, want %d", cell, n, c, wantSend)
			}
			if c := rcv.Metrics().CopiesStaged.Msgs - rstaged; c != wantRecv {
				t.Errorf("cell %d, %d bytes: receiver staged %d copies, want %d", cell, n, c, wantRecv)
			}
			if slab := len(r.slab); (slab > 0) != long || (long && slab != 8*cell) {
				t.Errorf("cell %d, after %d bytes: slab of %d bytes, long fragment sent %v", cell, n, slab, long)
			}
		}
	}
}

func TestFIFOOrderPerPair(t *testing.T) {
	d, boxes, _ := newTestDomain(2)
	for i := 0; i < 10; i++ {
		d.Send(0, 1, match.MakeBits(1, 0, i), []byte{byte(i)})
	}
	d.Progress(1)
	got := *boxes[1]
	if len(got) != 10 {
		t.Fatalf("delivered %d messages, want 10", len(got))
	}
	for i, dl := range got {
		if dl.bits.Tag() != i {
			t.Fatalf("message %d has tag %d (FIFO violated)", i, dl.bits.Tag())
		}
	}
}

func TestRingBackpressure(t *testing.T) {
	// A message far larger than the ring forces the producer to block
	// until the consumer drains; with a concurrent consumer it must
	// complete.
	d, boxes, _ := newTestDomain(2)
	msg := make([]byte, 3*RingCells*CellSize)
	for i := range msg {
		msg[i] = byte(i)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.Send(0, 1, match.MakeBits(1, 0, 0), msg)
	}()
	for len(*boxes[1]) == 0 {
		d.Progress(1)
	}
	wg.Wait()
	if !bytes.Equal((*boxes[1])[0].data, msg) {
		t.Fatal("pipelined oversized message corrupted")
	}
}

func TestWakeCallback(t *testing.T) {
	var woke []int
	var mu sync.Mutex
	d := NewDomain(DefaultProfile, 2, func(int, match.Bits, int, []byte, vtime.Time, int) {}, func(dst, vci int) {
		mu.Lock()
		woke = append(woke, dst)
		mu.Unlock()
	})
	d.Bind(0, testRank())
	d.Bind(1, testRank())
	d.Send(0, 1, match.MakeBits(1, 0, 0), []byte{1})
	if len(woke) != 1 || woke[0] != 1 {
		t.Fatalf("wake calls = %v, want [1]", woke)
	}
}

func TestTransportChargesAndArrival(t *testing.T) {
	d, boxes, meters := newTestDomain(2)
	meters[0].ChargeCycles(instr.Compute, 1000)
	d.Send(0, 1, match.MakeBits(1, 0, 0), []byte{1, 2, 3})
	d.Progress(1)
	if meters[0].Profile().Count(instr.Transport) < DefaultProfile.SendOverhead {
		t.Error("sender not charged")
	}
	if meters[1].Profile().Count(instr.Transport) < DefaultProfile.RecvOverhead {
		t.Error("receiver not charged")
	}
	if (*boxes[1])[0].arrival < 1000+vtime.Time(DefaultProfile.Latency) {
		t.Errorf("arrival %d before sender injection + latency", (*boxes[1])[0].arrival)
	}
}

func TestUnboundMeterPanics(t *testing.T) {
	d := NewDomain(DefaultProfile, 2, func(int, match.Bits, int, []byte, vtime.Time, int) {}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Send without bound meter did not panic")
		}
	}()
	d.Send(0, 1, match.MakeBits(1, 0, 0), []byte{1})
}

// TestUnboundWaitPanics: a producer that finds its ring full needs its
// rank's bound wait; without one the send panics instead of hanging.
func TestUnboundWaitPanics(t *testing.T) {
	d := NewDomainCfg(DefaultProfile, Config{CellSize: 64, RingCells: 2}, 2, nopDeliver, nil)
	d.Bind(0, testRank())
	d.Bind(1, testRank())
	defer func() {
		if recover() == nil {
			t.Fatal("Send onto a full ring without a bound wait did not panic")
		}
	}()
	d.Send(0, 1, match.MakeBits(1, 0, 0), make([]byte, 3*64))
}

func TestNilDeliverPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDomain(nil deliver) did not panic")
		}
	}()
	NewDomain(DefaultProfile, 2, nil, nil)
}

func TestPendingFrom(t *testing.T) {
	d, _, _ := newTestDomain(2)
	if d.PendingFrom(0, 1) {
		t.Fatal("pending on fresh domain")
	}
	d.Send(0, 1, match.MakeBits(1, 0, 0), []byte{1})
	if !d.PendingFrom(0, 1) {
		t.Fatal("no pending after send")
	}
	d.Progress(1)
	if d.PendingFrom(0, 1) {
		t.Fatal("pending after drain")
	}
}

// Property: any message size up to several cells round-trips intact.
func TestRoundTripProperty(t *testing.T) {
	d, boxes, _ := newTestDomain(2)
	f := func(data []byte) bool {
		*boxes[1] = nil
		d.Send(0, 1, match.MakeBits(2, 0, 9), data)
		d.Progress(1)
		return len(*boxes[1]) == 1 && bytes.Equal((*boxes[1])[0].data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: k messages in, k deliveries out, same payload multiset (per
// pair FIFO means same order).
func TestCountConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		d, boxes, _ := newTestDomain(2)
		for i, s := range sizes {
			data := make([]byte, int(s)%(2*CellSize))
			for j := range data {
				data[j] = byte(i)
			}
			d.Send(0, 1, match.MakeBits(1, 0, i), data)
			// Drain as we go so the bounded ring never blocks the
			// single-threaded test.
			d.Progress(1)
		}
		d.Progress(1)
		if len(*boxes[1]) != len(sizes) {
			return false
		}
		for i, dl := range *boxes[1] {
			if len(dl.data) != int(sizes[i])%(2*CellSize) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentPairs(t *testing.T) {
	// Four ranks all sending to rank 0 concurrently; rank 0 drains.
	const senders, msgs = 3, 200
	d, boxes, _ := newTestDomain(senders + 1)
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				d.Send(s, 0, match.MakeBits(1, s, i), []byte{byte(s), byte(i)})
			}
		}(s)
	}
	for len(*boxes[0]) < senders*msgs {
		d.Progress(0)
	}
	wg.Wait()
	perSrc := map[int]int{}
	for _, dl := range *boxes[0] {
		if dl.bits.Tag() != perSrc[dl.src] {
			t.Fatalf("pair (%d,0) out of order: tag %d want %d", dl.src, dl.bits.Tag(), perSrc[dl.src])
		}
		perSrc[dl.src]++
	}
}
