package fabric

import (
	"bytes"
	"sync"
	"testing"

	"gompi/internal/instr"
	"gompi/internal/match"
	"gompi/internal/proc"
	"gompi/internal/vtime"
)

// testRank returns the one rank of a fresh world at hz: the ledger an
// endpoint charges, as a device binds its rank.
func testRank(hz float64) *proc.Rank { return proc.NewWorld(1, 1, hz).Rank(0) }

// sharedRank is testRank in a world built for MPI_THREAD_MULTIPLE: one
// rank charged from several lanes (goroutines) at once.
func sharedRank(hz float64) *proc.Rank {
	w := proc.NewWorld(1, 1, hz)
	w.SetThreadMultiple(true)
	return w.Rank(0)
}

// waitRecv completes op the way a device's receive wait does (ch4's
// recvBox.Block): read the op's VCI event sequence, run progress, and park
// until the sequence moves while the op is not done. The deposit that
// completes an op bumps the sequence after it sets done, so a sequence
// read before the done check cannot miss it.
func waitRecv(ep *Endpoint, op *RecvOp) {
	v := op.VCI()
	for {
		seq := ep.EventSeqVCI(v)
		ep.Progress()
		if ep.RecvDone(op) {
			return
		}
		ep.WaitEventVCI(v, seq)
	}
}

// newTestFabric builds a fabric whose endpoints are bound to the ranks
// of one world.
func newTestFabric(t *testing.T, prof Profile, n int) (*Fabric, []*proc.Rank) {
	t.Helper()
	f := New(prof, n)
	hz := prof.Hz
	if hz == 0 {
		hz = 1e9
	}
	w := proc.NewWorld(n, 1, hz)
	ms := make([]*proc.Rank, n)
	for i := range ms {
		ms[i] = w.Rank(i)
		f.Endpoint(i).Bind(ms[i])
	}
	return f, ms
}

func TestByName(t *testing.T) {
	for _, name := range []string{"ofi", "ucx", "inf"} {
		p, ok := ByName(name)
		if !ok || p.Name != name {
			t.Errorf("ByName(%q) = (%v,%v)", name, p.Name, ok)
		}
	}
	if p, ok := ByName(""); !ok || p.Name != "inf" {
		t.Errorf("ByName(\"\") should default to inf, got (%v,%v)", p.Name, ok)
	}
	if _, ok := ByName("tcp"); ok {
		t.Error("ByName(tcp) should fail")
	}
}

func TestSendThenRecv(t *testing.T) {
	f, _ := newTestFabric(t, OFI, 2)
	bits := match.MakeBits(1, 0, 42)

	f.Endpoint(0).TaggedSend(1, bits, []byte("hello"))

	op := &RecvOp{Buf: make([]byte, 16)}
	f.Endpoint(1).PostRecv(op, match.MakeBits(1, 0, 42), match.FullMask)
	waitRecv(f.Endpoint(1), op)

	if op.N != 5 || !bytes.Equal(op.Buf[:op.N], []byte("hello")) {
		t.Fatalf("received %q (%d bytes)", op.Buf[:op.N], op.N)
	}
	if op.Src != 0 || op.Tag != 42 || op.Truncated {
		t.Errorf("status = src %d tag %d trunc %v", op.Src, op.Tag, op.Truncated)
	}
}

func TestRecvThenSend(t *testing.T) {
	f, _ := newTestFabric(t, INF, 2)
	op := &RecvOp{Buf: make([]byte, 4)}
	f.Endpoint(1).PostRecv(op, match.MakeBits(1, 0, 7), match.FullMask)
	if f.Endpoint(1).RecvDone(op) {
		t.Fatal("receive completed before any send")
	}
	f.Endpoint(0).TaggedSend(1, match.MakeBits(1, 0, 7), []byte{9, 9})
	waitRecv(f.Endpoint(1), op)
	if op.N != 2 || op.Buf[0] != 9 {
		t.Fatalf("got %d bytes %v", op.N, op.Buf[:op.N])
	}
}

func TestTruncation(t *testing.T) {
	f, _ := newTestFabric(t, INF, 2)
	f.Endpoint(0).TaggedSend(1, match.MakeBits(1, 0, 1), []byte("long message"))
	op := &RecvOp{Buf: make([]byte, 4)}
	f.Endpoint(1).PostRecv(op, match.MakeBits(1, 0, 1), match.FullMask)
	waitRecv(f.Endpoint(1), op)
	if !op.Truncated || op.N != 4 {
		t.Errorf("Truncated=%v N=%d, want true/4", op.Truncated, op.N)
	}
}

func TestSenderBufferReuse(t *testing.T) {
	// Eager protocol: sender may scribble on the buffer right after
	// TaggedSend returns.
	f, _ := newTestFabric(t, INF, 2)
	buf := []byte("aaaa")
	f.Endpoint(0).TaggedSend(1, match.MakeBits(1, 0, 0), buf)
	copy(buf, "bbbb")
	op := &RecvOp{Buf: make([]byte, 4)}
	f.Endpoint(1).PostRecv(op, match.MakeBits(1, 0, 0), match.FullMask)
	waitRecv(f.Endpoint(1), op)
	if string(op.Buf) != "aaaa" {
		t.Errorf("received %q, want the value at injection time", op.Buf)
	}
}

func TestVirtualTimeFlows(t *testing.T) {
	f, ms := newTestFabric(t, OFI, 2)
	ms[0].ChargeCycles(instr.Compute, 10_000) // sender is "ahead"
	f.Endpoint(0).TaggedSend(1, match.MakeBits(1, 0, 0), []byte{1})

	op := &RecvOp{Buf: make([]byte, 1)}
	f.Endpoint(1).PostRecv(op, match.MakeBits(1, 0, 0), match.FullMask)
	waitRecv(f.Endpoint(1), op)

	// Receiver's clock must land at least one wire latency after the
	// sender's injection point.
	if ms[1].Now() < 10_000+vtime.Time(OFI.WireLatency) {
		t.Errorf("receiver clock %d did not sync past sender injection", ms[1].Now())
	}
	if got := ms[0].Profile().Count(instr.Transport); got < OFI.SendInject {
		t.Errorf("sender transport charge %d < SendInject %d", got, OFI.SendInject)
	}
}

func TestInfProfileChargesNothing(t *testing.T) {
	f, ms := newTestFabric(t, INF, 2)
	f.Endpoint(0).TaggedSend(1, match.MakeBits(1, 0, 0), []byte{1})
	op := &RecvOp{Buf: make([]byte, 1)}
	f.Endpoint(1).PostRecv(op, match.MakeBits(1, 0, 0), match.FullMask)
	waitRecv(f.Endpoint(1), op)
	if ms[0].Profile().Count(instr.Transport) != 0 || ms[1].Profile().Count(instr.Transport) != 0 {
		t.Error("infinite network charged transport cycles")
	}
}

func TestRecvReapOnce(t *testing.T) {
	f, ms := newTestFabric(t, OFI, 2)
	f.Endpoint(0).TaggedSend(1, match.MakeBits(1, 0, 0), []byte{1})
	op := &RecvOp{Buf: make([]byte, 1)}
	f.Endpoint(1).PostRecv(op, match.MakeBits(1, 0, 0), match.FullMask)
	for !f.Endpoint(1).RecvDone(op) {
	}
	before := ms[1].Profile().Count(instr.Transport)
	f.Endpoint(1).RecvDone(op)
	waitRecv(f.Endpoint(1), op)
	if got := ms[1].Profile().Count(instr.Transport); got != before {
		t.Errorf("completion reaped more than once: %d -> %d", before, got)
	}
}

func TestProbeEndpoint(t *testing.T) {
	f, _ := newTestFabric(t, INF, 2)
	if _, _, _, ok := f.Endpoint(1).ProbeVCI(match.MakeBits(1, 0, 5), match.FullMask, 0); ok {
		t.Fatal("probe hit with nothing sent")
	}
	f.Endpoint(0).TaggedSend(1, match.MakeBits(1, 0, 5), []byte("abc"))
	src, tag, size, ok := f.Endpoint(1).ProbeVCI(match.MakeBits(1, 0, 5), match.FullMask, 0)
	if !ok || src != 0 || tag != 5 || size != 3 {
		t.Fatalf("probe = (%d,%d,%d,%v)", src, tag, size, ok)
	}
}

func TestActiveMessages(t *testing.T) {
	f, _ := newTestFabric(t, OFI, 2)
	var got []byte
	var gotSrc int
	f.Endpoint(1).RegisterAM(7, func(src int, hdr, payload []byte, _ vtime.Time) {
		gotSrc = src
		got = append(append([]byte(nil), hdr...), payload...)
	})
	f.Endpoint(0).AMSend(1, 7, []byte{0xAB}, []byte("data"))
	if n := f.Endpoint(1).Progress(); n != 1 {
		t.Fatalf("Progress handled %d messages, want 1", n)
	}
	if gotSrc != 0 || string(got) != "\xabdata" {
		t.Fatalf("handler saw src=%d data=%q", gotSrc, got)
	}
}

// TestWaitEventRunsHandlers: an active message ends an aggregate wait,
// so the device loop around it (read the sequence, progress, check,
// wait) runs the handler.
func TestWaitEventRunsHandlers(t *testing.T) {
	f, _ := newTestFabric(t, OFI, 2)
	ep := f.Endpoint(1)
	done := false
	ep.RegisterAM(1, func(int, []byte, []byte, vtime.Time) { done = true })

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			seq := ep.EventSeqVCI(AnyVCI)
			if ep.Progress(); done {
				return
			}
			ep.WaitEventVCI(AnyVCI, seq)
		}
	}()
	f.Endpoint(0).AMSend(1, 1, nil, nil)
	wg.Wait()
	if !done {
		t.Fatal("the wait ended without the handler running")
	}
}

func TestPutGet(t *testing.T) {
	f, ms := newTestFabric(t, OFI, 2)
	mem := make([]byte, 64)
	key := f.RegisterRegion(1, mem)

	f.Endpoint(0).Put(1, key, 8, []byte{1, 2, 3, 4})
	if !bytes.Equal(mem[8:12], []byte{1, 2, 3, 4}) {
		t.Fatalf("put did not land: %v", mem[8:12])
	}
	if f.RegionArrival(1, key) <= 0 {
		t.Error("region arrival not recorded")
	}
	if ms[0].Profile().Count(instr.Transport) < OFI.PutInject {
		t.Error("put did not charge injection")
	}

	buf := make([]byte, 4)
	f.Endpoint(0).Get(1, key, 8, buf)
	if !bytes.Equal(buf, []byte{1, 2, 3, 4}) {
		t.Fatalf("get returned %v", buf)
	}
	f.UnregisterRegion(1, key)
}

func TestPutToUnregisteredPanics(t *testing.T) {
	f, _ := newTestFabric(t, INF, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Put to unregistered region did not panic")
		}
	}()
	f.Endpoint(0).Put(1, 999, 0, []byte{1})
}

func TestRMWAtomicity(t *testing.T) {
	f, ms := newTestFabric(t, INF, 3)
	mem := make([]byte, 1)
	key := f.RegisterRegion(0, mem)
	_ = ms

	const perRank = 100
	var wg sync.WaitGroup
	for r := 1; r <= 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perRank; i++ {
				f.Endpoint(r).RMW(0, key, 0, 1, func(t []byte) { t[0]++ })
			}
		}(r)
	}
	wg.Wait()
	if mem[0] != byte(2*perRank) {
		t.Fatalf("lost updates: got %d, want %d", mem[0], 2*perRank)
	}
}

func TestConcurrentSendsToOneReceiver(t *testing.T) {
	const senders, msgs = 4, 50
	f := New(INF, senders+1)
	ms := make([]*proc.Rank, senders+1)
	for i := range ms {
		ms[i] = testRank(1e9)
		f.Endpoint(i).Bind(ms[i])
	}

	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				f.Endpoint(s).TaggedSend(0, match.MakeBits(1, s, i), []byte{byte(s)})
			}
		}(s)
	}

	got := 0
	for s := 1; s <= senders; s++ {
		for i := 0; i < msgs; i++ {
			op := &RecvOp{Buf: make([]byte, 1)}
			f.Endpoint(0).PostRecv(op, match.MakeBits(1, s, i), match.FullMask)
			waitRecv(f.Endpoint(0), op)
			if op.Buf[0] != byte(s) {
				t.Fatalf("message from %d carried %d", s, op.Buf[0])
			}
			got++
		}
	}
	wg.Wait()
	if got != senders*msgs {
		t.Fatalf("received %d, want %d", got, senders*msgs)
	}
}

func TestEndpointOutOfRangePanics(t *testing.T) {
	f := New(INF, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Endpoint(5) did not panic")
		}
	}()
	f.Endpoint(5)
}

func TestRendezvousLatencyCliff(t *testing.T) {
	// Crossing the eager limit must add the RTS/CTS round trip to the
	// arrival time.
	f, ms := newTestFabric(t, OFI, 2)
	small := make([]byte, OFI.EagerLimit)
	big := make([]byte, OFI.EagerLimit+1)

	f.Endpoint(0).TaggedSend(1, match.MakeBits(1, 0, 0), small)
	op1 := &RecvOp{Buf: make([]byte, len(small))}
	f.Endpoint(1).PostRecv(op1, match.MakeBits(1, 0, 0), match.FullMask)
	waitRecv(f.Endpoint(1), op1)
	eagerArrival := op1.Arrival

	sendAt := ms[0].Now()
	f.Endpoint(0).TaggedSend(1, match.MakeBits(1, 0, 1), big)
	op2 := &RecvOp{Buf: make([]byte, len(big))}
	f.Endpoint(1).PostRecv(op2, match.MakeBits(1, 0, 1), match.FullMask)
	waitRecv(f.Endpoint(1), op2)

	minRndv := sendAt + vtime.Time(3*OFI.WireLatency) // RTS + CTS + data
	if op2.Arrival < minRndv {
		t.Errorf("rendezvous arrival %d < %d (no handshake delay)", op2.Arrival, minRndv)
	}
	if op2.N != len(big) {
		t.Errorf("rendezvous payload truncated: %d", op2.N)
	}
	_ = eagerArrival
}

func TestEagerBelowLimitNoCliff(t *testing.T) {
	f, ms := newTestFabric(t, OFI, 2)
	data := make([]byte, OFI.EagerLimit)
	start := ms[0].Now()
	f.Endpoint(0).TaggedSend(1, match.MakeBits(1, 0, 0), data)
	op := &RecvOp{Buf: make([]byte, len(data))}
	f.Endpoint(1).PostRecv(op, match.MakeBits(1, 0, 0), match.FullMask)
	waitRecv(f.Endpoint(1), op)
	maxEager := start + vtime.Time(2*OFI.WireLatency) + vtime.Time(OFI.SendInject) +
		vtime.Time(float64(len(data))*(OFI.InjectPerByte+OFI.WirePerByte))
	if op.Arrival > maxEager {
		t.Errorf("eager message delayed as if rendezvous: arrival %d > %d", op.Arrival, maxEager)
	}
}

func TestEndpointAccessors(t *testing.T) {
	f, _ := newTestFabric(t, OFI, 3)
	if f.Size() != 3 || f.Profile().Name != "ofi" {
		t.Fatalf("fabric accessors: size %d profile %s", f.Size(), f.Profile().Name)
	}
	if f.Endpoint(0).SnapshotStats().Match.Searches != 0 {
		t.Fatal("fresh endpoint has match searches")
	}
}

func TestDepositLocalAndWake(t *testing.T) {
	f, ms := newTestFabric(t, OFI, 2)
	ep := f.Endpoint(1)
	bits := match.MakeBits(3, 0, 1)
	seq, vseq := ep.EventSeqVCI(AnyVCI), ep.EventSeqVCI(f.VCIForCtx(bits.Context()))
	// A local deposit (shm delivery path) must match posted receives and
	// bump its VCI's event counter, but not the aggregate one: the
	// draining device wakes aggregate waiters once per drain (Notify).
	op := &RecvOp{Buf: make([]byte, 2)}
	ep.PostRecv(op, bits, match.FullMask)
	ep.DepositShmVCI(bits, 0, []byte{7, 8}, 500, f.VCIForCtx(bits.Context()), nil)
	ep.DepositShmVCI(match.MakeBits(3, 0, 2), 0, []byte{9}, 600, f.VCIForCtx(bits.Context()), nil)
	if got := ep.EventSeqVCI(f.VCIForCtx(bits.Context())); got != vseq+2 {
		t.Fatalf("VCI event counter moved %d -> %d over two shm deposits, want +2", vseq, got)
	}
	if got := ep.EventSeqVCI(AnyVCI); got != seq {
		t.Fatalf("shm deposits moved the aggregate counter %d -> %d, want unchanged until Notify", seq, got)
	}
	ep.Notify()
	if got := ep.EventSeqVCI(AnyVCI); got != seq+1 {
		t.Fatalf("Notify moved the aggregate counter %d -> %d, want +1", seq, got)
	}
	if !ep.RecvDone(op) || op.Buf[0] != 7 || op.Arrival != 500 {
		t.Fatalf("local deposit not delivered: %+v", op)
	}
	if ms[1].Now() < 500 {
		t.Fatal("receiver did not sync to local arrival")
	}
	seq = ep.EventSeqVCI(AnyVCI)
	ep.wake()
	if ep.WaitEventVCI(AnyVCI, seq) <= seq {
		t.Fatal("wake did not release the aggregate wait")
	}
}

func TestMProbeEndpoint(t *testing.T) {
	f, _ := newTestFabric(t, INF, 2)
	if _, _, _, _, ok := f.Endpoint(1).MProbeVCI(match.MakeBits(1, 0, 2), match.FullMask, 0); ok {
		t.Fatal("mprobe hit on empty endpoint")
	}
	f.Endpoint(0).TaggedSend(1, match.MakeBits(1, 0, 2), []byte{9, 9})
	src, tag, data, _, ok := f.Endpoint(1).MProbeVCI(match.MakeBits(1, 0, 2), match.FullMask, 0)
	if !ok || src != 0 || tag != 2 || len(data) != 2 {
		t.Fatalf("mprobe = (%d,%d,%v,%v)", src, tag, data, ok)
	}
	// Extracted: a posted receive must NOT match it.
	op := &RecvOp{Buf: make([]byte, 2)}
	f.Endpoint(1).PostRecv(op, match.MakeBits(1, 0, 2), match.FullMask)
	if f.Endpoint(1).RecvDone(op) {
		t.Fatal("extracted message matched a receive")
	}
}

func TestRegionMem(t *testing.T) {
	f, _ := newTestFabric(t, INF, 1)
	mem := []byte{1, 2, 3}
	key := f.RegisterRegion(0, mem)
	got := f.RegionMem(0, key)
	if &got[0] != &mem[0] {
		t.Fatal("RegionMem returned a copy")
	}
}
