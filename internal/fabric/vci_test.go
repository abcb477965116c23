package fabric

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/match"
)

// newVCIFabric builds an nvci-way fabric with bound meters.
func newVCIFabric(t *testing.T, n, nvci int) *Fabric {
	t.Helper()
	f := NewVCI(INF, n, nvci)
	for i := 0; i < n; i++ {
		f.Endpoint(i).Bind(sharedRank(1e9))
	}
	return f
}

func TestVCIMappingDeterministic(t *testing.T) {
	f := newVCIFabric(t, 2, 4)
	v := f.VCIForCtx(6)
	if v < 0 || v >= 4 {
		t.Fatalf("VCIForCtx out of range: %d", v)
	}
	if f.VCIForCtx(6) != v {
		t.Fatal("VCIForCtx is not deterministic")
	}
	// A communicator's pt2pt and collective contexts (an even/odd pair)
	// share its lane.
	if got := f.VCIForCtx(7); got != v {
		t.Fatalf("contexts 6 and 7 map to %d and %d, want one lane", v, got)
	}
	// Single-VCI fabrics collapse everything to interface 0.
	f1 := newVCIFabric(t, 2, 1)
	if f1.VCIForCtx(6) != 0 {
		t.Fatal("single-VCI fabric must map everything to 0")
	}
}

func TestVCITrafficIsolatedPerInterface(t *testing.T) {
	f := newVCIFabric(t, 2, 4)
	src, dst := f.Endpoint(0), f.Endpoint(1)
	// One message per interface, each with distinct payload.
	for v := 0; v < 4; v++ {
		src.TaggedSendVCI(1, match.MakeBits(1, 0, v), []byte{byte(0x10 + v)}, v, nil)
	}
	// Receive them in reverse interface order: matching within an
	// interface is independent of the others.
	for v := 3; v >= 0; v-- {
		op := &RecvOp{Buf: make([]byte, 1)}
		dst.PostRecvVCI(op, match.MakeBits(1, 0, v), match.FullMask, v)
		waitRecv(dst, op)
		if op.N != 1 || op.Buf[0] != byte(0x10+v) {
			t.Fatalf("vci %d delivered % x", v, op.Buf[:op.N])
		}
	}
}

// TestEventSeqPerVCIIsolation is the regression test for the
// single-event-sequence design: traffic on one interface must not
// advance another interface's event counter, or every parked waiter
// wakes on every deposit anywhere on the endpoint (the spurious-wakeup
// storm the per-VCI sequences fix).
func TestEventSeqPerVCIIsolation(t *testing.T) {
	f := newVCIFabric(t, 2, 4)
	src, dst := f.Endpoint(0), f.Endpoint(1)
	seq0 := dst.EventSeqVCI(0)
	seq1 := dst.EventSeqVCI(1)
	agg := dst.EventSeqVCI(AnyVCI)
	const hammer = 64
	var wg sync.WaitGroup
	wg.Add(2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < hammer/2; i++ {
				src.TaggedSendVCI(1, match.MakeBits(1, 0, 1), []byte{1}, 1, nil)
			}
		}(g)
	}
	wg.Wait()
	if got := dst.EventSeqVCI(0); got != seq0 {
		t.Fatalf("VCI 0 sequence moved %d -> %d on VCI 1 traffic", seq0, got)
	}
	if got := dst.EventSeqVCI(1); got == seq1 {
		t.Fatal("VCI 1 sequence did not advance under its own traffic")
	}
	if got := dst.EventSeqVCI(AnyVCI); got == agg {
		t.Fatal("aggregate sequence did not advance")
	}
	// Drain so the fabric ends balanced.
	for i := 0; i < hammer; i++ {
		op := &RecvOp{Buf: make([]byte, 1)}
		dst.PostRecvVCI(op, match.MakeBits(1, 0, 1), match.FullMask, 1)
		waitRecv(dst, op)
	}
}

// TestWaitEventVCINoSpuriousWakeup pins the blocking side: a waiter
// parked on one interface stays parked while concurrent senders hammer
// a different interface, and wakes promptly on its own.
func TestWaitEventVCINoSpuriousWakeup(t *testing.T) {
	f := newVCIFabric(t, 2, 4)
	src, dst := f.Endpoint(0), f.Endpoint(1)
	seq0 := dst.EventSeqVCI(0)
	var woke atomic.Bool
	done := make(chan struct{})
	go func() {
		dst.WaitEventVCI(0, seq0)
		woke.Store(true)
		close(done)
	}()
	// Hammer interface 1 from several goroutines; the waiter on
	// interface 0 must not observe any of it.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				src.TaggedSendVCI(1, match.MakeBits(1, 0, 1), []byte{1}, 1, nil)
			}
		}()
	}
	wg.Wait()
	time.Sleep(20 * time.Millisecond)
	if woke.Load() {
		t.Fatal("waiter on VCI 0 woke on VCI 1 traffic")
	}
	// Its own interface wakes it.
	src.TaggedSendVCI(1, match.MakeBits(1, 0, 0), []byte{2}, 0, nil)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter on VCI 0 never woke on VCI 0 traffic")
	}
	// Drain both interfaces.
	for i := 0; i < 128; i++ {
		op := &RecvOp{Buf: make([]byte, 1)}
		dst.PostRecvVCI(op, match.MakeBits(1, 0, 1), match.FullMask, 1)
		waitRecv(dst, op)
	}
	op := &RecvOp{Buf: make([]byte, 1)}
	dst.PostRecvVCI(op, match.MakeBits(1, 0, 0), match.FullMask, 0)
	waitRecv(dst, op)
	if !bytes.Equal(op.Buf[:op.N], []byte{2}) {
		t.Fatalf("drain of VCI 0 got % x", op.Buf[:op.N])
	}
}

// TestProbeVCIOnPinnedInterface covers the hinted-communicator path:
// probes against a specific interface see exactly that interface's
// unexpected queue.
func TestProbeVCIOnPinnedInterface(t *testing.T) {
	f := newVCIFabric(t, 2, 4)
	src, dst := f.Endpoint(0), f.Endpoint(1)
	src.TaggedSendVCI(1, match.MakeBits(1, 0, 5), []byte{7, 7}, 2, nil)
	if _, _, _, ok := dst.ProbeVCI(match.MakeBits(1, 0, 5), match.FullMask, 3); ok {
		t.Fatal("probe on VCI 3 saw a message deposited on VCI 2")
	}
	srcRank, tag, size, ok := dst.ProbeVCI(match.MakeBits(1, 0, 5), match.FullMask, 2)
	if !ok || srcRank != 0 || tag != 5 || size != 2 {
		t.Fatalf("probe on VCI 2: ok=%v src=%d tag=%d size=%d", ok, srcRank, tag, size)
	}
	op := &RecvOp{Buf: make([]byte, 2)}
	dst.PostRecvVCI(op, match.MakeBits(1, 0, 5), match.FullMask, 2)
	waitRecv(dst, op)
}
