package fabric

import (
	"testing"

	"gompi/internal/match"
)

// reset readies a RecvOp for reuse, something only these in-package
// tests may do: the public contract is one op per receive.
func (op *RecvOp) reset() {
	op.done.Store(false)
	op.reaped = false
	op.N, op.Truncated = 0, false
}

// TestEagerPathNoAllocs is the strict allocation guard on the fabric
// eager path. Once the pools are warm, a 1-byte tagged send — whether
// it matches a pre-posted receive (direct copy into the receive
// buffer) or lands unexpected (pooled copy, consumed by a later
// receive) — must not allocate at all.
func TestEagerPathNoAllocs(t *testing.T) {
	f, _ := newTestFabric(t, INF, 2)
	src, dst := f.Endpoint(0), f.Endpoint(1)
	bits := match.MakeBits(1, 0, 7)
	payload := []byte{42}
	recvBuf := make([]byte, 8)
	op := &RecvOp{Buf: recvBuf}

	preposted := func() {
		op.reset()
		dst.PostRecv(op, bits, match.FullMask)
		src.TaggedSend(1, bits, payload)
		if !dst.RecvDone(op) || op.N != 1 {
			t.Fatal("pre-posted receive did not complete")
		}
	}
	unexpected := func() {
		op.reset()
		src.TaggedSend(1, bits, payload)
		dst.PostRecv(op, bits, match.FullMask)
		if !dst.RecvDone(op) || op.N != 1 {
			t.Fatal("unexpected-path receive did not complete")
		}
	}

	// Warm the node free list, buffer pool, and message free list.
	preposted()
	unexpected()

	if avg := testing.AllocsPerRun(200, preposted); avg != 0 {
		t.Errorf("pre-posted eager path allocates %.1f objects/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, unexpected); avg != 0 {
		t.Errorf("unexpected eager path allocates %.1f objects/op, want 0", avg)
	}
}

// TestPutPathNoAllocs guards the RMA fast path the same way: a
// steady-state 1-byte Put into a registered region must not allocate.
func TestPutPathNoAllocs(t *testing.T) {
	f, _ := newTestFabric(t, INF, 2)
	src := f.Endpoint(0)
	target := make([]byte, 64)
	key := f.RegisterRegion(1, target)
	data := []byte{9}

	src.Put(1, key, 0, data)
	if avg := testing.AllocsPerRun(200, func() { src.Put(1, key, 0, data) }); avg != 0 {
		t.Errorf("Put path allocates %.1f objects/op, want 0", avg)
	}
}

// TestPoolRecyclesBuffers pins the recycling behavior directly: an
// unexpected message's payload copy returns to the endpoint pool when
// the receive consumes it, and the next unexpected message reuses it.
func TestPoolRecyclesBuffers(t *testing.T) {
	f, _ := newTestFabric(t, INF, 2)
	src, dst := f.Endpoint(0), f.Endpoint(1)
	bits := match.MakeBits(1, 0, 1)

	src.TaggedSend(1, bits, []byte{1, 2, 3})
	s := dst.vcis[dst.f.VCIForCtx(bits.Context())]
	var first []byte
	s.mu.Lock()
	if entry, ok := s.eng.Probe(bits, match.FullMask); ok {
		first = entry.Cookie.(*message).data
	}
	s.mu.Unlock()
	if first == nil {
		t.Fatal("no buffered unexpected message")
	}

	op := &RecvOp{Buf: make([]byte, 8)}
	dst.PostRecv(op, bits, match.FullMask)
	if !dst.RecvDone(op) {
		t.Fatal("receive did not complete")
	}

	src.TaggedSend(1, bits, []byte{4, 5})
	var second []byte
	s.mu.Lock()
	if entry, ok := s.eng.Probe(bits, match.FullMask); ok {
		second = entry.Cookie.(*message).data
	}
	s.mu.Unlock()
	if second == nil {
		t.Fatal("no second unexpected message")
	}
	if &first[0] != &second[0] {
		t.Error("second unexpected message did not reuse the pooled buffer")
	}
}

// BenchmarkEagerSteadyState measures the full fabric-level eager cycle
// (post, tagged send, reap) in steady state; with warm pools it runs at
// 0 allocs/op.
func BenchmarkEagerSteadyState(b *testing.B) {
	f := New(INF, 2)
	for i := 0; i < 2; i++ {
		f.Endpoint(i).Bind(testRank(1e9))
	}
	src, dst := f.Endpoint(0), f.Endpoint(1)
	bits := match.MakeBits(1, 0, 3)
	payload := []byte{7}
	op := &RecvOp{Buf: make([]byte, 8)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op.reset()
		dst.PostRecv(op, bits, match.FullMask)
		src.TaggedSend(1, bits, payload)
		if !dst.RecvDone(op) {
			b.Fatal("receive did not complete")
		}
	}
}
