package fabric

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/abort"
	"gompi/internal/match"
	"gompi/internal/vtime"
)

// Tests for the waiter gate: an event takes a VCI's lock to Broadcast
// only when a goroutine has announced itself in WaitEventVCI (directly
// or through waitRecv, the device's receive wait). A wakeup the gate loses is a goroutine asleep for good, so
// every test here fails on a timeout instead of hanging the run.

const gateRounds = 100_000

// within runs the two sides of a ping-pong, each given a counter to
// bump once per round, and fails the test if ten seconds pass without
// either counter moving: slow (a loaded host, the race detector) is
// fine, stuck is not.
func within(t *testing.T, what string, sides ...func(round *atomic.Int64)) {
	t.Helper()
	var rounds atomic.Int64
	done := make(chan struct{}, len(sides))
	for _, side := range sides {
		go func() {
			side(&rounds)
			done <- struct{}{}
		}()
	}
	tick := time.NewTicker(10 * time.Second)
	defer tick.Stop()
	for left, seen := len(sides), int64(0); left > 0; {
		select {
		case <-done:
			left--
		case <-tick.C:
			if now := rounds.Load(); now == seen {
				t.Fatalf("%s: stuck after %d rounds: a waiter never woke (missed wakeup through the gate)", what, now)
			} else {
				seen = now
			}
		}
	}
}

// TestWaiterGateWakeVCI ping-pongs WakeVCI against EventSeqVCI +
// WaitEventVCI on one interface of each endpoint: every wake lands
// either before the peer's check (which then does not sleep) or after
// its announcement (and then takes the lock and broadcasts).
func TestWaiterGateWakeVCI(t *testing.T) {
	f := newVCIFabric(t, 2, 2)
	a, b := f.Endpoint(0), f.Endpoint(1)
	seqB := b.EventSeqVCI(1) // read before a's first wake can land
	within(t, "WakeVCI/WaitEventVCI",
		func(round *atomic.Int64) {
			for i := 0; i < gateRounds; i++ {
				seq := a.EventSeqVCI(1)
				b.WakeVCI(1)
				a.WaitEventVCI(1, seq)
				round.Add(1)
			}
		},
		func(round *atomic.Int64) {
			for i := 0; i < gateRounds; i++ {
				seqB = b.WaitEventVCI(1, seqB)
				a.WakeVCI(1)
				round.Add(1)
			}
		})
	for _, ep := range []*Endpoint{a, b} {
		if got := ep.EventSeqVCI(1); got != gateRounds {
			t.Errorf("rank %d VCI 1 saw %d events, want %d (one per round)", ep.rank, got, gateRounds)
		}
		if got := ep.EventSeqVCI(0); got != 0 {
			t.Errorf("rank %d VCI 0 saw %d events of VCI 1's ping-pong", ep.rank, got)
		}
		if n := ep.vcis[1].ev.waiters.Load(); n != 0 {
			t.Errorf("rank %d VCI 1 left with %d announced waiter(s)", ep.rank, n)
		}
	}
}

// TestWaiterGateWaitRecv is the same handshake through deposit and
// the receive wait: deposit signals its VCI's event after it drops the lock,
// and broadcasts only for an announced waiter. Each side's message
// reaches the peer posted-first or unexpected-first as the race falls.
func TestWaiterGateWaitRecv(t *testing.T) {
	f := newVCIFabric(t, 2, 2)
	a, b := f.Endpoint(0), f.Endpoint(1)
	side := func(me, peer *Endpoint, first bool) func(*atomic.Int64) {
		return func(round *atomic.Int64) {
			var op RecvOp
			var out, in [8]byte
			bits := match.MakeBits(1, peer.rank, 7)
			for i := 0; i < gateRounds; i++ {
				op.Buf = in[:]
				me.PostRecvVCI(&op, bits, match.FullMask, 1)
				binary.LittleEndian.PutUint64(out[:], uint64(i))
				if first {
					me.TaggedSendVCI(peer.rank, match.MakeBits(1, me.rank, 7), out[:], 1, nil)
				}
				waitRecv(me, &op)
				if got := binary.LittleEndian.Uint64(in[:]); op.N != 8 || got != uint64(i) {
					t.Errorf("rank %d round %d: received %d bytes, stamp %d", me.rank, i, op.N, got)
					return
				}
				op.Reset()
				if !first {
					me.TaggedSendVCI(peer.rank, match.MakeBits(1, me.rank, 7), out[:], 1, nil)
				}
				round.Add(1)
			}
		}
	}
	within(t, "deposit/waitRecv", side(a, b, true), side(b, a, false))
}

// TestWaitParksAfterYields: yielding is a prelude to the park, not a
// spin. A receive nobody ever sends to spends its yields, parks exactly
// once and stays parked on its interface — an any-tag receive on a
// multi-VCI endpoint too, on its communicator's lane; an abort then
// ends the wait with abort.ErrWorldAborted without a second park.
func TestWaitParksAfterYields(t *testing.T) {
	for _, tc := range []struct {
		name string
		nvci int
		mask match.Bits
	}{
		{"vci", 1, match.FullMask},
		{"lane-anytag", 2, match.RecvMask(false, true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := NewVCI(OFI, 2, tc.nvci)
			m := testRank(1e9)
			f.Endpoint(0).Bind(testRank(1e9))
			ep := f.Endpoint(1)
			ep.Bind(m)
			op := &RecvOp{Buf: make([]byte, 8)}
			ep.PostRecv(op, match.MakeBits(1, 0, 5), tc.mask)
			ev := &ep.vcis[op.VCI()].ev
			mu, waiters := ev.mu, func() bool { return ev.waiters.Load() != 0 }
			ended := make(chan any, 1)
			go func() {
				defer func() { ended <- recover() }()
				waitRecv(ep, op)
			}()
			for deadline := time.Now().Add(10 * time.Second); !waiters(); runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatal("the wait never announced itself to sleep: it spins instead of parking")
				}
			}
			// The waiter holds mu from announcing itself until it sleeps,
			// so taking mu orders its park before the reads below.
			mu.Lock()
			mu.Unlock()
			for i := 0; i < 100; i++ {
				runtime.Gosched()
			}
			mu.Lock()
			parks := m.Metrics().Parks
			mu.Unlock()
			if parks != 1 {
				t.Fatalf("a receive with no sender parked %d times, want 1", parks)
			}
			f.Abort()
			select {
			case v := <-ended:
				if err, ok := v.(error); !ok || !errors.Is(err, abort.ErrWorldAborted) {
					t.Fatalf("the wait ended with %v, want a panic with abort.ErrWorldAborted", v)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("abort did not end the parked wait")
			}
			if m.Metrics().Parks != 1 {
				t.Errorf("the aborted wait parked again: %d parks, want 1", m.Metrics().Parks)
			}
		})
	}
}

// TestEventsEqualsEventSeq pins the Events statistic now that nothing
// writes it: per interface it is exactly deposits plus wakes — those
// aimed at the interface, and the endpoint-wide ones (Wake, an active
// message) on every interface. The aggregate sequence counts the same
// events once each, except shm deposits: the draining device wakes the
// aggregate once per drain instead (Notify). Each interface's Msgs and
// Bytes are what its arrival paths (netmod, shm, self) noted.
func TestEventsEqualsEventSeq(t *testing.T) {
	f := newVCIFabric(t, 2, 3)
	src, dst := f.Endpoint(0), f.Endpoint(1)
	dst.RegisterAM(9, func(int, []byte, []byte, vtime.Time) {})
	agg0 := dst.EventSeqVCI(AnyVCI)
	deposits, wakes := [3]int{5, 0, 11}, [3]int{2, 7, 0}
	for v := range deposits {
		for i := 0; i < deposits[v]; i++ {
			src.TaggedSendVCI(1, match.MakeBits(1, 0, i), []byte{1}, v, nil)
		}
		for i := 0; i < wakes[v]; i++ {
			dst.WakeVCI(v)
		}
	}
	dst.DepositShmVCI(match.MakeBits(1, 0, 99), 0, []byte{1, 2, 3}, 0, 1, nil)
	dst.DepositShmVCI(match.MakeBits(1, 0, 98), 0, []byte{1, 2, 3}, 0, 1, nil)
	deposits[1] += 2
	// Every netmod message above is one byte, every shm message three.
	bytes := [3]int64{int64(deposits[0]), int64(deposits[1]-2) + 2*3, int64(deposits[2])}
	const everywhere = 3 // one endpoint-wide wake, two active messages
	dst.wake()
	src.AMSend(1, 9, nil, nil)
	src.AMSend(1, 9, nil, nil)
	dst.Progress()
	// 16 netmod deposits, 9 VCI wakes, the wake, the two active messages.
	if got, want := dst.EventSeqVCI(AnyVCI)-agg0, uint64(16+9+everywhere); got != want {
		t.Errorf("aggregate sequence moved %d, want %d: the two shm deposits must not move it", got, want)
	}
	dst.Notify() // the drain that delivered them
	if got, want := dst.EventSeqVCI(AnyVCI)-agg0, uint64(16+9+everywhere+1); got != want {
		t.Errorf("aggregate sequence moved %d after the drain's Notify, want %d", got, want)
	}

	snap := dst.SnapshotStats()
	for v := range deposits {
		want := int64(deposits[v] + wakes[v] + everywhere)
		if got := snap.VCIs[v].Events; got != want || uint64(got) != dst.EventSeqVCI(v) {
			t.Errorf("VCI %d: Events %d, EventSeqVCI %d, want %d (%d deposits + %d wakes + %d endpoint-wide)",
				v, got, dst.EventSeqVCI(v), want, deposits[v], wakes[v], everywhere)
		}
		// A lane's traffic is what its arrival paths noted.
		a := &dst.vcis[v].arr
		paths := a.NetRecv.Msgs + a.ShmRecv.Msgs + a.Self.Msgs
		pathBytes := a.NetRecv.Bytes + a.ShmRecv.Bytes + a.Self.Bytes
		if got := snap.VCIs[v]; got.Msgs != int64(deposits[v]) || got.Bytes != bytes[v] ||
			got.Msgs != paths || got.Bytes != pathBytes {
			t.Errorf("VCI %d: Msgs %d, Bytes %d, want %d and %d (arrival paths: %d and %d)",
				v, got.Msgs, got.Bytes, deposits[v], bytes[v], paths, pathBytes)
		}
	}
	var msgs, bytesAll int64
	for _, l := range snap.VCIs {
		msgs, bytesAll = msgs+l.Msgs, bytesAll+l.Bytes
	}
	if all := snap.NetRecv.Msgs + snap.ShmRecv.Msgs + snap.Self.Msgs; msgs != all ||
		bytesAll != snap.NetRecv.Bytes+snap.ShmRecv.Bytes+snap.Self.Bytes {
		t.Errorf("lanes carry %d messages, %d bytes; the arrival paths %d messages, %d bytes",
			msgs, bytesAll, all, snap.NetRecv.Bytes+snap.ShmRecv.Bytes+snap.Self.Bytes)
	}
}

// BenchmarkWakeVCI is one wake of an interface nobody sleeps on (idle:
// the gate keeps it to two atomics) and of one with an announced waiter
// (parked: lock, broadcast, and the waiter goes round its loop).
func BenchmarkWakeVCI(b *testing.B) {
	setup := func() (*Endpoint, *Endpoint) {
		f := NewVCI(INF, 2, 1)
		for i := 0; i < 2; i++ {
			f.Endpoint(i).Bind(testRank(1e9))
		}
		return f.Endpoint(0), f.Endpoint(1)
	}
	b.Run("idle", func(b *testing.B) {
		_, dst := setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst.WakeVCI(0)
		}
	})
	b.Run("parked", func(b *testing.B) {
		src, dst := setup()
		op := &RecvOp{Buf: make([]byte, 1)}
		bits := match.MakeBits(1, 0, 1)
		dst.PostRecvVCI(op, bits, match.FullMask, 0)
		done := make(chan struct{})
		go func() {
			defer close(done)
			waitRecv(dst, op) // woken by every WakeVCI, released by the send below
		}()
		for dst.vcis[0].ev.waiters.Load() == 0 {
			runtime.Gosched()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst.WakeVCI(0)
		}
		b.StopTimer()
		src.TaggedSendVCI(1, bits, []byte{1}, 0, nil)
		<-done
	})
}
