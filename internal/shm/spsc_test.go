package shm

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"gompi/internal/match"
	"gompi/internal/vtime"
)

// Tests for the ring as a lock-free SPSC queue: one producer goroutine,
// one consumer goroutine, no mutex between them, and a producer that
// finds the ring full waits in its rank's bound Wait. None asserts a
// wall-clock time.

// tinyCfg is a ring small enough that every size class below crosses
// it: one cell holds 64 bytes and the whole ring two cells.
var tinyCfg = Config{CellSize: 64, RingCells: 2}

// spscSizes are the message shapes of the stream: empty, sub-cell,
// three cells (more than the ring holds, so the producer parks
// mid-message), and several rings' worth.
var spscSizes = [...]int{0, 8, 3 * 64, 7*64 + 5}

// stamped fills buf so that every byte depends on the message number.
func stamped(buf []byte, i int) []byte {
	for k := range buf {
		buf[k] = byte(i + 31*k)
	}
	return buf
}

// TestSPSCStream drives 1e5 stamped messages of mixed sizes through a
// two-cell ring, the producer on its own goroutine and the consumer on
// the test's, and checks order and contents of every one. A lost wakeup
// in the full-ring handshake is a hang here.
func TestSPSCStream(t *testing.T) {
	const msgs = 100_000
	got := 0
	want := make([]byte, spscSizes[len(spscSizes)-1])
	d := NewDomainCfg(DefaultProfile, tinyCfg, 2,
		func(_ int, bits match.Bits, src int, data []byte, _ vtime.Time, _ int) {
			size := spscSizes[got%len(spscSizes)]
			if src != 0 || bits.Tag() != got || !bytes.Equal(data, stamped(want[:size], got)) {
				t.Fatalf("delivery %d: tag %d, %d bytes from %d; want message %d of %d bytes, stamped",
					got, bits.Tag(), len(data), src, got, size)
			}
			got++
		}, nil)
	d.Bind(0, testRank())
	d.Bind(1, testRank())
	bindSpin(d, 2)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, len(want))
		for i := 0; i < msgs; i++ {
			d.Send(0, 1, match.MakeBits(1, 0, i), stamped(buf[:spscSizes[i%len(spscSizes)]], i))
		}
	}()
	for got < msgs {
		if d.Progress(1) == 0 {
			runtime.Gosched()
		}
	}
	wg.Wait()
	if n := d.Progress(1); n != 0 || d.PendingFrom(0, 1) {
		t.Fatalf("%d deliveries beyond the %d sent, pending %v", n, msgs, d.PendingFrom(0, 1))
	}
}

// parkedOnFull reports that r's producer is in (or entering) the
// full-ring wait: the ring is full and the flag is up. A stale flag
// cannot pass, because the producer fills a drained ring only after the
// wait that raised the flag is over.
func parkedOnFull(r *ring) bool {
	return r.waiting.Load() && r.tail.Load()-r.head.Load() == uint64(len(r.cells))
}

// TestSteadyStateTakesNoMutex holds the ring to its protocol by count.
// The ring has no mutex; its one slow path is the full-ring wait. A ring
// that never fills moves 10 000 messages without its producer ever
// waiting (and so without raising the flag that makes the consumer
// wake it); a ring that does fill waits once per park.
func TestSteadyStateTakesNoMutex(t *testing.T) {
	d := boundDomain(Config{}, 2)
	waits := bindSpin(d, 2)
	for i := 0; i < 10_000; i++ {
		d.Send(0, 1, match.MakeBits(1, 0, i), []byte{1, 2, 3})
		if i%8 == 7 {
			d.Progress(1)
		}
	}
	r := d.ring(0, 1)
	if n := waits.Load(); n != 0 || r.waiting.Load() {
		t.Errorf("producer waited %d times (waiting %v) in 10000 messages that never filled the ring", n, r.waiting.Load())
	}

	// Messages one cell longer than the ring, each drained only once its
	// producer waits on the full ring: the cell left over always fits, so
	// every message waits exactly once.
	const parks = 5
	d = boundDomain(tinyCfg, 2)
	waits = bindSpin(d, 2)
	r = d.ring(0, 1)
	for i := 0; i < parks; i++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			d.Send(0, 1, match.MakeBits(1, 0, i), make([]byte, 3*64))
		}()
		for !parkedOnFull(r) {
			runtime.Gosched()
		}
		for d.Progress(1) == 0 {
			runtime.Gosched()
		}
		<-done
	}
	if n := waits.Load(); n != parks {
		t.Errorf("producer waited %d times, want %d (one per park)", n, parks)
	}
}

// TestWakePerMessage pins the wake counts. The receiver is woken once
// per message however many cells it spans, plus once each time the
// producer finds the ring full midway through a message (the receiver
// must be told to drain what no wake has announced yet), and not for
// finding it full of earlier messages, which have all announced
// themselves. The producer is woken once per full-ring wait, by the
// first cell the drain retires, not per cell. Its wait is a stand-in
// for the device's event loop: it re-checks ready only when woken.
func TestWakePerMessage(t *testing.T) {
	var wakes, producerWakes atomic.Int64
	newDomain := func(cfg Config) *Domain {
		d := NewDomainCfg(DefaultProfile, cfg, 2, nopDeliver, func(dst, vci int) {
			if vci != 3 {
				t.Errorf("wake(%d, %d), want vci 3", dst, vci)
			}
			if dst == 1 {
				wakes.Add(1)
			} else {
				producerWakes.Add(1)
			}
		})
		d.Bind(0, testRank())
		d.Bind(1, testRank())
		d.BindWait(0, func(ready func() bool) {
			for {
				seq := producerWakes.Load()
				if ready() {
					return
				}
				for producerWakes.Load() == seq {
					runtime.Gosched()
				}
			}
		})
		return d
	}

	d := newDomain(Config{CellSize: 64})
	d.SendStagedVCI(0, 1, match.MakeBits(1, 0, 0), make([]byte, 3*64), 3)
	if n := wakes.Swap(0); n != 1 {
		t.Errorf("a 3-cell message woke the receiver %d times, want 1", n)
	}

	d = newDomain(tinyCfg)
	r := d.ring(0, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.SendStagedVCI(0, 1, match.MakeBits(1, 0, 0), make([]byte, 3*64), 3)
	}()
	for !parkedOnFull(r) {
		runtime.Gosched()
	}
	if n := wakes.Load(); n != 1 {
		t.Errorf("%d wake(s) before the producer waited on a full ring, want 1", n)
	}
	for d.Progress(1) == 0 {
		runtime.Gosched()
	}
	<-done
	if n := wakes.Swap(0); n != 2 {
		t.Errorf("a 3-cell message through a 2-cell ring woke the receiver %d times, want 2", n)
	}
	if n := producerWakes.Swap(0); n != 1 {
		t.Errorf("one full-ring wait woke the producer %d times, want 1", n)
	}

	done = make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			d.SendStagedVCI(0, 1, match.MakeBits(1, 0, i), nil, 3)
		}
	}()
	for !parkedOnFull(r) {
		runtime.Gosched()
	}
	if n := wakes.Load(); n != 2 {
		t.Errorf("%d wake(s) with two messages queued and a third waiting on its first cell, want 2", n)
	}
	for d.Progress(1) == 0 {
		runtime.Gosched()
	}
	<-done
	if n := wakes.Load(); n != 3 {
		t.Errorf("three 1-cell messages through a 2-cell ring woke the receiver %d times, want 3", n)
	}
	if n := producerWakes.Load(); n != 1 {
		t.Errorf("one full-ring wait woke the producer %d times, want 1", n)
	}
}

// TestSharedSiblingsOneRing is the case prodMu and drainMu exist for:
// four sending goroutines of one rank and two draining goroutines of
// another (ThreadMultiple siblings) on one ring. Messages must arrive whole, and in order per sender.
func TestSharedSiblingsOneRing(t *testing.T) {
	const senders, per = 4, 2000
	next := make([]int, senders) // plain: drainMu serializes the deliver callback
	var got atomic.Int64
	want := make([]byte, spscSizes[len(spscSizes)-1])
	d := NewDomainCfg(DefaultProfile, tinyCfg, 2,
		func(_ int, bits match.Bits, _ int, data []byte, _ vtime.Time, _ int) {
			g, i := bits.Tag()>>16, bits.Tag()&0xffff
			if i != next[g] || !bytes.Equal(data, stamped(want[:spscSizes[i%len(spscSizes)]], i+g)) {
				t.Errorf("sender %d: got message %d (%d bytes), want %d, stamped", g, i, len(data), next[g])
			}
			next[g]++
			got.Add(1)
		}, nil)
	d.Bind(0, sharedRank())
	d.Bind(1, sharedRank())
	bindSpin(d, 2)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, len(want))
			for i := 0; i < per; i++ {
				d.Send(0, 1, match.MakeBits(1, 0, g<<16|i), stamped(buf[:spscSizes[i%len(spscSizes)]], i+g))
			}
		}(g)
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for got.Load() < senders*per {
				if d.Progress(1) == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
}

// TestSharedSiblingsFirstSlab races ThreadMultiple sibling producers'
// first long fragments into fresh rings: whichever takes prodMu first
// creates the ring's payload slab, the others write into it, and the
// consumer reads every long fragment from it. Under -race this holds
// the slab's creation to the producer lock and its publication to the
// cell handshake. Every message must arrive whole, and the ring must
// end with one slab of the ring's geometry.
func TestSharedSiblingsFirstSlab(t *testing.T) {
	const senders, rounds = 4, 50
	cfg := Config{CellSize: 128, RingCells: 4}
	want := make([]byte, inlineBytes+1+senders*cfg.CellSize)
	for round := 0; round < rounds; round++ {
		var got atomic.Int64
		d := NewDomainCfg(DefaultProfile, cfg, 2,
			func(_ int, bits match.Bits, _ int, data []byte, _ vtime.Time, _ int) {
				g := bits.Tag()
				if !bytes.Equal(data, stamped(want[:inlineBytes+1+g*cfg.CellSize], g)) {
					t.Errorf("round %d, sender %d: %d bytes, not as sent", round, g, len(data))
				}
				got.Add(1)
			}, nil)
		d.Bind(0, sharedRank())
		d.Bind(1, sharedRank())
		bindSpin(d, 2)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Sender g's first fragment is long: one cell over, or
				// the one-cell message of inlineBytes+1.
				buf := stamped(make([]byte, inlineBytes+1+g*cfg.CellSize), g)
				<-start
				d.Send(0, 1, match.MakeBits(1, 0, g), buf)
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for got.Load() < senders {
				if d.Progress(1) == 0 {
					runtime.Gosched()
				}
			}
		}()
		close(start)
		wg.Wait()
		if r := d.ring(0, 1); len(r.slab) != cfg.RingCells*cfg.CellSize {
			t.Fatalf("round %d: slab of %d bytes, want %d", round, len(r.slab), cfg.RingCells*cfg.CellSize)
		}
	}
}

// TestWaitGraphMidMessage pins what the dump prints for a ring stopped
// mid-message — cells still queued, bytes already reassembled — and
// that PendingFrom agrees, from atomics alone.
func TestWaitGraphMidMessage(t *testing.T) {
	d := boundDomain(Config{CellSize: 64, RingCells: 4}, 2)
	d.Send(0, 1, match.MakeBits(1, 0, 0), make([]byte, 3*64))
	r := d.ring(0, 1)
	// Hide the third cell from the consumer for one drain.
	r.tail.Store(2)
	if n := d.Progress(1); n != 0 {
		t.Fatalf("two of three cells delivered %d message(s)", n)
	}
	r.tail.Store(3)
	var sb strings.Builder
	d.WriteWaitGraph(&sb)
	if want := "shm ring 0->1: 1 queued cell(s), 128 byte(s) mid-reassembly\n"; sb.String() != want {
		t.Errorf("wait graph:\n%swant:\n%s", sb.String(), want)
	}
	if n := d.Progress(1); n != 1 || d.PendingFrom(0, 1) {
		t.Errorf("finishing drain delivered %d, pending %v; want 1, false", n, d.PendingFrom(0, 1))
	}
	sb.Reset()
	if d.WriteWaitGraph(&sb); sb.Len() != 0 {
		t.Errorf("wait graph of a drained ring:\n%s", sb.String())
	}
}

// TestRingLayout pins the property the field order is for: head, which
// the consumer writes per cell, lies a cache line or more past every
// word the producer writes, so they share no line wherever the
// allocator puts the ring.
func TestRingLayout(t *testing.T) {
	var r ring
	const line = 64
	for name, off := range map[string]uintptr{
		"tail": unsafe.Offsetof(r.tail), "waiting": unsafe.Offsetof(r.waiting), "lentBytes": unsafe.Offsetof(r.lentBytes),
		"hFree": unsafe.Offsetof(r.hFree), "slab": unsafe.Offsetof(r.slab), "prodMu": unsafe.Offsetof(r.prodMu),
	} {
		if head := unsafe.Offsetof(r.head); head < off+line {
			t.Errorf("head at byte %d, %s at byte %d: less than a %d-byte line apart", head, name, off, line)
		}
	}
}

// BenchmarkCell is one staged 8 B message through a ring: Send, then the
// receiver's Progress.
func BenchmarkCell(b *testing.B) {
	d := boundDomain(Config{}, 2)
	bits := match.MakeBits(1, 0, 5)
	payload := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Send(0, 1, bits, payload)
		d.Progress(1)
	}
}
