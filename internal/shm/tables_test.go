package shm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gompi/internal/instr"
	"gompi/internal/match"
	"gompi/internal/vtime"
)

// Tests for the lock-free ring tables: feeder lists and sender-owned
// tables published at ring creation. None asserts a wall-clock time.

// scaleCfg is the small-ring geometry the scale workloads use.
var scaleCfg = Config{CellSize: 256, RingCells: 8}

var le = binary.LittleEndian

func nopDeliver(int, match.Bits, int, []byte, vtime.Time, int) {}

// boundDomain is a domain of n ranks with every meter bound and
// deliveries discarded.
func boundDomain(cfg Config, n int) *Domain {
	d := NewDomainCfg(DefaultProfile, cfg, n, nopDeliver, nil)
	for i := 0; i < n; i++ {
		d.Bind(i, testRank())
	}
	bindSpin(d, n)
	return d
}

// TestFeederPublishedWhilePolling has one consumer spin Progress(0)
// while K producers with distinct sources first-touch their ring to 0
// at staggered points of the run. The consumer polls before any feeder
// exists (an empty list, not "unknown"), and every later producer's
// ring appears after the consumer has already read — and drained
// through — an earlier, shorter feeder list. Every message must arrive
// exactly once and in order per pair.
func TestFeederPublishedWhilePolling(t *testing.T) {
	const K, M = 6, 300
	d, boxes, _ := newTestDomain(K + 1)
	var delivered atomic.Int64 // read by producers to stagger their first touch
	inner := d.deliver
	d.deliver = func(dst int, bits match.Bits, src int, data []byte, arrival vtime.Time, vci int) {
		inner(dst, bits, src, data, arrival, vci)
		delivered.Add(1)
	}

	if n := d.Progress(0); n != 0 {
		t.Fatalf("poll before any feeder existed delivered %d", n)
	}
	var wg sync.WaitGroup
	for k := 1; k <= K; k++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			// Producer k waits until half of producer k-1's stream is
			// through: its ring is published mid-run, into a list the
			// consumer is already walking.
			for delivered.Load() < int64((src-1)*M/2) {
				runtime.Gosched()
			}
			var stamp [8]byte
			for i := 0; i < M; i++ {
				le.PutUint64(stamp[:], uint64(src)<<32|uint64(i))
				d.Send(src, 0, match.MakeBits(1, src, i), stamp[:])
			}
		}(k)
	}
	for delivered.Load() < K*M {
		d.Progress(0)
		runtime.Gosched()
	}
	wg.Wait()
	if n := d.Progress(0); n != 0 {
		t.Fatalf("%d deliveries beyond the %d sent", n, K*M)
	}

	got := *boxes[0]
	if len(got) != K*M {
		t.Fatalf("delivered %d messages, want %d", len(got), K*M)
	}
	next := make([]int, K+1)
	for _, dl := range got {
		want := uint64(dl.src)<<32 | uint64(next[dl.src])
		if dl.bits.Tag() != next[dl.src] || le.Uint64(dl.data) != want {
			t.Fatalf("pair (%d,0): got tag %d stamp %#x, want message %d", dl.src, dl.bits.Tag(), le.Uint64(dl.data), next[dl.src])
		}
		next[dl.src]++
	}
	for src := 1; src <= K; src++ {
		if next[src] != M {
			t.Errorf("pair (%d,0): %d messages, want %d", src, next[src], M)
		}
	}
}

// TestDrainOrderSortedBySource pins that one Progress call delivers in
// ascending source order whatever order the rings were created in.
func TestDrainOrderSortedBySource(t *testing.T) {
	d, boxes, _ := newTestDomain(8)
	for _, src := range []int{5, 2, 7, 1, 6, 3} {
		d.Send(src, 0, match.MakeBits(1, src, 0), []byte{byte(src)})
	}
	if n := d.Progress(0); n != 6 {
		t.Fatalf("delivered %d, want 6", n)
	}
	var order []int
	for _, dl := range *boxes[0] {
		order = append(order, dl.src)
	}
	if want := []int{1, 2, 3, 5, 6, 7}; !slices.Equal(order, want) {
		t.Errorf("drain order %v, want %v", order, want)
	}
}

// TestLockTouchCount holds the steady state to zero acquisitions of
// the domain lock by count: after S ≫ pairs sends, S polls and a pass
// over every diagnosis path, the creation lock has been taken exactly
// once per distinct pair.
func TestLockTouchCount(t *testing.T) {
	const n, rounds = 8, 50
	d := boundDomain(scaleCfg, n)
	pairs := 0
	for round := 0; round < rounds; round++ {
		for src := 0; src < n; src++ {
			for _, dst := range []int{(src + 1) % n, (src + 3) % n} {
				d.Send(src, dst, match.MakeBits(1, src, round), []byte{1})
				d.Progress(dst)
				if round == 0 {
					pairs++
				}
			}
		}
	}
	d.Preconnect(0, 1) // an existing pair: found, not created
	d.PendingFrom(0, 1)
	d.PendingFrom(1, 0) // no such ring
	d.WriteWaitGraph(&strings.Builder{})
	if d.lockTouches != int64(pairs) {
		t.Errorf("domain lock taken %d times for %d pairs over %d sends and polls",
			d.lockTouches, pairs, rounds*pairs)
	}
}

// TestSteadyStateAllocs pins the allocation-free steady state: a
// staged send and its drain, from an inline cell (8 B) and from the
// slab (4 KiB, once the slab exists), and the idle poll of a rank
// nothing feeds in a 1024-rank domain whose other ranks are connected.
func TestSteadyStateAllocs(t *testing.T) {
	d := boundDomain(Config{}, 2)
	bits := match.MakeBits(1, 0, 5)
	for _, size := range []int{8, 4096} {
		payload := make([]byte, size)
		cycle := func() {
			d.Send(0, 1, bits, payload)
			d.Progress(1)
		}
		cycle()
		if a := testing.AllocsPerRun(100, cycle); a != 0 {
			t.Errorf("%d B Send+Progress allocates %.1f objects/op, want 0", size, a)
		}
	}

	big := boundDomain(scaleCfg, 1024)
	for src := 1; src+1 < 1024; src++ {
		big.Preconnect(src, src+1)
	}
	if a := testing.AllocsPerRun(100, func() { big.Progress(0) }); a != 0 {
		t.Errorf("Progress of an unfed rank allocates %.1f objects/op, want 0", a)
	}
}

// TestFirstTouchAllocs pins a pair's first touch at four heap objects:
// the ring, its cells, and the two republished tables' shared array and
// headers. The payload slab waits for the ring's first long fragment,
// whose slots each end where the next begins.
func TestFirstTouchAllocs(t *testing.T) {
	const runs = 100
	d := boundDomain(scaleCfg, runs+2)
	src := 0
	a := testing.AllocsPerRun(runs, func() {
		d.Preconnect(src, src+1)
		src++
	})
	if a > 4 {
		t.Errorf("first touch allocates %.1f objects, want <= 4", a)
	}
	r := d.ring(0, 1)
	if r.slab != nil {
		t.Fatal("first touch allocated the payload slab")
	}
	d.Send(0, 1, match.MakeBits(1, 0, 0), make([]byte, inlineBytes+1))
	for i := range r.cells {
		c := r.payload(uint64(i), 256, 256)
		if len(c) != 256 || cap(c) != 256 || &c[0] != &r.slab[i*256] {
			t.Fatalf("cell %d: slot at %p len %d cap %d, want slab[%d:] 256/256 (a cell must not reach into its neighbour)",
				i, &c[0], len(c), cap(c), i*256)
		}
	}
}

// TestRingHostBytes pins what a ring costs the host's heap, apart from
// what the model charges for it. In the scale geometry a first touch
// allocates at most 1.3 KB (the ring, its cells with their inline
// bytes, the two tables), the ring's first long fragment adds exactly
// its ringCells×cellSize slab, and no later fragment adds anything;
// the modelled footprint is the full ring whatever the host holds.
func TestRingHostBytes(t *testing.T) {
	const runs = 100
	d := boundDomain(scaleCfg, runs+2)
	if got := d.RingStateBytes(); got != 2752 {
		t.Errorf("RingStateBytes = %d, want 2752 (8 cells x (256 + 64 B header) + 192 B)", got)
	}
	heap := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	touch := heap(func() {
		for src := 0; src < runs; src++ {
			d.Preconnect(src, src+1)
		}
	})
	if per := touch / runs; per > 1300 {
		t.Errorf("first touch allocates %d B of heap, want <= 1300", per)
	}

	small, long := make([]byte, inlineBytes), make([]byte, inlineBytes+1)
	bits := match.MakeBits(1, 0, 0)
	cycle := func(data []byte) func() {
		return func() {
			d.Send(0, 1, bits, data)
			d.Progress(1)
		}
	}
	cycle(small)() // warm the send and drain paths on inline cells
	if b := heap(cycle(long)); b != 8*256 {
		t.Errorf("the ring's first long fragment allocates %d B, want its %d B slab", b, 8*256)
	}
	if b := heap(cycle(long)); b != 0 {
		t.Errorf("a later long fragment allocates %d B, want 0", b)
	}
	if r := d.ring(0, 1); len(r.slab) != 8*256 {
		t.Errorf("slab of %d bytes, want %d", len(r.slab), 8*256)
	}
}

// TestPreconnectDifferential sends one seeded message stream through
// two fresh domains — rings created up front by Preconnect, and rings
// created on demand mid-stream — and requires identical deliveries
// (bytes and per-pair order), charged cycles and peer-state totals.
func TestPreconnectDifferential(t *testing.T) {
	const n, msgs = 6, 400
	type sent struct {
		src, dst int
		data     []byte
	}
	rng := rand.New(rand.NewSource(19))
	stream := make([]sent, msgs)
	for i := range stream {
		src := rng.Intn(n)
		dst := (src + 1 + rng.Intn(n-1)) % n
		data := make([]byte, rng.Intn(3*CellSize))
		rng.Read(data)
		stream[i] = sent{src, dst, data}
	}

	type outcome struct {
		perPair map[[2]int][][]byte
		// per rank: transport cycles, clock, peers touched, state bytes
		ledger [][4]int64
	}
	run := func(preconnect bool) outcome {
		d, boxes, meters := newTestDomain(n)
		if preconnect {
			for _, m := range stream {
				d.Preconnect(m.src, m.dst)
			}
		}
		for i, m := range stream {
			d.Send(m.src, m.dst, match.MakeBits(1, m.src, i), m.data)
			d.Progress(m.dst)
		}
		o := outcome{perPair: map[[2]int][][]byte{}}
		for dst, box := range boxes {
			for _, dl := range *box {
				k := [2]int{dl.src, dst}
				o.perPair[k] = append(o.perPair[k], dl.data)
			}
		}
		for _, m := range meters {
			o.ledger = append(o.ledger, [4]int64{m.Profile().Count(instr.Transport), int64(m.Now()),
				atomic.LoadInt64(&m.Metrics().Peers.Touched), atomic.LoadInt64(&m.Metrics().Peers.StateBytes)})
		}
		return o
	}
	pre, lazy := run(true), run(false)

	if len(pre.perPair) != len(lazy.perPair) {
		t.Fatalf("pairs delivered to: %d preconnected, %d on demand", len(pre.perPair), len(lazy.perPair))
	}
	total := 0
	for k, want := range pre.perPair {
		got := lazy.perPair[k]
		if len(got) != len(want) {
			t.Fatalf("pair %v: %d vs %d deliveries", k, len(want), len(got))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("pair %v message %d differs between arms", k, i)
			}
		}
		total += len(want)
	}
	if total != msgs {
		t.Errorf("delivered %d of %d messages", total, msgs)
	}
	for r := range pre.ledger {
		if pre.ledger[r] != lazy.ledger[r] {
			t.Errorf("rank %d cycles/clock/peers/state bytes: %v preconnected, %v on demand",
				r, pre.ledger[r], lazy.ledger[r])
		}
	}
}

// TestWaitGraphSortedBySrcDst pins the dump order the tables give for
// free: rings appear by source, then destination, whatever order they
// were created in.
func TestWaitGraphSortedBySrcDst(t *testing.T) {
	d := boundDomain(scaleCfg, 4)
	for _, p := range [][2]int{{2, 1}, {0, 3}, {2, 0}, {0, 1}, {1, 0}} {
		d.Send(p[0], p[1], match.MakeBits(1, p[0], 0), []byte{1})
	}
	var sb strings.Builder
	d.WriteWaitGraph(&sb)
	want := "" +
		"shm ring 0->1: 1 queued cell(s), 0 byte(s) mid-reassembly\n" +
		"shm ring 0->3: 1 queued cell(s), 0 byte(s) mid-reassembly\n" +
		"shm ring 1->0: 1 queued cell(s), 0 byte(s) mid-reassembly\n" +
		"shm ring 2->0: 1 queued cell(s), 0 byte(s) mid-reassembly\n" +
		"shm ring 2->1: 1 queued cell(s), 0 byte(s) mid-reassembly\n"
	if sb.String() != want {
		t.Errorf("wait graph:\n%swant:\n%s", sb.String(), want)
	}
}

func BenchmarkProgressIdle(b *testing.B) {
	for _, n := range []int{16, 1024} {
		b.Run("n"+strconv.Itoa(n), func(b *testing.B) {
			d := boundDomain(Config{}, n)
			for src := 1; src+1 < n; src++ {
				d.Preconnect(src, src+1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if d.Progress(0) != 0 {
					b.Fatal("idle rank was delivered a message")
				}
			}
		})
	}
}

// BenchmarkFirstTouch is one pair's ring creation in the scale
// geometry, each into tables that hold nothing yet (a fresh domain
// every n-1 touches, built off the clock).
func BenchmarkFirstTouch(b *testing.B) {
	const n = 1024
	var d *Domain
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src := i % (n - 1)
		if src == 0 {
			b.StopTimer()
			d = boundDomain(scaleCfg, n)
			b.StartTimer()
		}
		d.Preconnect(src, src+1)
	}
}
