package flight

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// record appends events numbered [from, to): event i has T = i.
func record(r *Ring, from, to int) {
	for i := from; i < to; i++ {
		r.Record(Kind(i%int(numKinds)), int64(i), i%7, i, i%3)
	}
}

// seqs checks evs is the contiguous run ending at event last, in order,
// each carrying what record gave it, and returns its first Seq.
func seqs(t *testing.T, evs []Event, last int) int {
	t.Helper()
	first := last + 1 - len(evs)
	for i, e := range evs {
		n := first + i
		want := Event{Seq: uint64(n), T: int64(n), Kind: Kind(n % int(numKinds)), VCI: int16(n % 3), Peer: int32(n % 7), Bytes: int32(n)}
		if e != want {
			t.Fatalf("event %d of %d = %+v, want %+v", i, len(evs), e, want)
		}
	}
	return first
}

// TestTailFlush: an owner's events become visible at Flush (what a park
// and a rank's exit call) and at every flushEvery-th event, not before.
func TestTailFlush(t *testing.T) {
	var r Ring
	record(&r, 0, 5)
	if evs, total := r.Events(); total != 0 || len(evs) != 0 {
		t.Fatalf("unflushed tail visible: %d events, total %d", len(evs), total)
	}
	r.Flush() // a park
	evs, total := r.Events()
	if total != 5 || len(evs) != 5 || seqs(t, evs, 4) != 0 {
		t.Fatalf("after Flush: %d events, total %d, want 5 and 5", len(evs), total)
	}
	record(&r, 5, flushEvery-1)
	if _, total := r.Events(); total != 5 {
		t.Fatalf("total %d before the %d-th event, want 5", total, flushEvery)
	}
	record(&r, flushEvery-1, flushEvery) // the K-th event flushes
	if evs, total := r.Events(); total != flushEvery || seqs(t, evs, flushEvery-1) != 0 {
		t.Fatalf("after event %d: total %d, want %d", flushEvery, total, flushEvery)
	}
	record(&r, flushEvery, flushEvery+3)
	r.Flush() // rank exit
	if evs, total := r.Events(); total != flushEvery+3 || seqs(t, evs, flushEvery+2) != 0 {
		t.Fatalf("after the exit flush: total %d, want %d", total, flushEvery+3)
	}
}

// TestWrapOrder: once the ring has wrapped, a dump holds exactly the
// Size most recent published events, oldest first, and never one of the
// slots the owner may be overwriting.
func TestWrapOrder(t *testing.T) {
	var r Ring
	for _, n := range []int{Size, slots, slots + 1, 3*slots + 17, 10 * slots} {
		record(&r, int(r.next), n)
		r.Flush()
		evs, total := r.Events()
		if total != uint64(n) || len(evs) != Size {
			t.Fatalf("after %d events: %d retained, total %d, want %d and %d", n, len(evs), total, Size, n)
		}
		if first := seqs(t, evs, n-1); first != n-Size {
			t.Fatalf("after %d events the dump starts at #%d, want #%d", n, first, n-Size)
		}
	}
	// Unflushed stores past the published count must not leak in.
	record(&r, int(r.next), int(r.next)+flushEvery-1)
	evs, total := r.Events()
	seqs(t, evs, int(total)-1)
}

func TestDumpText(t *testing.T) {
	var r Ring
	r.Record(SendEager, 100, 1, 8, 0)
	r.Record(Park, 250, -1, 0, -1)
	r.Record(RmaFlush, 300, 2, 0, -1)
	var unflushed, out bytes.Buffer
	r.Dump(&unflushed, "rank 3")
	if got, want := unflushed.String(), "rank 3 flight recorder: 0 event(s) recorded, last 0:\n"; got != want {
		t.Fatalf("dump before the first flush:\n%s\nwant:\n%s", got, want)
	}
	r.Flush()
	r.Dump(&out, "rank 3")
	want := "rank 3 flight recorder: 3 event(s) recorded, last 3:\n" +
		"rank 3   #0 @100 send-eager peer=1 bytes=8 vci=0\n" +
		"rank 3   #1 @250 park peer=-1 bytes=0 vci=-1\n" +
		"rank 3   #2 @300 rma-flush peer=2 bytes=0 vci=-1\n"
	if out.String() != want {
		t.Fatalf("dump:\n%s\nwant:\n%s", out.String(), want)
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Fatalf("unknown kind prints %q", got)
	}
}

// TestLane: a lane keeps its last LaneSize events in order, each
// stamped with the ring position its owner last noted; it is always
// read under the lock it is written under, so nothing is held back.
func TestLane(t *testing.T) {
	var l Lane
	for i := 0; i < 3*LaneSize+5; i++ {
		if i%5 == 0 {
			l.After = uint64(10 * i) // the owner posts a receive, or parks
		}
		l.Record(Kind(i%int(numKinds)), int64(i), i%7, i, i%3)
		evs := l.Events()
		if want := min(i+1, LaneSize); len(evs) != want {
			t.Fatalf("after %d events the lane holds %d, want %d", i+1, len(evs), want)
		}
		for j := range evs {
			if want := 10 * (evs[j].Seq - evs[j].Seq%5); evs[j].After != want {
				t.Fatalf("arrival #%d stamped after %d ring events, want %d", evs[j].Seq, evs[j].After, want)
			}
			evs[j].After = 0
		}
		seqs(t, evs, i)
	}
}

// TestPos: the position a lane is stamped with counts every event the
// owner recorded, published or not, in both modes.
func TestPos(t *testing.T) {
	for _, shared := range []bool{false, true} {
		var r Ring
		if shared {
			r.Share()
		}
		record(&r, 0, flushEvery+3)
		if got := r.Pos(); got != flushEvery+3 {
			t.Errorf("shared %v: Pos %d after %d events", shared, got, flushEvery+3)
		}
	}
}

// TestSharedWriters: a shared ring takes 8 concurrent writers (run under
// -race) with a reader dumping meanwhile; every event is counted and
// the retained window is a contiguous run of sequence numbers.
func TestSharedWriters(t *testing.T) {
	const writers, per = 8, 2000
	var r Ring
	r.Share()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(AMSend, int64(i), w, i, w)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		contiguous(t, &r)
	}
	wg.Wait()
	if total := contiguous(t, &r); total != writers*per {
		t.Fatalf("total %d, want %d", total, writers*per)
	}
}

func contiguous(t *testing.T, r *Ring) uint64 {
	t.Helper()
	evs, total := r.Events()
	for i, e := range evs {
		if want := total - uint64(len(evs)) + uint64(i); e.Seq != want {
			t.Fatalf("retained event %d has seq %d, want %d (total %d)", i, e.Seq, want, total)
		}
	}
	return total
}

// TestOwnerWithForeignReader is the single-writer contract under -race:
// the owner records without a lock while another goroutine dumps.
func TestOwnerWithForeignReader(t *testing.T) {
	var r Ring
	done := make(chan struct{})
	go func() {
		defer close(done)
		record(&r, 0, 20*slots+5)
		r.Flush()
	}()
	for {
		evs, total := r.Events()
		if len(evs) > 0 {
			seqs(t, evs, int(total)-1)
		}
		select {
		case <-done:
			if _, total := r.Events(); total != 20*slots+5 {
				t.Fatalf("total %d after the owner's exit flush, want %d", total, 20*slots+5)
			}
			return
		default:
		}
	}
}

// TestSingleVsSharedRing: one seeded event stream gives the same dump in
// both modes.
func TestSingleVsSharedRing(t *testing.T) {
	var single, shared Ring
	shared.Share()
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 5*slots+9; i++ {
		k, t0, peer, n, v := Kind(rng.Intn(int(numKinds))), rng.Int63n(1<<40), rng.Intn(1024)-1, rng.Intn(1<<20), rng.Intn(9)-1
		single.Record(k, t0, peer, n, v)
		shared.Record(k, t0, peer, n, v)
	}
	single.Flush()
	a, an := single.Events()
	b, bn := shared.Events()
	if an != bn || !reflect.DeepEqual(a, b) {
		t.Fatalf("single-writer and shared rings differ: totals %d/%d\n%v\n%v", an, bn, a, b)
	}
}

func TestRecordAllocFree(t *testing.T) {
	for _, shared := range []bool{false, true} {
		var r Ring
		if shared {
			r.Share()
		}
		if a := testing.AllocsPerRun(1000, func() { r.Record(SendEager, 1, 1, 8, 0) }); a != 0 {
			t.Errorf("shared %v: Record allocates %g objects/op", shared, a)
		}
	}
}

// BenchmarkRecord is the ladder's flight.record_ns probe, in both modes.
func BenchmarkRecord(b *testing.B) {
	for _, mode := range []string{"owner", "shared"} {
		b.Run(mode, func(b *testing.B) {
			var r Ring
			if mode == "shared" {
				r.Share()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Record(SendEager, int64(i), 1, 8, 0)
			}
		})
	}
}
