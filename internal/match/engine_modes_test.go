package match

import "testing"

// forEachMode runs the same scenario against the binned and the linear
// organization: MPI semantics must be identical, only cost differs.
func forEachMode(t *testing.T, run func(t *testing.T, e *Engine)) {
	t.Run("binned", func(t *testing.T) { run(t, &Engine{Mode: Binned}) })
	t.Run("linear", func(t *testing.T) { run(t, &Engine{Mode: Linear}) })
}

func TestModesNonOvertaking(t *testing.T) {
	forEachMode(t, func(t *testing.T, e *Engine) {
		e.PostRecv(MakeBits(1, 2, 3), FullMask, "first")
		e.PostRecv(MakeBits(1, 0, 0), RecvMask(true, true), "second")
		if recv, ok := e.Arrive(MakeBits(1, 2, 3), "m"); !ok || recv.Cookie != "first" {
			t.Fatalf("matched %v, want first", recv.Cookie)
		}
		if recv, ok := e.Arrive(MakeBits(1, 9, 9), "m2"); !ok || recv.Cookie != "second" {
			t.Fatalf("matched %v, want second", recv.Cookie)
		}
	})
}

func TestModesWildcardBeforeExact(t *testing.T) {
	// The wildcard receive is older than the exact one: seq arbitration
	// must hand it the message even though the exact bin has a hit.
	forEachMode(t, func(t *testing.T, e *Engine) {
		e.PostRecv(MakeBits(1, 0, 0), RecvMask(true, true), "wild")
		e.PostRecv(MakeBits(1, 2, 3), FullMask, "exact")
		if recv, ok := e.Arrive(MakeBits(1, 2, 3), "m"); !ok || recv.Cookie != "wild" {
			t.Fatalf("matched %v, want wild (older)", recv.Cookie)
		}
		if recv, ok := e.Arrive(MakeBits(1, 2, 3), "m2"); !ok || recv.Cookie != "exact" {
			t.Fatalf("matched %v, want exact", recv.Cookie)
		}
	})
}

func TestModesUnexpectedWildcardRecv(t *testing.T) {
	// ANY_SOURCE receives must see unexpected messages across bins in
	// arrival order.
	forEachMode(t, func(t *testing.T, e *Engine) {
		e.Arrive(MakeBits(1, 7, 5), "fromSeven")
		e.Arrive(MakeBits(1, 3, 5), "fromThree")
		if msg, ok := e.PostRecv(MakeBits(1, 0, 5), RecvMask(true, false), "r"); !ok || msg.Cookie != "fromSeven" {
			t.Fatalf("matched %v, want fromSeven (arrival order)", msg.Cookie)
		}
		if msg, ok := e.PostRecv(MakeBits(1, 0, 5), RecvMask(true, false), "r2"); !ok || msg.Cookie != "fromThree" {
			t.Fatalf("matched %v, want fromThree", msg.Cookie)
		}
	})
}

func TestModesMProbeHidesMessage(t *testing.T) {
	forEachMode(t, func(t *testing.T, e *Engine) {
		e.Arrive(MakeBits(1, 2, 3), "m")
		if msg, ok := e.ExtractUnexpected(MakeBits(1, 2, 3), FullMask); !ok || msg.Cookie != "m" {
			t.Fatal("mprobe missed buffered message")
		}
		if _, ok := e.PostRecv(MakeBits(1, 2, 3), FullMask, "r"); ok {
			t.Fatal("extracted message matched a later receive")
		}
	})
}

// TestProbeCountsSearches is the accounting bugfix: Probe walks the
// unexpected queue like every other scan and must count what it
// inspects.
func TestProbeCountsSearches(t *testing.T) {
	forEachMode(t, func(t *testing.T, e *Engine) {
		e.Arrive(MakeBits(1, 2, 1), "a")
		e.Arrive(MakeBits(1, 2, 2), "b")
		before := e.Searches
		if _, ok := e.Probe(MakeBits(1, 2, 2), FullMask); !ok {
			t.Fatal("probe missed")
		}
		if e.Searches-before != 2 {
			t.Fatalf("Probe counted %d searches, want 2", e.Searches-before)
		}
	})
}

func TestBinnedSearchDepthIndependent(t *testing.T) {
	// The point of binning: an arrival for source S inspects only S's
	// bin, regardless of how many receives other sources posted.
	e := &Engine{Mode: Binned}
	for src := 0; src < 64; src++ {
		e.PostRecv(MakeBits(1, src, 0), FullMask, src)
	}
	before := e.Searches
	if _, ok := e.Arrive(MakeBits(1, 63, 0), "m"); !ok {
		t.Fatal("arrive missed posted receive")
	}
	if got := e.Searches - before; got != 1 {
		t.Fatalf("binned arrive inspected %d entries, want 1", got)
	}

	l := &Engine{Mode: Linear}
	for src := 0; src < 64; src++ {
		l.PostRecv(MakeBits(1, src, 0), FullMask, src)
	}
	before = l.Searches
	l.Arrive(MakeBits(1, 63, 0), "m")
	if got := l.Searches - before; got != 64 {
		t.Fatalf("linear arrive inspected %d entries, want 64", got)
	}
}

func TestBinOpsCounting(t *testing.T) {
	e := &Engine{Mode: Binned}
	e.PostRecv(MakeBits(1, 2, 3), FullMask, "r")
	e.Arrive(MakeBits(1, 2, 3), "m")
	if e.BinOps == 0 {
		t.Fatal("binned engine performed no counted bin operations")
	}
	l := &Engine{Mode: Linear}
	l.PostRecv(MakeBits(1, 2, 3), FullMask, "r")
	l.Arrive(MakeBits(1, 2, 3), "m")
	if l.BinOps != 0 {
		t.Fatalf("linear engine counted %d bin operations, want 0", l.BinOps)
	}
}

// TestSteadyStateNoAllocs pins the free-list property: once warmed, a
// post/arrive pairing cycle allocates nothing.
func TestSteadyStateNoAllocs(t *testing.T) {
	forEachMode(t, func(t *testing.T, e *Engine) {
		e.PostRecv(MakeBits(1, 3, 0), FullMask, 1)
		e.Arrive(MakeBits(1, 3, 0), 2)
		avg := testing.AllocsPerRun(200, func() {
			e.PostRecv(MakeBits(1, 3, 0), FullMask, 1)
			e.Arrive(MakeBits(1, 3, 0), 2)
		})
		if avg != 0 {
			t.Fatalf("steady-state pairing allocates %.1f objects/op, want 0", avg)
		}
	})
}
