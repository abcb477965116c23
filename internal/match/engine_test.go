package match

import (
	"testing"
	"testing/quick"
)

func TestBitsRoundTrip(t *testing.T) {
	cases := []struct {
		ctx uint16
		src int
		tag int
	}{
		{0, 0, 0},
		{1, 2, 3},
		{1<<16 - 1, 1<<16 - 1, 12345}, // the largest context and source
		{7, 1000, MaxTag},
	}
	for _, c := range cases {
		b := MakeBits(c.ctx, c.src, c.tag)
		if b.Context() != c.ctx || b.Source() != c.src || b.Tag() != c.tag {
			t.Errorf("roundtrip(%d,%d,%d) = (%d,%d,%d)",
				c.ctx, c.src, c.tag, b.Context(), b.Source(), b.Tag())
		}
	}
}

func TestBitsRoundTripProperty(t *testing.T) {
	f := func(ctx uint16, src uint16, tag uint32) bool {
		tg := int(tag % (MaxTag + 1))
		b := MakeBits(ctx, int(src), tg)
		return b.Context() == ctx && b.Source() == int(src) && b.Tag() == tg
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExactMatch(t *testing.T) {
	var e Engine
	// Post a receive for (ctx=1, src=2, tag=3); nothing buffered.
	if _, ok := e.PostRecv(MakeBits(1, 2, 3), FullMask, "r1"); ok {
		t.Fatal("PostRecv matched on empty engine")
	}
	// Wrong tag does not match.
	if _, ok := e.Arrive(MakeBits(1, 2, 4), "m-wrong"); ok {
		t.Fatal("message with wrong tag matched")
	}
	// Right triplet matches the posted receive.
	recv, ok := e.Arrive(MakeBits(1, 2, 3), "m1")
	if !ok || recv.Cookie != "r1" {
		t.Fatalf("Arrive = (%v, %v), want r1", recv.Cookie, ok)
	}
	if e.PostedLen() != 0 || e.UnexpectedLen() != 1 {
		t.Errorf("queue depths = (%d,%d), want (0,1)", e.PostedLen(), e.UnexpectedLen())
	}
}

func TestUnexpectedThenRecv(t *testing.T) {
	var e Engine
	e.Arrive(MakeBits(5, 0, 9), "m1")
	msg, ok := e.PostRecv(MakeBits(5, 0, 9), FullMask, "r1")
	if !ok || msg.Cookie != "m1" {
		t.Fatalf("PostRecv = (%v,%v), want m1", msg.Cookie, ok)
	}
	if e.UnexpectedLen() != 0 {
		t.Error("matched unexpected message not removed")
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	var e Engine
	e.PostRecv(MakeBits(1, 0, 0), RecvMask(true, true), "rAny")
	recv, ok := e.Arrive(MakeBits(1, 42, 17), "m")
	if !ok || recv.Cookie != "rAny" {
		t.Fatal("wildcard receive did not match")
	}
	// Communicator context is never wildcarded: different ctx must miss.
	e.PostRecv(MakeBits(1, 0, 0), RecvMask(true, true), "rAny2")
	if _, ok := e.Arrive(MakeBits(2, 42, 17), "m2"); ok {
		t.Fatal("wildcard receive matched across communicators")
	}
}

func TestAnySourceOnly(t *testing.T) {
	var e Engine
	e.PostRecv(MakeBits(1, 0, 7), RecvMask(true, false), "r")
	if _, ok := e.Arrive(MakeBits(1, 3, 8), "bad-tag"); ok {
		t.Fatal("ANY_SOURCE receive matched wrong tag")
	}
	if recv, ok := e.Arrive(MakeBits(1, 3, 7), "good"); !ok || recv.Cookie != "r" {
		t.Fatal("ANY_SOURCE receive did not match right tag")
	}
}

func TestNonOvertakingPostedOrder(t *testing.T) {
	// Two receives that both accept the message: the earlier one wins.
	var e Engine
	e.PostRecv(MakeBits(1, 2, 3), FullMask, "first")
	e.PostRecv(MakeBits(1, 0, 0), RecvMask(true, true), "second")
	recv, ok := e.Arrive(MakeBits(1, 2, 3), "m")
	if !ok || recv.Cookie != "first" {
		t.Fatalf("matched %v, want first (non-overtaking)", recv.Cookie)
	}
}

func TestNonOvertakingArrivalOrder(t *testing.T) {
	// Two buffered messages that both satisfy the receive: earliest
	// arrival wins.
	var e Engine
	e.Arrive(MakeBits(1, 2, 3), "early")
	e.Arrive(MakeBits(1, 2, 3), "late")
	msg, ok := e.PostRecv(MakeBits(1, 2, 3), FullMask, "r")
	if !ok || msg.Cookie != "early" {
		t.Fatalf("matched %v, want early", msg.Cookie)
	}
	msg, ok = e.PostRecv(MakeBits(1, 2, 3), FullMask, "r2")
	if !ok || msg.Cookie != "late" {
		t.Fatalf("matched %v, want late", msg.Cookie)
	}
}

func TestNoMatchMode(t *testing.T) {
	// Arrival-order mode: source and tag are ignored, context retained.
	var e Engine
	e.Arrive(MakeBits(1, 9, 100), "m1")
	e.Arrive(MakeBits(1, 8, 200), "m2")
	e.Arrive(MakeBits(2, 9, 100), "otherComm")
	msg, ok := e.PostRecv(MakeBits(1, 0, 0), NoMatchMask, "r")
	if !ok || msg.Cookie != "m1" {
		t.Fatalf("no-match recv got %v, want m1 (arrival order)", msg.Cookie)
	}
	msg, ok = e.PostRecv(MakeBits(1, 0, 0), NoMatchMask, "r")
	if !ok || msg.Cookie != "m2" {
		t.Fatalf("no-match recv got %v, want m2", msg.Cookie)
	}
	if _, ok := e.PostRecv(MakeBits(1, 0, 0), NoMatchMask, "r"); ok {
		t.Fatal("no-match recv crossed communicator isolation")
	}
}

func TestProbe(t *testing.T) {
	var e Engine
	if _, ok := e.Probe(MakeBits(1, 2, 3), FullMask); ok {
		t.Fatal("Probe hit on empty engine")
	}
	e.Arrive(MakeBits(1, 2, 3), "m")
	msg, ok := e.Probe(MakeBits(1, 0, 0), RecvMask(true, true))
	if !ok || msg.Cookie != "m" {
		t.Fatal("Probe missed buffered message")
	}
	if e.UnexpectedLen() != 1 {
		t.Fatal("Probe removed the message")
	}
}

// Property: pairing N sends with N fully-specified receives in any
// posting order delivers each message to the receive with its triplet,
// and leaves both queues empty.
func TestPairingDrainsQueues(t *testing.T) {
	f := func(order []bool, n uint8) bool {
		count := int(n%8) + 1
		var e Engine
		delivered := map[int]int{} // tag -> matched count
		sent, recvd := 0, 0
		// Interleave sends and receives per `order`, then drain.
		step := func(send bool) {
			if send && sent < count {
				e.Arrive(MakeBits(3, 0, sent), sent)
				sent++
			} else if !send && recvd < count {
				e.PostRecv(MakeBits(3, 0, recvd), FullMask, recvd)
				recvd++
			}
		}
		for _, b := range order {
			step(b)
		}
		for sent < count {
			step(true)
		}
		for recvd < count {
			step(false)
		}
		// After all arrivals and postings with identical triplet sets,
		// every pairing must have happened: both queues empty.
		_ = delivered
		return e.PostedLen() == 0 && e.UnexpectedLen() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
