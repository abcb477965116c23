package match

import "testing"

// FuzzEngineNeverLoses drives the matching engine with an arbitrary
// interleaving of arrivals and postings: every message must end up
// delivered exactly once or parked in exactly one queue.
// FuzzBinnedMatchesLinear runs the binned engine and the retained
// linear engine side by side over an arbitrary program of postings,
// arrivals, probes, and matched probes, and requires identical
// outcomes at every step — the two organizations may only differ in
// cost, never in MPI matching semantics (wildcard interleavings
// included).
func FuzzBinnedMatchesLinear(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{2, 0, 0, 0, 5, 0, 3, 17, 1, 0, 9, 9})
	f.Add([]byte{3, 6, 0, 0, 6, 0, 3, 0, 0, 5, 1, 1, 4, 2, 2})
	f.Add([]byte{1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 0, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		bn := &Engine{Mode: Binned}
		ln := &Engine{Mode: Linear}
		cookie := 0
		step := func(i int, got Entry, okB bool, want Entry, okL bool) {
			if okB != okL || (okB && (got.Cookie != want.Cookie || got.Bits != want.Bits)) {
				t.Fatalf("step %d: binned = (%v,%v,%v), linear = (%v,%v,%v)",
					i, got.Cookie, got.Bits, okB, want.Cookie, want.Bits, okL)
			}
			if bn.PostedLen() != ln.PostedLen() || bn.UnexpectedLen() != ln.UnexpectedLen() {
				t.Fatalf("step %d: depths binned (%d,%d) vs linear (%d,%d)", i,
					bn.PostedLen(), bn.UnexpectedLen(), ln.PostedLen(), ln.UnexpectedLen())
			}
		}
		for i := 0; i+2 < len(prog); i += 3 {
			op, a, b := prog[i], prog[i+1], prog[i+2]
			// Tiny value ranges force bin collisions, cross-bin
			// wildcard races, and cross-communicator misses.
			bits := MakeBits(uint16(a%2+1), int(a/2%4), int(b%4))
			switch op % 5 {
			case 0, 1: // message arrival
				c := cookie
				cookie++
				g, okB := bn.Arrive(bits, c)
				w, okL := ln.Arrive(bits, c)
				step(i, g, okB, w, okL)
			case 2: // exact posted receive
				c := cookie
				cookie++
				g, okB := bn.PostRecv(bits, FullMask, c)
				w, okL := ln.PostRecv(bits, FullMask, c)
				step(i, g, okB, w, okL)
			case 3: // wildcard (or no-match-mode) posted receive
				mask := RecvMask(b%2 == 0, b%3 == 0)
				if b%7 == 0 {
					mask = NoMatchMask
				}
				c := cookie
				cookie++
				g, okB := bn.PostRecv(bits, mask, c)
				w, okL := ln.PostRecv(bits, mask, c)
				step(i, g, okB, w, okL)
			case 4: // iprobe or mprobe
				mask := RecvMask(a%2 == 0, a%5 == 0)
				if b%2 == 0 {
					g, okB := bn.Probe(bits, mask)
					w, okL := ln.Probe(bits, mask)
					step(i, g, okB, w, okL)
				} else {
					g, okB := bn.ExtractUnexpected(bits, mask)
					w, okL := ln.ExtractUnexpected(bits, mask)
					step(i, g, okB, w, okL)
				}
			}
		}
	})
}

func FuzzEngineNeverLoses(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, []byte{1, 0, 3, 2})
	f.Add([]byte{}, []byte{5})
	f.Fuzz(func(t *testing.T, arrivals, postings []byte) {
		var e Engine
		delivered := 0
		for i := 0; i < len(arrivals) || i < len(postings); i++ {
			if i < len(arrivals) {
				tag := int(arrivals[i]) % 8
				if _, ok := e.Arrive(MakeBits(1, 0, tag), i); ok {
					delivered++
				}
			}
			if i < len(postings) {
				b := postings[i]
				tag := int(b) % 8
				mask := FullMask
				if b%3 == 0 {
					mask = RecvMask(true, true)
				}
				if _, ok := e.PostRecv(MakeBits(1, 0, tag), mask, i); ok {
					delivered++
				}
			}
		}
		total := len(arrivals) + len(postings)
		if delivered*2+e.PostedLen()+e.UnexpectedLen() != total {
			t.Fatalf("conservation: %d arrivals+postings, %d matched pairs, %d posted, %d unexpected",
				total, delivered, e.PostedLen(), e.UnexpectedLen())
		}
	})
}
