package md

import (
	"encoding/binary"
	"math"
	"slices"

	"gompi"
)

// Exchange tags (world communicator; per-pair FIFO keeps successive
// steps ordered).
const (
	tagGhost   = 400 // +2*dim for low-bound sends, +2*dim+1 for high
	tagMigrate = 500
)

// exchangeGhosts rebuilds the ghost shell with the three-sweep plane
// exchange: per dimension, atoms (local and already-imported ghosts)
// within the cutoff of a boundary are shipped to that neighbor, with
// periodic image shifts applied by the sender. Sweeping x, then y, then
// z covers edge and corner neighbors transitively.
func (s *sim) exchangeGhosts() error {
	s.ghosts = s.ghosts[:0]
	rc := s.prm.Cutoff
	for dim := 0; dim < 3; dim++ {
		sendLo, sendHi := s.wireLo[:0], s.wireHi[:0]
		consider := func(p [3]float64) {
			if p[dim] < s.lo[dim]+rc {
				q := p
				if s.coords[dim] == 0 {
					q[dim] += s.L[dim] // wraps to the high side of the domain
				}
				sendLo = appendVec(sendLo, q)
			}
			if p[dim] >= s.hi[dim]-rc {
				q := p
				if s.coords[dim] == s.grid[dim]-1 {
					q[dim] -= s.L[dim]
				}
				sendHi = appendVec(sendHi, q)
			}
		}
		for _, p := range s.pos[:s.n] {
			consider(p)
		}
		for _, g := range s.ghosts {
			consider(g)
		}
		err := s.swap(dim, tagGhost+2*dim, sendLo, sendHi, 3, func(b []byte) {
			s.ghosts = append(s.ghosts, vecAt(b, 0))
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// migrate ships atoms that left the box to the owning neighbor, one
// dimension at a time (an atom crossing a corner is forwarded
// transitively). Sender wraps coordinates across the periodic
// boundary. The atoms that stay are compacted in place, and arrivals
// are appended after them.
func (s *sim) migrate() error {
	for dim := 0; dim < 3; dim++ {
		sendLo, sendHi := s.wireLo[:0], s.wireHi[:0]
		keep := 0
		for i := 0; i < s.n; i++ {
			p := s.pos[i]
			switch {
			case p[dim] < s.lo[dim]:
				if s.coords[dim] == 0 {
					p[dim] += s.L[dim]
				}
				sendLo = appendAtom(sendLo, p, s.vel[i], s.id[i])
			case p[dim] >= s.hi[dim]:
				if s.coords[dim] == s.grid[dim]-1 {
					p[dim] -= s.L[dim]
				}
				sendHi = appendAtom(sendHi, p, s.vel[i], s.id[i])
			default:
				s.pos[keep], s.vel[keep], s.id[keep] = p, s.vel[i], s.id[i]
				keep++
			}
		}
		s.pos, s.vel, s.id = s.pos[:keep], s.vel[:keep], s.id[:keep]
		err := s.swap(dim, tagMigrate+4*dim, sendLo, sendHi, 7, func(b []byte) {
			s.pos = append(s.pos, vecAt(b, 0))
			s.vel = append(s.vel, vecAt(b, 3))
			s.id = append(s.id, int32(f64At(b, 6)))
		})
		s.n = len(s.pos)
		if err != nil {
			return err
		}
	}
	s.frc = slices.Grow(s.frc[:0], s.n)[:s.n]
	return nil
}

// swap sends one dimension's two packed atom sets with requestless
// sends (empty sets too, so the receiver's matching recv completes):
// sendLo to the low neighbor with tag t, sendHi to the high one with
// t+1. It then probes for and receives, in order, the high neighbor's
// low-bound set and the low neighbor's high-bound set, and hands each
// atom's per float64s to take. The send buffers become the next
// exchange's, since a requestless send has captured its data at return.
func (s *sim) swap(dim, t int, sendLo, sendHi []byte, per int, take func([]byte)) error {
	s.wireLo, s.wireHi = sendLo, sendHi
	lo, hi := s.neighbor(dim, -1), s.neighbor(dim, +1)
	if err := s.w.IsendNoReq(sendLo, len(sendLo), gompi.Byte, lo, t); err != nil {
		return err
	}
	if err := s.w.IsendNoReq(sendHi, len(sendHi), gompi.Byte, hi, t+1); err != nil {
		return err
	}
	for _, from := range [2][2]int{{hi, t}, {lo, t + 1}} {
		st, err := s.w.Probe(from[0], from[1])
		if err != nil {
			return err
		}
		s.wireIn = slices.Grow(s.wireIn[:0], st.Count)[:st.Count]
		if _, err := s.w.Recv(s.wireIn, st.Count, gompi.Byte, from[0], from[1]); err != nil {
			return err
		}
		for in := s.wireIn; len(in) >= 8*per; in = in[8*per:] {
			take(in)
		}
	}
	return s.w.CommWaitall()
}

// Wire format: an atom is little-endian float64s, its position and,
// when it migrates, its velocity and id (packed as a float64).
func appendVec(b []byte, v [3]float64) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func appendAtom(b []byte, p, v [3]float64, id int32) []byte {
	return binary.LittleEndian.AppendUint64(appendVec(appendVec(b, p), v), math.Float64bits(float64(id)))
}

func f64At(b []byte, k int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[8*k:])) }

func vecAt(b []byte, k int) [3]float64 { return [3]float64{f64At(b, k), f64At(b, k+1), f64At(b, k+2)} }
