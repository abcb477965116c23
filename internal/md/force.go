package md

import (
	"math"
	"slices"
)

// computeForces evaluates Lennard-Jones forces on local atoms from
// local and ghost neighbors within the cutoff, using a cell list over
// the extended (box + ghost shell) volume. It also accumulates this
// rank's share of the potential energy (pairs with ghosts count half)
// and returns the number of interacting pairs.
//
// Every sum is formed in the order of a walk over head-inserted
// linked cell lists, so the trajectory is bit-identical to it: atoms are
// counting-sorted into per-cell runs in descending index (ghosts, the
// higher indices, first), and the stencil visits cells in the same
// order. Grid and stencil are frozen for that reason (DESIGN.md §6j).
func (s *sim) computeForces() int {
	rc := s.prm.Cutoff
	rc2 := rc * rc

	for i := range s.frc {
		s.frc[i] = [3]float64{}
	}
	s.energyPot = 0

	nAll := s.n + len(s.ghosts)
	if nAll == 0 {
		return 0
	}

	// Cell list over [lo-rc, hi+rc).
	var cells [3]int
	var origin, inv [3]float64
	totalCells := 1
	for d := 0; d < 3; d++ {
		span := s.hi[d] - s.lo[d] + 2*rc
		cells[d] = int(span / rc)
		if cells[d] < 1 {
			cells[d] = 1
		}
		origin[d] = s.lo[d] - rc
		inv[d] = float64(cells[d]) / span
		totalCells *= cells[d]
	}
	cellOf := func(p [3]float64) int32 {
		c := [3]int{}
		for d := 0; d < 3; d++ {
			c[d] = int((p[d] - origin[d]) * inv[d])
			if c[d] < 0 {
				c[d] = 0
			}
			if c[d] >= cells[d] {
				c[d] = cells[d] - 1
			}
		}
		return int32(c[0] + cells[0]*(c[1]+cells[1]*c[2]))
	}

	// A ghost no nearer than rc to the bounding box of the local atoms
	// can never pass r2 < rc2: r2 sums the same squares, each at least as
	// large, and rounding is monotone. It stays out of the runs, which
	// keeps the others' order. With no locals, every ghost is far.
	bbLo, bbHi := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}, [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for _, p := range s.pos[:s.n] {
		for d := range p {
			bbLo[d], bbHi[d] = min(bbLo[d], p[d]), max(bbHi[d], p[d])
		}
	}
	near := func(g [3]float64) bool {
		var t [3]float64
		for d := range t {
			t[d] = max(bbLo[d]-g[d], g[d]-bbHi[d], 0)
		}
		return t[0]*t[0]+t[1]*t[1]+t[2]*t[2] < rc2
	}

	// Counting sort. Running sums of the counts make start[c] the end of
	// cell c's run; placing atoms in ascending index, each one slot below
	// its cell's current start, leaves start[c] at the run's beginning
	// and the run in descending index.
	start := slices.Grow(s.cellStart[:0], totalCells+1)[:totalCells+1]
	clear(start)
	atomCell := slices.Grow(s.atomCell[:0], nAll)[:nAll]
	for i := 0; i < nAll; i++ {
		c := int32(-1)
		if i < s.n {
			c = cellOf(s.pos[i])
		} else if g := s.ghosts[i-s.n]; near(g) {
			c = cellOf(g)
		}
		atomCell[i] = c
		if c >= 0 {
			start[c]++
		}
	}
	for c := 1; c <= totalCells; c++ {
		start[c] += start[c-1]
	}
	runLen := int(start[totalCells])
	run := slices.Grow(s.run[:0], runLen)[:runLen]
	place := func(i int, p [3]float64) {
		if c := atomCell[i]; c >= 0 {
			start[c]--
			run[start[c]] = runAtom{p, int32(i)}
		}
	}
	for i, p := range s.pos[:s.n] {
		place(i, p)
	}
	for i, g := range s.ghosts {
		place(s.n+i, g)
	}
	s.cellStart, s.atomCell, s.run = start, atomCell, run
	s.flop(float64(nAll) * 12) // cell binning

	// Shifted-potential energy at the cutoff keeps energy continuous.
	sr6c := 1.0 / (rc2 * rc2 * rc2)
	eCut := 4 * (sr6c*sr6c - sr6c)

	cand := slices.Grow(s.cand[:0], runLen)[:runLen]
	s.cand = cand
	lim := math.Float64bits(rc2) - 1
	pairs := 0
	epot := 0.0
	for i := 0; i < s.n; i++ {
		px, py, pz := s.pos[i][0], s.pos[i][1], s.pos[i][2]
		ci := int(atomCell[i])
		cx0, cy0, cz0 := ci%cells[0], ci/cells[0]%cells[1], ci/(cells[0]*cells[1])
		// First pass: list the neighbors. The stencil's cells along x are
		// adjacent in the runs, so each (dz, dy) row is one call.
		m := 0
		xlo, xhi := max(cx0-1, 0), min(cx0+1, cells[0]-1)
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				cy, cz := cy0+dy, cz0+dz
				if cy < 0 || cy >= cells[1] || cz < 0 || cz >= cells[2] {
					continue
				}
				row := cells[0] * (cy + cells[1]*cz)
				m = within(cand, m, run, start[row+xlo:row+xhi+2], int32(i), px, py, pz, lim)
			}
		}
		pairs += m
		// Second pass: the pairs, in that order. Lower-indexed atoms have
		// already subtracted their share from frc[i]; the rest of its sum
		// forms here.
		fx, fy, fz := s.frc[i][0], s.frc[i][1], s.frc[i][2]
		for _, k := range cand[:m] {
			q := &run[k].p
			dxr := px - q[0]
			dyr := py - q[1]
			dzr := pz - q[2]
			r2 := dxr*dxr + dyr*dyr + dzr*dzr
			inv2 := 1.0 / r2
			sr6 := inv2 * inv2 * inv2
			// F = 24 eps (2 sr12 - sr6) / r^2 * dr
			fmag := 24 * (2*sr6*sr6 - sr6) * inv2
			e := 4*(sr6*sr6-sr6) - eCut
			fx += fmag * dxr
			fy += fmag * dyr
			fz += fmag * dzr
			if j := int(run[k].j); j < s.n {
				fj := &s.frc[j]
				fj[0] -= fmag * dxr
				fj[1] -= fmag * dyr
				fj[2] -= fmag * dzr
				epot += e
			} else {
				epot += 0.5 * e
			}
		}
		s.frc[i] = [3]float64{fx, fy, fz}
	}
	s.energyPot = epot
	s.flop(float64(pairs) * s.prm.CyclesPerPair)
	return pairs
}

// runAtom is one entry of a cell run: a position and its atom's index
// (locals below n, ghosts from n on).
type runAtom struct {
	p [3]float64
	j int32
}

// within scans the runs of consecutive cells, bounded by starts, and
// appends to cand, from m on, the position of each entry within the
// cutoff of p; it returns the new length. A run stops at its first
// index <= i, so local pairs count once. 0 < r2 < rc2 is one unsigned compare against lim =
// bits(rc2)-1, as the bits of a non-negative float64 order as the float
// does, and cand[m] is written either way: no branch depends on the
// test, which a melt makes unpredictable.
func within(cand []int32, m int, run []runAtom, starts []int32, i int32, px, py, pz float64, lim uint64) int {
	for c := 1; c < len(starts); c++ {
		for k := int(starts[c-1]); k < int(starts[c]); k++ {
			a := &run[k]
			if a.j <= i {
				break
			}
			dx := px - a.p[0]
			dy := py - a.p[1]
			dz := pz - a.p[2]
			cand[m] = int32(k)
			if math.Float64bits(dx*dx+dy*dy+dz*dz)-1 < lim {
				m++
			}
		}
	}
	return m
}
