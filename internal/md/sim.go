package md

import (
	"math"
	"math/rand"

	"gompi"
)

// sim is one rank's simulation state.
type sim struct {
	p   *gompi.Proc
	w   *gompi.Comm
	prm *Params

	grid   [3]int
	coords [3]int
	cells  int        // global FCC cells per dimension
	L      [3]float64 // global box
	lo, hi [3]float64 // this rank's box

	// Local atoms (structure of arrays).
	n   int
	pos [][3]float64
	vel [][3]float64
	frc [][3]float64
	id  []int32

	// Ghost atoms (positions only), appended after exchange.
	ghosts [][3]float64

	// Scratch.
	flopAcc   float64
	energyPot float64 // accumulated by computeForces

	// computeForces' scratch: where each cell's run starts, each atom's
	// cell (-1 for a ghost too far to interact), the runs, and one
	// atom's neighbors as positions in the runs.
	cellStart, atomCell []int32
	run                 []runAtom
	cand                []int32

	// Exchange buffers: the packed sets for the low and high neighbor,
	// and the receive bytes.
	wireLo, wireHi, wireIn []byte
}

func newSim(p *gompi.Proc, prm *Params) *sim {
	s := &sim{p: p, w: p.World(), prm: prm, grid: prm.RankGrid}
	r := p.Rank()
	s.coords[0] = r % s.grid[0]
	s.coords[1] = (r / s.grid[0]) % s.grid[1]
	s.coords[2] = r / (s.grid[0] * s.grid[1])

	// The lattice defines the box (the LAMMPS convention): choose the
	// FCC cell count nearest the target atom total and size the
	// periodic box to tile it exactly, so the density is exact and the
	// decomposition never straddles partial cells.
	a := math.Cbrt(4.0 / prm.Density)
	total := prm.AtomsPerCore * p.Size()
	cells := int(math.Round(math.Cbrt(float64(total) / 4.0)))
	if cells < 1 {
		cells = 1
	}
	s.cells = cells
	L := float64(cells) * a
	for d := 0; d < 3; d++ {
		s.L[d] = L
		side := L / float64(s.grid[d])
		s.lo[d] = side * float64(s.coords[d])
		s.hi[d] = side * float64(s.coords[d]+1)
	}
	return s
}

// neighbor returns the world rank one step along dim (periodic).
func (s *sim) neighbor(dim, step int) int {
	c := s.coords
	c[dim] = (c[dim] + step + s.grid[dim]) % s.grid[dim]
	return c[0] + s.grid[0]*(c[1]+s.grid[1]*c[2])
}

// flop charges accumulated compute cycles in batches.
func (s *sim) flop(cycles float64) {
	s.flopAcc += cycles
	if s.flopAcc >= 8192 {
		s.p.ChargeCompute(int64(s.flopAcc))
		s.flopAcc = 0
	}
}

func (s *sim) flushFlops() {
	if s.flopAcc > 0 {
		s.p.ChargeCompute(int64(s.flopAcc))
		s.flopAcc = 0
	}
}

// buildLattice places the global FCC lattice and keeps the atoms inside
// this rank's box. The lattice constant comes from the density (4 atoms
// per FCC cell), and the global cell count is chosen to land near
// AtomsPerCore * P total atoms.
func (s *sim) buildLattice() {
	cells := [3]int{s.cells, s.cells, s.cells}
	var ax [3]float64
	for d := 0; d < 3; d++ {
		ax[d] = s.L[d] / float64(cells[d])
	}
	basis := [4][3]float64{
		{0, 0, 0},
		{0.5, 0.5, 0},
		{0.5, 0, 0.5},
		{0, 0.5, 0.5},
	}
	id := int32(0)
	for cz := 0; cz < cells[2]; cz++ {
		for cy := 0; cy < cells[1]; cy++ {
			for cx := 0; cx < cells[0]; cx++ {
				for _, b := range basis {
					x := (float64(cx) + b[0]) * ax[0]
					y := (float64(cy) + b[1]) * ax[1]
					z := (float64(cz) + b[2]) * ax[2]
					if x >= s.lo[0] && x < s.hi[0] &&
						y >= s.lo[1] && y < s.hi[1] &&
						z >= s.lo[2] && z < s.hi[2] {
						s.pos = append(s.pos, [3]float64{x, y, z})
						s.id = append(s.id, id)
					}
					id++
				}
			}
		}
	}
	s.n = len(s.pos)
	s.vel = make([][3]float64, s.n)
	s.frc = make([][3]float64, s.n)
}

// initVelocities draws Maxwell-like velocities deterministically from
// each atom's global id (so the initial state is independent of the
// decomposition), then removes the global drift.
func (s *sim) initVelocities() {
	scale := math.Sqrt(s.prm.Temp)
	// One source, re-seeded per atom: the same stream as a fresh source
	// per atom, without building one each time.
	rng := rand.New(rand.NewSource(0))
	for i := 0; i < s.n; i++ {
		rng.Seed(s.prm.Seed + int64(s.id[i]))
		for d := 0; d < 3; d++ {
			s.vel[i][d] = scale * rng.NormFloat64()
		}
	}
	// Zero total momentum: subtract the global mean velocity.
	sum := [3]float64{}
	for i := 0; i < s.n; i++ {
		for d := 0; d < 3; d++ {
			sum[d] += s.vel[i][d]
		}
	}
	vals, err := s.w.AllreduceFloat64([]float64{sum[0], sum[1], sum[2], float64(s.n)}, gompi.OpSum)
	if err != nil {
		panic(err)
	}
	total := vals[3]
	for i := 0; i < s.n; i++ {
		for d := 0; d < 3; d++ {
			s.vel[i][d] -= vals[d] / total
		}
	}
}

// integrateHalf performs the first Verlet half-kick and the drift.
func (s *sim) integrateHalf() {
	dt := s.prm.Dt
	for i := 0; i < s.n; i++ {
		for d := 0; d < 3; d++ {
			s.vel[i][d] += 0.5 * dt * s.frc[i][d]
			s.pos[i][d] += dt * s.vel[i][d]
		}
	}
	s.flop(float64(s.n) * s.prm.CyclesPerAtom)
}

// integrateFinal performs the second half-kick.
func (s *sim) integrateFinal() {
	dt := s.prm.Dt
	for i := 0; i < s.n; i++ {
		for d := 0; d < 3; d++ {
			s.vel[i][d] += 0.5 * dt * s.frc[i][d]
		}
	}
	s.flop(float64(s.n) * s.prm.CyclesPerAtom * 0.5)
}

// totalEnergyPerAtom returns (KE + PE) / N over the whole system.
func (s *sim) totalEnergyPerAtom() (float64, error) {
	ke := 0.0
	for i := 0; i < s.n; i++ {
		for d := 0; d < 3; d++ {
			ke += 0.5 * s.vel[i][d] * s.vel[i][d]
		}
	}
	vals, err := s.w.AllreduceFloat64([]float64{ke, s.energyPot, float64(s.n)}, gompi.OpSum)
	if err != nil {
		return 0, err
	}
	if vals[2] == 0 {
		return 0, nil
	}
	return (vals[0] + vals[1]) / vals[2], nil
}

// totalMomentum returns the magnitude of the global momentum vector.
func (s *sim) totalMomentum() (float64, error) {
	sum := [3]float64{}
	for i := 0; i < s.n; i++ {
		for d := 0; d < 3; d++ {
			sum[d] += s.vel[i][d]
		}
	}
	vals, err := s.w.AllreduceFloat64([]float64{sum[0], sum[1], sum[2]}, gompi.OpSum)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(vals[0]*vals[0] + vals[1]*vals[1] + vals[2]*vals[2]), nil
}

// globalAtomCount sums local counts (conservation check).
func (s *sim) globalAtomCount() (int, error) {
	vals, err := s.w.AllreduceFloat64([]float64{float64(s.n)}, gompi.OpSum)
	if err != nil {
		return 0, err
	}
	return int(vals[0] + 0.5), nil
}
