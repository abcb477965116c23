package md

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"gompi"
)

func TestParamsValidate(t *testing.T) {
	p := Params{AtomsPerCore: 100, RankGrid: [3]int{2, 2, 2}, Steps: 5}
	p.Defaults()
	if err := p.Validate(8); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(4); err == nil {
		t.Error("wrong world accepted")
	}
	tiny := Params{AtomsPerCore: 5, RankGrid: [3]int{1, 1, 1}, Steps: 1}
	tiny.Defaults()
	if err := tiny.Validate(1); err == nil {
		t.Error("box smaller than cutoff accepted")
	}
}

func TestLatticeCoversDomainExactlyOnce(t *testing.T) {
	prm := Params{AtomsPerCore: 108, RankGrid: [3]int{2, 2, 1}, Steps: 1}
	prm.Defaults()
	counts := make([]int, 4)
	err := gompi.Run(4, gompi.Config{Fabric: "inf"}, func(p *gompi.Proc) error {
		s := newSim(p, &prm)
		s.buildLattice()
		counts[p.Rank()] = s.n
		// All atoms strictly inside the rank box.
		for i := 0; i < s.n; i++ {
			for d := 0; d < 3; d++ {
				if s.pos[i][d] < s.lo[d] || s.pos[i][d] >= s.hi[d] {
					return fmt.Errorf("atom %d outside box along %d", i, d)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	// The global FCC lattice: 4 atoms per cell, cells rounded from the
	// box — every lattice site assigned to exactly one rank.
	if total%4 != 0 || total == 0 {
		t.Fatalf("total atoms %d not a 4-multiple FCC count", total)
	}
	want := float64(4 * 108)
	if math.Abs(float64(total)-want)/want > 0.35 {
		t.Fatalf("total atoms %d far from target %v", total, want)
	}
}

func TestGhostExchangeCoverage(t *testing.T) {
	// Every ghost must lie within the cutoff shell outside the box.
	prm := Params{AtomsPerCore: 108, RankGrid: [3]int{2, 1, 1}, Steps: 1}
	prm.Defaults()
	err := gompi.Run(2, gompi.Config{Fabric: "inf"}, func(p *gompi.Proc) error {
		s := newSim(p, &prm)
		s.buildLattice()
		s.vel = make([][3]float64, s.n)
		if err := s.exchangeGhosts(); err != nil {
			return err
		}
		if len(s.ghosts) == 0 {
			return fmt.Errorf("rank %d received no ghosts", p.Rank())
		}
		rc := prm.Cutoff
		for _, g := range s.ghosts {
			for d := 0; d < 3; d++ {
				if g[d] < s.lo[d]-rc-1e-9 || g[d] > s.hi[d]+rc+1e-9 {
					return fmt.Errorf("ghost %v outside shell of [%v,%v]", g, s.lo, s.hi)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShortRunConservation(t *testing.T) {
	prm := Params{AtomsPerCore: 108, RankGrid: [3]int{2, 2, 1}, Steps: 10}
	err := gompi.Run(4, gompi.Config{Fabric: "ofi"}, func(p *gompi.Proc) error {
		res, err := Run(p, prm)
		if err != nil {
			return err
		}
		if p.Rank() != 0 {
			return nil
		}
		if res.AtomsTotal == 0 {
			return fmt.Errorf("no atoms")
		}
		// NVE drift over 10 small steps must be tiny.
		drift := math.Abs(res.Energy-res.InitialEnergy) / math.Abs(res.InitialEnergy)
		if drift > 2e-3 {
			return fmt.Errorf("energy drift %.3g (E0=%.6f E1=%.6f)", drift, res.InitialEnergy, res.Energy)
		}
		if res.Momentum > 1e-9*float64(res.AtomsTotal) {
			return fmt.Errorf("momentum |p| = %g", res.Momentum)
		}
		if res.StepsPerSec <= 0 || res.Seconds <= 0 {
			return fmt.Errorf("bad timing %+v", res)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAtomCountConservedAcrossMigration(t *testing.T) {
	// Longer, hotter run to force migrations across boundaries.
	prm := Params{AtomsPerCore: 60, RankGrid: [3]int{2, 2, 2}, Steps: 25, Temp: 2.5}
	var before, after int
	err := gompi.Run(8, gompi.Config{Fabric: "inf"}, func(p *gompi.Proc) error {
		res, err := Run(p, prm)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			after = res.AtomsTotal
			before = int(res.AtomsPerCore*8 + 0.5)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("atom count changed: %d -> %d", before, after)
	}
	if after == 0 {
		t.Fatal("no atoms simulated")
	}
}

func TestSingleRankPeriodic(t *testing.T) {
	// grid 1x1x1: all neighbors are self; periodic images via
	// self-messaging must still conserve energy.
	prm := Params{AtomsPerCore: 108, RankGrid: [3]int{1, 1, 1}, Steps: 10}
	err := gompi.Run(1, gompi.Config{}, func(p *gompi.Proc) error {
		res, err := Run(p, prm)
		if err != nil {
			return err
		}
		drift := math.Abs(res.Energy-res.InitialEnergy) / math.Abs(res.InitialEnergy)
		if drift > 2e-3 {
			return fmt.Errorf("energy drift %.3g", drift)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDecompositionInvariance(t *testing.T) {
	// The same global system on 1 vs 8 ranks must produce the same
	// energy trajectory (deterministic initial state from atom ids).
	energy := map[int]float64{}
	for _, grid := range [][3]int{{1, 1, 1}, {2, 2, 2}} {
		ranks := grid[0] * grid[1] * grid[2]
		// Keep the same GLOBAL box: atoms/core scales inversely.
		prm := Params{AtomsPerCore: 864 / ranks, RankGrid: grid, Steps: 5}
		var e float64
		err := gompi.Run(ranks, gompi.Config{Fabric: "inf"}, func(p *gompi.Proc) error {
			res, err := Run(p, prm)
			if err != nil {
				return err
			}
			if p.Rank() == 0 {
				e = res.Energy
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		energy[ranks] = e
	}
	if math.Abs(energy[1]-energy[8]) > 1e-9*math.Abs(energy[1]) {
		t.Fatalf("decomposition changed physics: E(1)=%v E(8)=%v", energy[1], energy[8])
	}
}

func TestStrongScalingCommFraction(t *testing.T) {
	// Fewer atoms per core => larger communication fraction.
	fracs := map[int]float64{}
	for _, apc := range []int{368, 23} {
		prm := Params{AtomsPerCore: apc, RankGrid: [3]int{2, 2, 2}, Steps: 5}
		var f float64
		err := gompi.Run(8, gompi.Config{Fabric: "ofi"}, func(p *gompi.Proc) error {
			res, err := Run(p, prm)
			if err != nil {
				return err
			}
			if p.Rank() == 0 {
				f = res.CommFrac
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		fracs[apc] = f
	}
	if !(fracs[23] > fracs[368]) {
		t.Fatalf("comm fraction should grow at the scaling limit: %v", fracs)
	}
}

func TestCh4FasterThanOriginalAtScalingLimit(t *testing.T) {
	rates := map[string]float64{}
	prm := Params{AtomsPerCore: 23, RankGrid: [3]int{2, 2, 2}, Steps: 5}
	for _, dev := range []gompi.DeviceKind{gompi.DeviceCH4, gompi.DeviceOriginal} {
		var r float64
		err := gompi.Run(8, gompi.Config{Device: dev, Fabric: "ofi"}, func(p *gompi.Proc) error {
			res, err := Run(p, prm)
			if err != nil {
				return err
			}
			if p.Rank() == 0 {
				r = res.StepsPerSec
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rates[string(dev)] = r
	}
	if rates["ch4"] <= rates["original"] {
		t.Fatalf("ch4 %.3g <= original %.3g timesteps/s", rates["ch4"], rates["original"])
	}
}

// forcesRef is the linked-list cell walk computeForces replaced, kept
// verbatim (it returns its pair count) as the differential reference:
// the cell-sorted kernel must form every sum in this walk's order.
func (s *sim) forcesRef() int {
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
	at := func(i int) [3]float64 {
		if i < s.n {
			return s.pos[i]
		}
		return s.ghosts[i-s.n]
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
	cellOf := func(p [3]float64) int {
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
		return c[0] + cells[0]*(c[1]+cells[1]*c[2])
	}

	head := make([]int, totalCells)
	for i := range head {
		head[i] = -1
	}
	next := make([]int, nAll)
	for i := 0; i < nAll; i++ {
		c := cellOf(at(i))
		next[i] = head[c]
		head[c] = i
	}
	s.flop(float64(nAll) * 12) // cell binning

	// Shifted-potential energy at the cutoff keeps energy continuous.
	sr6c := 1.0 / (rc2 * rc2 * rc2)
	eCut := 4 * (sr6c*sr6c - sr6c)

	pairs := 0
	for i := 0; i < s.n; i++ {
		pi := s.pos[i]
		ci := [3]int{}
		for d := 0; d < 3; d++ {
			ci[d] = int((pi[d] - origin[d]) * inv[d])
			if ci[d] < 0 {
				ci[d] = 0
			}
			if ci[d] >= cells[d] {
				ci[d] = cells[d] - 1
			}
		}
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					cx, cy, cz := ci[0]+dx, ci[1]+dy, ci[2]+dz
					if cx < 0 || cx >= cells[0] || cy < 0 || cy >= cells[1] || cz < 0 || cz >= cells[2] {
						continue
					}
					for j := head[cx+cells[0]*(cy+cells[1]*cz)]; j >= 0; j = next[j] {
						// Local pairs once (j > i); ghost neighbors always.
						if j < s.n {
							if j <= i {
								continue
							}
						}
						pj := at(j)
						dxr := pi[0] - pj[0]
						dyr := pi[1] - pj[1]
						dzr := pi[2] - pj[2]
						r2 := dxr*dxr + dyr*dyr + dzr*dzr
						if r2 >= rc2 || r2 == 0 {
							continue
						}
						pairs++
						inv2 := 1.0 / r2
						sr6 := inv2 * inv2 * inv2
						// F = 24 eps (2 sr12 - sr6) / r^2 * dr
						fmag := 24 * (2*sr6*sr6 - sr6) * inv2
						e := 4*(sr6*sr6-sr6) - eCut
						s.frc[i][0] += fmag * dxr
						s.frc[i][1] += fmag * dyr
						s.frc[i][2] += fmag * dzr
						if j < s.n {
							s.frc[j][0] -= fmag * dxr
							s.frc[j][1] -= fmag * dyr
							s.frc[j][2] -= fmag * dzr
							s.energyPot += e
						} else {
							s.energyPot += 0.5 * e
						}
					}
				}
			}
		}
	}
	s.flop(float64(pairs) * s.prm.CyclesPerPair)
	return pairs
}

// jitter displaces the rank's lattice atoms by a seeded amount and puts
// some exactly on cell faces and box faces.
func (s *sim) jitter(rng *rand.Rand) {
	rc := s.prm.Cutoff
	for i := range s.pos[:s.n] {
		p := &s.pos[i]
		for d := 0; d < 3; d++ {
			p[d] = min(max(p[d]+0.4*(rng.Float64()-0.5), s.lo[d]), math.Nextafter(s.hi[d], math.Inf(-1)))
		}
		d := rng.Intn(3)
		origin, width := s.lo[d]-rc, (s.hi[d]-s.lo[d]+2*rc)/float64(max(1, int((s.hi[d]-s.lo[d]+2*rc)/rc)))
		switch rng.Intn(6) {
		case 0: // on the nearest cell face inside the box
			if f := origin + math.Ceil((p[d]-origin)/width)*width; f < s.hi[d] {
				p[d] = f
			}
		case 1:
			p[d] = s.lo[d]
		}
	}
}

// edgeGhosts adds ghosts that bin at the cell grid's clamp edges (below
// its origin, on and beyond its far face), one that coincides with a
// local atom (r2 == 0), and some exactly rc from one along an axis
// (r2 == rc2 whenever p-rc is exact).
func (s *sim) edgeGhosts(rng *rand.Rand) {
	rc := s.prm.Cutoff
	for k := 0; k < 12 && s.n > 0; k++ {
		g, d := s.pos[rng.Intn(s.n)], rng.Intn(3)
		switch k % 6 {
		case 0:
			g[d] = s.lo[d] - rc
		case 1:
			g[d] = s.lo[d] - rc - 0.3
		case 2:
			g[d] = s.hi[d] + rc
		case 3:
			g[d] = s.lo[d] - 0.5*rc // near: forms pairs
		case 4:
			if g[d] >= rc {
				g[d] -= rc
			} else {
				g[d] += rc
			}
		}
		s.ghosts = append(s.ghosts, g)
	}
}

// forcesMatch runs the kernel and forcesRef on the same jittered state
// of every rank of grid and requires bitwise-equal forces and energy,
// the same pair count and the same compute charge.
func forcesMatch(apc int, grid [3]int, seed int64) error {
	prm := Params{AtomsPerCore: apc, RankGrid: grid, Steps: 1}
	prm.Defaults()
	ranks := grid[0] * grid[1] * grid[2]
	return gompi.Run(ranks, gompi.Config{Fabric: gompi.FabricInf}, func(p *gompi.Proc) error {
		s := newSim(p, &prm)
		s.buildLattice()
		rng := rand.New(rand.NewSource(seed + int64(p.Rank())))
		s.jitter(rng)
		if err := s.exchangeGhosts(); err != nil {
			return err
		}
		s.edgeGhosts(rng)
		type side struct {
			pairs   int
			charged int64
			s       sim
		}
		sides := [2]side{{s: *s}, {s: *s}}
		for k := range sides {
			r := &sides[k]
			r.s.frc, r.s.flopAcc = make([][3]float64, s.n), 0
			before := p.Counters().Compute
			if k == 0 {
				r.pairs = r.s.forcesRef()
			} else {
				r.pairs = r.s.computeForces()
			}
			r.charged = p.Counters().Compute - before
		}
		ref, got := &sides[0], &sides[1]
		if got.pairs != ref.pairs || got.charged != ref.charged || got.s.flopAcc != ref.s.flopAcc {
			return fmt.Errorf("pairs %d, charged %d+%v; reference %d, %d+%v",
				got.pairs, got.charged, got.s.flopAcc, ref.pairs, ref.charged, ref.s.flopAcc)
		}
		if math.Float64bits(got.s.energyPot) != math.Float64bits(ref.s.energyPot) {
			return fmt.Errorf("energy %x, reference %x", got.s.energyPot, ref.s.energyPot)
		}
		for i := range ref.s.frc {
			for d := 0; d < 3; d++ {
				if math.Float64bits(got.s.frc[i][d]) != math.Float64bits(ref.s.frc[i][d]) {
					return fmt.Errorf("frc[%d][%d] %x, reference %x", i, d, got.s.frc[i][d], ref.s.frc[i][d])
				}
			}
		}
		return nil
	})
}

// TestForcesMatchReference: the cell-sorted kernel reproduces the
// linked-list walk bit for bit over Figure 8's atoms/core ladder and
// cubic, non-cubic and single-rank grids.
func TestForcesMatchReference(t *testing.T) {
	for _, apc := range []int{23, 45, 90, 184, 368} {
		for _, grid := range [][3]int{{1, 1, 1}, {2, 2, 2}, {3, 3, 3}, {4, 2, 1}} {
			if err := forcesMatch(apc, grid, int64(apc)); err != nil {
				t.Errorf("apc %d grid %v: %v", apc, grid, err)
			}
		}
	}
}

func FuzzComputeForces(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0))
	f.Add(int64(7), uint16(345), uint8(1))
	f.Add(int64(-3), uint16(67), uint8(3))
	grids := [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}, {2, 2, 2}}
	f.Fuzz(func(t *testing.T, seed int64, apc uint16, grid uint8) {
		if err := forcesMatch(23+int(apc%346), grids[int(grid)%len(grids)], seed); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRunGolden pins the trajectory the linked-list kernel produced:
// energies and momentum to the bit at any GOMAXPROCS, and the
// single-rank virtual time. (Multi-rank virtual time still moves with
// goroutine interleaving; the physics does not.)
func TestRunGolden(t *testing.T) {
	cases := []struct {
		apc                int
		grid               [3]int
		fab                gompi.FabricKind
		e, e0, mom, second float64
		atoms              int
	}{
		{23, [3]int{2, 2, 2}, gompi.FabricBGQ, -0x1.1480eb48f6db1p+02, -0x1.148bdbfbba354p+02, 0x1.4e790422e898fp-46, 0, 256},
		{368, [3]int{2, 2, 2}, gompi.FabricBGQ, -0x1.0aa7d46219d47p+02, -0x1.0ab17bd4393a3p+02, 0x1.97502a6ca521ap-43, 0, 2916},
		{864, [3]int{1, 1, 1}, gompi.FabricInf, -0x1.0b6f7f0429a2bp+02, -0x1.0b6f712b8193cp+02, 0x1.0eb113ae5abb6p-44, 0x1.a2b2c4fb37956p-07, 864},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			var res Result
			cfg := gompi.Config{Device: gompi.DeviceCH4, Fabric: c.fab, RanksPerNode: 1}
			err := gompi.Run(c.grid[0]*c.grid[1]*c.grid[2], cfg, func(p *gompi.Proc) error {
				r, err := Run(p, Params{AtomsPerCore: c.apc, RankGrid: c.grid, Steps: 20, Seed: 77})
				if p.Rank() == 0 {
					res = r
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Energy != c.e || res.InitialEnergy != c.e0 || res.Momentum != c.mom || res.AtomsTotal != c.atoms ||
				(c.second != 0 && res.Seconds != c.second) {
				t.Errorf("GOMAXPROCS %d, apc %d grid %v: E %x E0 %x |p| %x atoms %d s %x; want %x %x %x %d %x",
					procs, c.apc, c.grid, res.Energy, res.InitialEnergy, res.Momentum, res.AtomsTotal, res.Seconds,
					c.e, c.e0, c.mom, c.atoms, c.second)
			}
		}
	}
}

// runMallocs counts the mallocs of one 8-rank bgq run at the strong
// scaling limit (23 atoms/core). One P keeps parking — which the
// runtime pays for with a malloc whenever one P's cache of wait records
// runs dry while another's fills — out of the count.
func runMallocs(tb testing.TB, steps int) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := gompi.Run(8, gompi.Config{Fabric: gompi.FabricBGQ}, func(p *gompi.Proc) error {
		_, err := Run(p, Params{AtomsPerCore: 23, RankGrid: [3]int{2, 2, 2}, Steps: steps})
		return err
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatal(err)
	}
	return after.Mallocs - before.Mallocs
}

// TestTimestepAllocs: a timestep allocates nothing in steady state. The
// difference of a 420- and a 220-step run cancels setup; 200 world
// timesteps may cost at most 4 mallocs each (the scratch buffers'
// high-water growth when an atom count exceeds any seen before).
func TestTimestepAllocs(t *testing.T) {
	short, long := runMallocs(t, 220), runMallocs(t, 420)
	t.Logf("220 steps: %d mallocs, 420 steps: %d", short, long)
	if d := int64(long) - int64(short); d > 800 {
		t.Errorf("200 more timesteps cost %d mallocs (%d vs %d), want <= 800", d, long, short)
	}
}

// BenchmarkComputeForces: one rank's force evaluation on the state
// a 50-step app_md-style run leaves (a melt, not the perfect lattice).
func BenchmarkComputeForces(b *testing.B) {
	for _, apc := range []int{23, 368} {
		b.Run(fmt.Sprintf("apc%d", apc), func(b *testing.B) {
			prm := Params{AtomsPerCore: apc, RankGrid: [3]int{2, 2, 2}, Steps: 50}
			prm.Defaults()
			err := gompi.Run(8, gompi.Config{Fabric: gompi.FabricBGQ}, func(p *gompi.Proc) error {
				s := newSim(p, &prm)
				s.buildLattice()
				s.initVelocities()
				for step := 0; step < prm.Steps; step++ {
					s.integrateHalf()
					if err := s.migrate(); err != nil {
						return err
					}
					if err := s.exchangeGhosts(); err != nil {
						return err
					}
					s.computeForces()
					s.integrateFinal()
				}
				if err := s.w.Barrier(); err != nil || p.Rank() != 0 {
					return err
				}
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					s.computeForces()
				}
				b.StopTimer()
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkTimestep: one world timestep of the app_md configuration (8
// ranks on bgq, 23 atoms/core), setup amortized over b.N steps.
func BenchmarkTimestep(b *testing.B) {
	b.ReportAllocs()
	err := gompi.Run(8, gompi.Config{Fabric: gompi.FabricBGQ}, func(p *gompi.Proc) error {
		_, err := Run(p, Params{AtomsPerCore: 23, RankGrid: [3]int{2, 2, 2}, Steps: b.N})
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
}
