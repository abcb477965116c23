package bench

import (
	"fmt"

	"gompi"
	"gompi/internal/md"
	"gompi/internal/nek"
)

// NekPoint is one (N, E/P) measurement pair: MPICH/Original ("Std") vs
// MPICH/CH4 ("Lite"), the paper's Figure 7 legend terms.
type NekPoint struct {
	N        int
	EPerRank int
	NOverP   int
	PerfStd  float64 // point-iterations per processor-second, original
	PerfLite float64 // same, ch4
	Ratio    float64 // Lite/Std (Figure 7 center)
	EffStd   float64 // parallel-efficiency model at the measurement scale
	EffLite  float64
}

// NekSweepOptions sizes the Figure 7 sweep. The paper ran 16,384 ranks
// on BG/Q; we scale the rank count down and keep the per-rank load
// (n/P) on the paper's axis, which is what shapes the curves.
type NekSweepOptions struct {
	RankGrid [3]int // default {4,2,2} = 16 ranks
	Orders   []int  // default {3,5,7}
	MaxEPerP int    // default 128 (E/P = 1,2,4,...,128)
	Iters    int    // default 25
	Fabric   string // default "bgq"
}

func (o *NekSweepOptions) defaults() {
	if o.RankGrid == [3]int{} {
		o.RankGrid = [3]int{4, 2, 2}
	}
	if len(o.Orders) == 0 {
		o.Orders = []int{3, 5, 7}
	}
	if o.MaxEPerP == 0 {
		o.MaxEPerP = 128
	}
	if o.Iters == 0 {
		o.Iters = 25
	}
	if o.Fabric == "" {
		o.Fabric = "bgq"
	}
}

// splitElems factors E/P into a 3-D per-rank element box, keeping it as
// cubic as possible.
func splitElems(ePerP int) [3]int {
	e := [3]int{1, 1, 1}
	d := 0
	for ePerP > 1 {
		e[d] *= 2
		ePerP /= 2
		d = (d + 1) % 3
	}
	return e
}

// NekSweep runs the Figure 7 experiment: for each order N and each
// E/P, the model problem under both devices.
func NekSweep(opts NekSweepOptions) ([]NekPoint, error) {
	opts.defaults()
	ranks := opts.RankGrid[0] * opts.RankGrid[1] * opts.RankGrid[2]
	var points []NekPoint
	for _, order := range opts.Orders {
		for eP := 1; eP <= opts.MaxEPerP; eP *= 2 {
			prm := nek.Params{
				N:            order,
				ElemsPerRank: splitElems(eP),
				RankGrid:     opts.RankGrid,
				Iters:        opts.Iters,
			}
			pt := NekPoint{N: order, EPerRank: eP, NOverP: prm.NOverP()}
			for _, dev := range []gompi.DeviceKind{gompi.DeviceOriginal, gompi.DeviceCH4} {
				var res nek.Result
				err := gompi.Run(ranks, gompi.Config{Device: dev, Fabric: gompi.FabricKind(opts.Fabric)}, func(p *gompi.Proc) error {
					r, err := nek.Solve(p, prm)
					if err != nil {
						return err
					}
					if r.Residual > 1e-8 {
						return fmt.Errorf("residual %g", r.Residual)
					}
					if p.Rank() == 0 {
						res = r
					}
					return nil
				})
				if err != nil {
					return nil, fmt.Errorf("nek N=%d E/P=%d %s: %w", order, eP, dev, err)
				}
				model := nek.NewEfficiencyModel(res, ranks, 2.2e9)
				if dev == "ch4" {
					pt.PerfLite = res.PerfPIPS
					pt.EffLite = model.Efficiency(float64(ranks))
				} else {
					pt.PerfStd = res.PerfPIPS
					pt.EffStd = model.Efficiency(float64(ranks))
				}
			}
			if pt.PerfStd > 0 {
				pt.Ratio = pt.PerfLite / pt.PerfStd
			}
			points = append(points, pt)
		}
	}
	return points, nil
}

// LammpsPoint is one Figure 8 bar: a node count (atoms/core) with both
// devices' timestep rates.
type LammpsPoint struct {
	Nodes        int     // the paper's x-axis label (scaled-down run)
	AtomsPerCore int     // nominal (the paper's ladder)
	ActualAPC    float64 // after FCC lattice snapping
	RateCh4      float64 // timesteps/second
	RateOrig     float64
	EffCh4       float64 // strong-scaling efficiency vs the first point
	EffOrig      float64
	SpeedupPct   float64 // (ch4-orig)/orig * 100
}

// LammpsSweepOptions sizes the Figure 8 sweep.
type LammpsSweepOptions struct {
	RankGrid [3]int // default {3,3,3} = 27 ranks
	Steps    int    // default 10
	Fabric   string // default "bgq"
}

func (o *LammpsSweepOptions) defaults() {
	if o.RankGrid == [3]int{} {
		o.RankGrid = [3]int{3, 3, 3}
	}
	if o.Steps == 0 {
		o.Steps = 10
	}
	if o.Fabric == "" {
		o.Fabric = "bgq"
	}
}

// lammpsScale mirrors the paper's strong-scaling ladder: 3M atoms over
// 512..8192 nodes of 16 cores.
var lammpsScale = []struct {
	nodes        int
	atomsPerCore int
}{
	{512, 368},
	{1024, 184},
	{2048, 90},
	{4096, 45},
	{8192, 23},
}

// LammpsSweep runs the Figure 8 experiment.
func LammpsSweep(opts LammpsSweepOptions) ([]LammpsPoint, error) {
	opts.defaults()
	ranks := opts.RankGrid[0] * opts.RankGrid[1] * opts.RankGrid[2]
	var points []LammpsPoint
	for _, sc := range lammpsScale {
		prm := md.Params{
			AtomsPerCore: sc.atomsPerCore,
			RankGrid:     opts.RankGrid,
			Steps:        opts.Steps,
		}
		pt := LammpsPoint{Nodes: sc.nodes, AtomsPerCore: sc.atomsPerCore}
		for _, dev := range []gompi.DeviceKind{gompi.DeviceCH4, gompi.DeviceOriginal} {
			var res md.Result
			err := gompi.Run(ranks, gompi.Config{Device: dev, Fabric: gompi.FabricKind(opts.Fabric)}, func(p *gompi.Proc) error {
				r, err := md.Run(p, prm)
				if err != nil {
					return err
				}
				if p.Rank() == 0 {
					res = r
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("lammps %d nodes %s: %w", sc.nodes, dev, err)
			}
			if dev == "ch4" {
				pt.RateCh4 = res.StepsPerSec
				pt.ActualAPC = res.AtomsPerCore
			} else {
				pt.RateOrig = res.StepsPerSec
			}
		}
		if pt.RateOrig > 0 {
			pt.SpeedupPct = 100 * (pt.RateCh4 - pt.RateOrig) / pt.RateOrig
		}
		points = append(points, pt)
	}
	// Strong-scaling efficiency relative to the first (most
	// work-dominated) point: the ideal rate scales inversely with the
	// ACTUAL per-rank load after lattice snapping.
	if len(points) > 0 {
		base := points[0]
		for i := range points {
			if points[i].ActualAPC <= 0 {
				continue
			}
			ideal := base.ActualAPC / points[i].ActualAPC
			if base.RateCh4 > 0 {
				points[i].EffCh4 = points[i].RateCh4 / (base.RateCh4 * ideal)
			}
			if base.RateOrig > 0 {
				points[i].EffOrig = points[i].RateOrig / (base.RateOrig * ideal)
			}
		}
	}
	return points, nil
}
