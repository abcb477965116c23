// mdcell: a small molecular-dynamics run on the public API — the
// LAMMPS-style workload of the paper's Section 4.4 — comparing the
// lightweight ch4 device against the CH3-style baseline at the
// strong-scaling limit, where the per-step neighbor exchange is
// latency-bound and the MPI software path shows up directly in
// timesteps per second.
//
// Run:
//
//	go run ./examples/mdcell
package main

import (
	"fmt"
	"log"

	"gompi"
	"gompi/internal/md"
)

func main() {
	prm := md.Params{
		AtomsPerCore: 64,
		RankGrid:     [3]int{2, 2, 2},
		Steps:        20,
	}
	fmt.Printf("LJ melt, %d ranks, ~%d atoms/core, %d steps, BG/Q platform profile\n\n",
		8, prm.AtomsPerCore, prm.Steps)

	for _, dev := range []gompi.DeviceKind{gompi.DeviceCH4, gompi.DeviceOriginal} {
		var res md.Result
		err := gompi.Run(8, gompi.Config{Device: dev, Fabric: gompi.FabricBGQ}, func(p *gompi.Proc) error {
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
			log.Fatal(err)
		}
		fmt.Printf("%-9s %8.1f timesteps/s   %5.1f%% comm   energy drift %+.2e   |p| = %.2e\n",
			dev+":", res.StepsPerSec, 100*res.CommFrac,
			(res.Energy-res.InitialEnergy)/res.InitialEnergy, res.Momentum)
	}
}
