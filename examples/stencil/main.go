// Stencil: a 2-D five-point Jacobi iteration with halo exchange — the
// exact application pattern the paper's Section 3.1 proposal targets.
// Each rank owns a block of the grid and exchanges boundary rows and
// columns with its four neighbors every sweep. The example runs the
// exchange twice: once with plain MPI-3.1 calls, and once with the
// paper's proposed extensions (MPI_ISEND_GLOBAL with precomputed world
// ranks, no-PROC_NULL sends at interior ranks, requestless completion),
// then prints the instruction savings.
//
// Run:
//
//	go run ./examples/stencil
package main

import (
	"fmt"
	"log"
	"math"

	"gompi"
)

const (
	gridP  = 2  // 2x2 process grid
	nLocal = 32 // local block size (nLocal x nLocal)
	sweeps = 50
)

func main() {
	cfg := gompi.Config{Device: gompi.DeviceCH4, Fabric: gompi.FabricOFI, Build: gompi.BuildNoErrSingleIPO}
	err := gompi.Run(gridP*gridP, cfg, func(p *gompi.Proc) error {
		world := p.World()
		px, py := p.Rank()%gridP, p.Rank()/gridP

		// Neighbor ranks; MPI_PROC_NULL at the domain boundary.
		left, right, up, down := gompi.ProcNull, gompi.ProcNull, gompi.ProcNull, gompi.ProcNull
		if px > 0 {
			left = p.Rank() - 1
		}
		if px < gridP-1 {
			right = p.Rank() + 1
		}
		if py > 0 {
			up = p.Rank() - gridP
		}
		if py < gridP-1 {
			down = p.Rank() + gridP
		}

		// Local block with a one-cell halo; fixed boundary condition
		// u=1 on the global edge, u=0 inside.
		n := nLocal + 2
		u := make([]float64, n*n)
		next := make([]float64, n*n)
		at := func(g []float64, i, j int) *float64 { return &g[i+n*j] }
		for i := 0; i < n; i++ {
			if px == 0 {
				*at(u, 1, i) = 1
			}
			if py == 0 {
				*at(u, i, 1) = 1
			}
		}

		row := make([]byte, 8*nLocal)
		col := make([]byte, 8*nLocal)
		rowIn := make([]byte, 8*nLocal)
		colIn := make([]byte, 8*nLocal)
		vals := make([]float64, nLocal)

		// The proposal pattern: translate neighbor ranks to
		// MPI_COMM_WORLD ranks once (they already are, here; a real
		// code would call MPI_GROUP_TRANSLATE_RANKS), then use
		// MPI_ISEND_GLOBAL + no-request completion in the loop. The
		// per-side PROC_NULL checks move into the application — done
		// once below, not per message.
		type side struct {
			peer  int
			tagTx int
			tagRx int
			fill  func() []byte   // gather my boundary into a wire buffer
			apply func(in []byte) // scatter the received halo
		}
		sides := []side{
			{left, 0, 1,
				func() []byte {
					for j := 0; j < nLocal; j++ {
						vals[j] = *at(u, 1, j+1)
					}
					return gompi.Float64Bytes(vals, col)
				},
				func(in []byte) {
					for j, v := range gompi.BytesFloat64(in, vals) {
						*at(u, 0, j+1) = v
					}
				}},
			{right, 1, 0,
				func() []byte {
					for j := 0; j < nLocal; j++ {
						vals[j] = *at(u, nLocal, j+1)
					}
					return gompi.Float64Bytes(vals, col)
				},
				func(in []byte) {
					for j, v := range gompi.BytesFloat64(in, vals) {
						*at(u, nLocal+1, j+1) = v
					}
				}},
			{up, 2, 3,
				func() []byte {
					for i := 0; i < nLocal; i++ {
						vals[i] = *at(u, i+1, 1)
					}
					return gompi.Float64Bytes(vals, row)
				},
				func(in []byte) {
					for i, v := range gompi.BytesFloat64(in, vals) {
						*at(u, i+1, 0) = v
					}
				}},
			{down, 3, 2,
				func() []byte {
					for i := 0; i < nLocal; i++ {
						vals[i] = *at(u, i+1, nLocal+1)
					}
					return gompi.Float64Bytes(vals, row)
				},
				func(in []byte) {
					for i, v := range gompi.BytesFloat64(in, vals) {
						*at(u, i+1, nLocal+1) = v
					}
				}},
		}

		exchange := func(useProposals bool) error {
			for _, s := range sides {
				if s.peer == gompi.ProcNull {
					if !useProposals {
						// Plain MPI-3.1: let the library discard it.
						if err := world.IsendNoReq(row[:0], 0, gompi.Byte, s.peer, s.tagTx); err != nil {
							return err
						}
					}
					continue // proposal path: the app checked once
				}
				wire := s.fill()
				if useProposals {
					if _, err := world.IsendOpt(wire, len(wire), gompi.Byte, s.peer, s.tagTx,
						gompi.SendOptions{GlobalRank: true, NoProcNull: true, NoReq: true}); err != nil {
						return err
					}
				} else {
					if err := world.IsendNoReq(wire, len(wire), gompi.Byte, s.peer, s.tagTx); err != nil {
						return err
					}
				}
			}
			for _, s := range sides {
				if s.peer == gompi.ProcNull {
					continue
				}
				buf := rowIn
				if s.tagRx < 2 {
					buf = colIn
				}
				if _, err := world.Recv(buf, len(buf), gompi.Byte, s.peer, s.tagRx); err != nil {
					return err
				}
				s.apply(buf)
			}
			return world.CommWaitall()
		}

		run := func(useProposals bool) (float64, int64, error) {
			before := p.Counters()
			var resid float64
			for s := 0; s < sweeps; s++ {
				if err := exchange(useProposals); err != nil {
					return 0, 0, err
				}
				resid = 0
				for j := 1; j <= nLocal; j++ {
					for i := 1; i <= nLocal; i++ {
						v := 0.25 * (*at(u, i-1, j) + *at(u, i+1, j) + *at(u, i, j-1) + *at(u, i, j+1))
						resid += math.Abs(v - *at(u, i, j))
						*at(next, i, j) = v
					}
				}
				p.ChargeCompute(int64(nLocal * nLocal * 6))
				u, next = next, u
			}
			instr := p.Counters().Sub(before).TotalInstr
			sums, err := world.AllreduceFloat64([]float64{resid}, gompi.OpSum)
			if err != nil {
				return 0, 0, err
			}
			return sums[0], instr, nil
		}

		res31, instr31, err := run(false)
		if err != nil {
			return err
		}
		resProp, instrProp, err := run(true)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			fmt.Printf("Jacobi 5-point stencil, %dx%d ranks, %dx%d local, %d sweeps x2\n",
				gridP, gridP, nLocal, nLocal, sweeps)
			fmt.Printf("  MPI-3.1 exchange:   residual %.4f, %6d MPI instructions\n", res31, instr31)
			fmt.Printf("  proposals exchange: residual %.4f, %6d MPI instructions (%.1f%% fewer)\n",
				resProp, instrProp, 100*float64(instr31-instrProp)/float64(instr31))
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
