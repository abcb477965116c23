// halo3d: a 3-D halo exchange on a Cartesian topology with persistent
// requests — the production idiom for stencil and lattice codes. The
// communicator comes from CartCreate, the neighbor ranks from Shift
// (with MPI_PROC_NULL at the non-periodic boundaries), and the
// exchange itself is a set of persistent operations initialized once
// and restarted every iteration, amortizing the MPI layer's argument
// validation. Event tracing prints the per-operation profile at the
// end.
//
// Run:
//
//	go run ./examples/halo3d
package main

import (
	"fmt"
	"log"
	"os"

	"gompi"
)

const (
	nLocal = 16 // local cube edge (points)
	iters  = 30
)

func main() {
	dims, err := gompi.DimsCreate(8, 3, nil) // 2x2x2
	if err != nil {
		log.Fatal(err)
	}
	cfg := gompi.Config{Device: gompi.DeviceCH4, Fabric: gompi.FabricBGQ, Trace: true}
	err = gompi.Run(8, cfg, func(p *gompi.Proc) error {
		cart, err := p.World().CartCreate(dims, []bool{true, true, false})
		if err != nil {
			return err
		}

		// One face buffer per direction; persistent send/recv pairs
		// bound once. PROC_NULL neighbors simply get no operations —
		// the application-level check of Section 3.4.
		face := nLocal * nLocal * 8
		var ops []*gompi.PersistentOp
		for dim := 0; dim < 3; dim++ {
			src, dst, err := cart.Shift(dim, 1)
			if err != nil {
				return err
			}
			for side, peerPair := range [][2]int{{dst, src}, {src, dst}} {
				sendTo, recvFrom := peerPair[0], peerPair[1]
				tag := 2*dim + side
				if sendTo != gompi.ProcNull {
					out := make([]byte, face)
					for i := range out {
						out[i] = byte(cart.Rank())
					}
					op, err := cart.SendInit(out, face, gompi.Byte, sendTo, tag)
					if err != nil {
						return err
					}
					ops = append(ops, op)
				}
				if recvFrom != gompi.ProcNull {
					in := make([]byte, face)
					op, err := cart.RecvInit(in, face, gompi.Byte, recvFrom, tag)
					if err != nil {
						return err
					}
					ops = append(ops, op)
				}
			}
		}

		for it := 0; it < iters; it++ {
			if err := gompi.StartAll(ops); err != nil {
				return err
			}
			for _, op := range ops {
				if _, err := op.Wait(); err != nil {
					return err
				}
			}
			// "Compute" on the interior while halos are fresh.
			p.ChargeCompute(int64(nLocal * nLocal * nLocal * 8))
		}
		if err := cart.Barrier(); err != nil {
			return err
		}

		if p.Rank() == 0 {
			fmt.Printf("3-D halo exchange, %v grid, %d^3 local points, %d iterations\n",
				dims, nLocal, iters)
			c := p.Counters()
			fmt.Printf("rank 0: %d MPI instructions, %.2f ms virtual time\n",
				c.TotalInstr, p.VirtualTime()*1e3)
			fmt.Println("\nrank 0 operation profile:")
			p.WriteTraceSummary(os.Stdout)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
