// Quickstart: the gompi equivalent of every MPI tutorial's first
// program — init, rank/size, point-to-point ping-pong, a broadcast, an
// allreduce, and the cost counters that make this library a
// reproduction of "Why Is MPI So Slow?" (SC'17) rather than just
// another message-passing toy.
//
// Run:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"gompi"
)

func main() {
	cfg := gompi.Config{
		Device: gompi.DeviceCH4, // the paper's lightweight device
		Fabric: gompi.FabricOFI, // simulated Omni-Path/PSM2
	}
	err := gompi.Run(4, cfg, func(p *gompi.Proc) error {
		world := p.World()
		rank, size := p.Rank(), p.Size()

		// --- point-to-point ping-pong between ranks 0 and 1 ---------
		if rank == 0 {
			msg := []byte("hello from rank 0")
			if err := world.Send(msg, len(msg), gompi.Byte, 1, 42); err != nil {
				return err
			}
			reply := make([]byte, 64)
			st, err := world.Recv(reply, len(reply), gompi.Byte, 1, 43)
			if err != nil {
				return err
			}
			fmt.Printf("rank 0 got %q (%d bytes) from rank %d\n",
				reply[:st.Count], st.Count, st.Source)
		} else if rank == 1 {
			buf := make([]byte, 64)
			st, err := world.Recv(buf, len(buf), gompi.Byte, 0, 42)
			if err != nil {
				return err
			}
			reply := append([]byte("ack: "), buf[:st.Count]...)
			if err := world.Send(reply, len(reply), gompi.Byte, 0, 43); err != nil {
				return err
			}
		}

		// --- collectives ---------------------------------------------
		if err := world.Barrier(); err != nil {
			return err
		}
		data := []byte{0}
		if rank == 0 {
			data[0] = 99
		}
		if err := world.Bcast(data, 1, gompi.Byte, 0); err != nil {
			return err
		}
		sums, err := world.AllreduceFloat64([]float64{float64(rank)}, gompi.OpSum)
		if err != nil {
			return err
		}
		fmt.Printf("rank %d/%d: bcast=%d allreduce-sum=%v\n", rank, size, data[0], sums[0])

		// --- the paper's instrumentation ------------------------------
		c := p.Counters()
		fmt.Printf("rank %d spent %d MPI instructions (%d mandatory) and %.1f us virtual time\n",
			rank, c.TotalInstr, c.Mandatory, p.VirtualTime()*1e6)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
