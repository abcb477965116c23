// rma: one-sided communication on the public API — window creation,
// fence epochs, put/get/accumulate, a passive-target atomic counter,
// and the paper's Section 3.2 virtual-address proposal
// (MPI_PUT_VIRTUAL_ADDR), including on a dynamic window.
//
// Run:
//
//	go run ./examples/rma
package main

import (
	"fmt"
	"log"

	"gompi"
)

func main() {
	err := gompi.Run(4, gompi.Config{Device: gompi.DeviceCH4, Fabric: gompi.FabricUCX}, func(p *gompi.Proc) error {
		world := p.World()
		rank, size := p.Rank(), p.Size()

		// --- fence epoch: everyone writes its rank into rank 0 -------
		win, mem, err := world.WinAllocate(8*size, 8) // 8-byte displacement unit
		if err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		cell := gompi.Int64Bytes([]int64{int64(rank * rank)}, nil)
		if err := win.Put(cell, 8, gompi.Byte, 0, rank); err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if rank == 0 {
			vals := gompi.BytesInt64(mem, nil)
			fmt.Printf("rank 0 window after puts: %v (squares by origin rank)\n", vals)
		}

		// --- passive target: a shared atomic counter on rank 0 -------
		// End the fence epoch sequence first (MPI_MODE_NOSUCCEED).
		if err := win.FenceEnd(); err != nil {
			return err
		}
		if err := win.Lock(0, true); err != nil {
			return err
		}
		one := gompi.Int64Bytes([]int64{1}, nil)
		old := make([]byte, 8)
		if err := win.FetchAndOp(one, old, gompi.Long, 0, 0, gompi.OpSum); err != nil {
			return err
		}
		if err := win.Unlock(0); err != nil {
			return err
		}
		ticket := gompi.BytesInt64(old, nil)[0]
		fmt.Printf("rank %d drew ticket %d\n", rank, ticket)
		if err := world.Barrier(); err != nil {
			return err
		}

		// --- virtual-address put on a dynamic window (Section 3.2) ---
		dyn, err := world.WinCreateDynamic()
		if err != nil {
			return err
		}
		var va gompi.VAddr
		slab := make([]byte, 64)
		if rank == 1 {
			va, err = dyn.Attach(slab)
			if err != nil {
				return err
			}
		}
		// Publish rank 1's address the way applications do: a bcast.
		addr := gompi.Int64Bytes([]int64{int64(va)}, nil)
		if err := world.Bcast(addr, 1, gompi.Long, 1); err != nil {
			return err
		}
		va = gompi.VAddr(gompi.BytesInt64(addr, nil)[0])
		if err := dyn.Fence(); err != nil {
			return err
		}
		if rank == 2 {
			if err := dyn.PutVirtualAddr([]byte("via-virtual-address"), 19, gompi.Byte, 1, va); err != nil {
				return err
			}
		}
		if err := dyn.Fence(); err != nil {
			return err
		}
		if rank == 1 {
			fmt.Printf("rank 1 dynamic window now holds %q\n", slab[:19])
			if err := dyn.Detach(slab, va); err != nil {
				return err
			}
		}
		if err := world.Barrier(); err != nil {
			return err
		}
		if err := dyn.Free(); err != nil {
			return err
		}
		return win.Free()
	})
	if err != nil {
		log.Fatal(err)
	}
}
