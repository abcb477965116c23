package gompi

import (
	"fmt"
	"testing"
)

// TestGraphNeighborAlltoallv exchanges ragged per-neighbor payloads on
// an explicit distributed graph (MPI_DIST_GRAPH_CREATE_ADJACENT): each
// rank sends rank+1 bytes to every out-neighbor and receives src+1
// bytes from every in-neighbor, on both devices.
func TestGraphNeighborAlltoallv(t *testing.T) {
	const ranks = 4
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		t.Run(string(dev), func(t *testing.T) {
			run(t, ranks, Config{Device: dev, Fabric: "ofi", RanksPerNode: 2}, func(p *Proc) error {
				w := p.World()
				// A directed cycle plus a chord from every rank to rank 0.
				sources := []int{(p.Rank() + ranks - 1) % ranks}
				destinations := []int{(p.Rank() + 1) % ranks}
				if p.Rank() != 0 {
					destinations = append(destinations, 0)
				} else {
					for s := 1; s < ranks; s++ {
						sources = append(sources, s)
					}
				}
				g, err := w.DistGraphCreateAdjacent(sources, destinations)
				if err != nil {
					return err
				}
				sendCounts := make([]int, len(destinations))
				sendDispls := make([]int, len(destinations))
				total := 0
				for i := range destinations {
					sendCounts[i] = p.Rank() + 1
					sendDispls[i] = total
					total += sendCounts[i]
				}
				send := make([]byte, total)
				for i := range send {
					send[i] = byte(10*p.Rank() + i)
				}
				recvCounts := make([]int, len(sources))
				recvDispls := make([]int, len(sources))
				total = 0
				for i, s := range sources {
					recvCounts[i] = s + 1
					recvDispls[i] = total
					total += recvCounts[i]
				}
				recv := make([]byte, total)
				if err := g.NeighborAlltoallv(send, sendCounts, sendDispls,
					recv, recvCounts, recvDispls, Byte); err != nil {
					return err
				}
				// The k-th receive from a duplicated source pairs with that
				// source's k-th edge toward us (pairwise FIFO). Rank 0 sees
				// rank ranks-1 twice: its cycle block (offset 0) then its
				// chord block (offset s+1); every other in-edge is a chord
				// block at offset s+1, except the plain cycle edge.
				seen := map[int]int{}
				for i, s := range sources {
					occ := seen[s]
					seen[s]++
					off := s + 1 // chord block offset in s's send buffer
					if p.Rank() == (s+1)%ranks && occ == 0 {
						off = 0 // s's first edge toward us is the cycle block
					}
					for j := 0; j < recvCounts[i]; j++ {
						want := byte(10*s + off + j)
						if recv[recvDispls[i]+j] != want {
							return fmt.Errorf("from %d (occurrence %d) byte %d = %d, want %d",
								s, occ, j, recv[recvDispls[i]+j], want)
						}
					}
				}
				return nil
			})
		})
	}
}

// TestNeighborProcNullZeroing: on a non-periodic grid the boundary
// ranks' missing neighbors are PROC_NULL, and their receive blocks
// must be zeroed on every activation — including replays over a dirty
// buffer, which exercises the schedule prologue.
func TestNeighborProcNullZeroing(t *testing.T) {
	const ranks = 4
	run(t, ranks, Config{Fabric: "ofi", RanksPerNode: 2}, func(p *Proc) error {
		w := p.World()
		cc, err := w.CartCreate([]int{ranks}, []bool{false})
		if err != nil {
			return err
		}
		send := []byte{byte(p.Rank() + 1)}
		recv := make([]byte, 2)
		for round := 0; round < 2; round++ {
			recv[0], recv[1] = 0xee, 0xee // dirty: zeroing must be per-activation
			if err := cc.NeighborAllgather(send, recv, 1, Byte); err != nil {
				return err
			}
			var wantLo, wantHi byte
			if p.Rank() > 0 {
				wantLo = byte(p.Rank())
			}
			if p.Rank() < ranks-1 {
				wantHi = byte(p.Rank() + 2)
			}
			if recv[0] != wantLo || recv[1] != wantHi {
				return fmt.Errorf("round %d: recv = %v, want [%d %d]",
					round, recv, wantLo, wantHi)
			}
		}
		return nil
	})
}

// TestNeighborAlltoallChangingCounts: the blocking neighborhood
// exchanges recompile in place on every call, so repeating them on the
// same buffers with counts that change from call to call must follow
// the counts — nothing of an earlier shape may be replayed.
func TestNeighborAlltoallChangingCounts(t *testing.T) {
	const ranks, maxCount = 4, 5
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		t.Run(string(dev), func(t *testing.T) {
			run(t, ranks, Config{Device: dev, Fabric: "ofi", RanksPerNode: 2}, func(p *Proc) error {
				lo, hi := (p.Rank()+ranks-1)%ranks, (p.Rank()+1)%ranks
				g, err := p.World().DistGraphCreateAdjacent([]int{lo, hi}, []int{lo, hi})
				if err != nil {
					return err
				}
				send, recv := make([]byte, 2*maxCount), make([]byte, 2*maxCount)
				// Block j of a rank's send buffer, filled for round r, is
				// count bytes of stamp(rank, j, r).
				stamp := func(rank, j, r int) byte { return byte(64*r + 8*rank + j + 1) }
				check := func(what string, r, count, off0, off1 int) error {
					// Our low neighbor sent us its block 1 (we are its high
					// neighbor), our high neighbor its block 0.
					for k := 0; k < count; k++ {
						if recv[off0+k] != stamp(lo, 1, r) || recv[off1+k] != stamp(hi, 0, r) {
							return fmt.Errorf("%s round %d count %d: recv = %v", what, r, count, recv)
						}
					}
					return nil
				}
				for r, count := range []int{1, 3, 2, maxCount, 1} {
					for j := 0; j < 2; j++ {
						for k := 0; k < count; k++ {
							send[j*count+k] = stamp(p.Rank(), j, r)
						}
					}
					clear(recv)
					if err := g.NeighborAlltoall(send, recv, count, Byte); err != nil {
						return err
					}
					if err := check("alltoall", r, count, 0, count); err != nil {
						return err
					}
					// The ragged form on the same buffers and the same
					// table slices, their contents changing per round: the
					// receive blocks swap places every other round.
					counts, displs := []int{count, count}, []int{0, count}
					rdispls := []int{(r % 2) * count, (1 - r%2) * count}
					clear(recv)
					if err := g.NeighborAlltoallv(send, counts, displs, recv, counts, rdispls, Byte); err != nil {
						return err
					}
					if err := check("alltoallv", r, count, rdispls[0], rdispls[1]); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

// TestNeighborPersistentReplay: the persistent neighborhood exchange
// picks up fresh send-buffer contents on every activation.
func TestNeighborPersistentReplay(t *testing.T) {
	const ranks = 4
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		t.Run(string(dev), func(t *testing.T) {
			run(t, ranks, Config{Device: dev, Fabric: "ofi", RanksPerNode: 2}, func(p *Proc) error {
				w := p.World()
				cc, err := w.CartCreate([]int{ranks}, []bool{true})
				if err != nil {
					return err
				}
				send := make([]byte, 4)
				recv := make([]byte, 8)
				op, err := cc.NeighborAllgatherInit(send, recv, 4, Byte)
				if err != nil {
					return err
				}
				lo := (p.Rank() + ranks - 1) % ranks
				hi := (p.Rank() + 1) % ranks
				for round := 0; round < 4; round++ {
					for i := range send {
						send[i] = byte(10*p.Rank() + round)
					}
					if err := op.Start(); err != nil {
						return err
					}
					if err := op.Wait(); err != nil {
						return err
					}
					if recv[0] != byte(10*lo+round) || recv[4] != byte(10*hi+round) {
						return fmt.Errorf("round %d: recv = %v", round, recv)
					}
				}
				return nil
			})
		})
	}
}
