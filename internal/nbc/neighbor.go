package nbc

// Neighborhood collectives: each rank exchanges only with the
// neighbors its virtual topology declares (MPI_NEIGHBOR_ALLGATHER and
// friends). The compilers below are single-round — every declared
// transfer is independent — so the interesting work is the posting
// order: pending completions are polled in posting order, which makes
// posting order the drain priority. Shm-reachable neighbors turn
// around orders of magnitude faster than net peers, so the compilers
// stably partition each peer list local-first: same-node traffic is
// injected and reaped before the schedule parks on the network.
//
// ProcNull neighbors (the open edges of a non-periodic Cartesian grid)
// are passed as -1: no transfer is emitted, and the corresponding
// receive block is zeroed through the schedule prologue so persistent
// replays re-zero it exactly like a fresh compile.

import (
	"fmt"

	"gompi/internal/metrics"
)

// nodeOf resolves a rank's node id, arithmetically when the transport
// reports a block mapping (rpn > 0).
func nodeOf(t Transport, rpn int, rank int) int {
	if rpn > 0 {
		return rank / rpn
	}
	return t.Node(rank)
}

// orderLocalFirst returns a posting order over peers (indices into the
// slice) with same-node neighbors first. The partition is stable, so
// repeated neighbors keep their relative order and pairwise FIFO
// matching is preserved on both sides of every exchange. Negative
// (ProcNull) entries are dropped.
func orderLocalFirst(t Transport, peers []int) []int {
	rpn, _ := t.RanksPerNodeBlock()
	myNode := nodeOf(t, rpn, t.Rank())
	order := make([]int, 0, len(peers))
	for i, p := range peers {
		if p >= 0 && nodeOf(t, rpn, p) == myNode {
			order = append(order, i)
		}
	}
	for i, p := range peers {
		if p >= 0 && nodeOf(t, rpn, p) != myNode {
			order = append(order, i)
		}
	}
	return order
}

// NeighborAllgather compiles the neighborhood allgather: the rank's
// sendBuf goes to every destination, and each source's block lands in
// recv at that source's position in the sources list. Block size is
// len(sendBuf); recv must hold len(sources) blocks.
func NeighborAllgather(s *Schedule, t Transport, tag int, sendBuf, recv []byte, sources, destinations []int) error {
	bs := len(sendBuf)
	if len(recv) < bs*len(sources) {
		return fmt.Errorf("nbc: neighbor allgather recv buffer %d < %d", len(recv), bs*len(sources))
	}
	s.Begin(t, tag, metrics.CollNeighborAllgather, bs)
	for i, src := range sources {
		if src < 0 {
			s.zero(recv[i*bs : (i+1)*bs])
		}
	}
	for _, j := range orderLocalFirst(t, destinations) {
		s.sendNoCopy(sendBuf, destinations[j])
	}
	for _, i := range orderLocalFirst(t, sources) {
		s.recv(recv[i*bs:(i+1)*bs], sources[i])
	}
	s.endRound()
	return nil
}

// NeighborAlltoall compiles the neighborhood all-to-all: send block j
// of sendBuf goes to destinations[j], and source i's block lands in
// recv block i. Both buffers are divided into equal blocks of bs
// bytes.
func NeighborAlltoall(s *Schedule, t Transport, tag, bs int, sendBuf, recv []byte, sources, destinations []int) error {
	if len(sendBuf) < bs*len(destinations) {
		return fmt.Errorf("nbc: neighbor alltoall send buffer %d < %d", len(sendBuf), bs*len(destinations))
	}
	if len(recv) < bs*len(sources) {
		return fmt.Errorf("nbc: neighbor alltoall recv buffer %d < %d", len(recv), bs*len(sources))
	}
	s.Begin(t, tag, metrics.CollNeighborAlltoall, bs)
	for i, src := range sources {
		if src < 0 {
			s.zero(recv[i*bs : (i+1)*bs])
		}
	}
	for _, j := range orderLocalFirst(t, destinations) {
		s.sendNoCopy(sendBuf[j*bs:(j+1)*bs], destinations[j])
	}
	for _, i := range orderLocalFirst(t, sources) {
		s.recv(recv[i*bs:(i+1)*bs], sources[i])
	}
	s.endRound()
	return nil
}

// NeighborAlltoallv is the ragged variant: per-destination byte counts
// and displacements into sendBuf, per-source byte counts and
// displacements into recv. Counts and displacement slices must match
// the neighbor lists in length.
func NeighborAlltoallv(s *Schedule, t Transport, tag int, sendBuf []byte, sendCounts, sendDispls []int, recv []byte, recvCounts, recvDispls []int, sources, destinations []int) error {
	if len(sendCounts) != len(destinations) || len(sendDispls) != len(destinations) {
		return fmt.Errorf("nbc: neighbor alltoallv send counts/displs %d/%d != %d destinations", len(sendCounts), len(sendDispls), len(destinations))
	}
	if len(recvCounts) != len(sources) || len(recvDispls) != len(sources) {
		return fmt.Errorf("nbc: neighbor alltoallv recv counts/displs %d/%d != %d sources", len(recvCounts), len(recvDispls), len(sources))
	}
	total := 0
	for _, n := range sendCounts {
		total += n
	}
	s.Begin(t, tag, metrics.CollNeighborAlltoallv, total)
	for i, src := range sources {
		if src < 0 {
			s.zero(recv[recvDispls[i] : recvDispls[i]+recvCounts[i]])
		}
	}
	for _, j := range orderLocalFirst(t, destinations) {
		if sendCounts[j] > 0 {
			s.sendNoCopy(sendBuf[sendDispls[j]:sendDispls[j]+sendCounts[j]], destinations[j])
		}
	}
	for _, i := range orderLocalFirst(t, sources) {
		if recvCounts[i] > 0 {
			s.recv(recv[recvDispls[i]:recvDispls[i]+recvCounts[i]], sources[i])
		}
	}
	s.endRound()
	return nil
}
