package gompi

import (
	"gompi/internal/nbc"
	"gompi/internal/topo"
)

// CartComm is a communicator with an attached Cartesian topology
// (MPI_CART_CREATE). It embeds the communicator, so all communication
// calls work directly on it.
type CartComm struct {
	*Comm
	cart *topo.Cart
}

// DimsCreate factors nnodes into ndims balanced extents
// (MPI_DIMS_CREATE). Nonzero entries of hints are kept fixed.
func DimsCreate(nnodes, ndims int, hints []int) ([]int, error) {
	dims, err := topo.DimsCreate(nnodes, ndims, hints)
	if err != nil {
		return nil, errc(ErrArg, "%v", err)
	}
	return dims, nil
}

// CartCreate attaches a Cartesian topology to a duplicate of the
// communicator (MPI_CART_CREATE). The grid must exactly cover the
// communicator; rank reordering is not performed (reorder=false
// semantics). Collective.
func (c *Comm) CartCreate(dims []int, periodic []bool) (*CartComm, error) {
	if err := c.p.checkComm(c); err != nil {
		return nil, err
	}
	cart, err := topo.NewCart(dims, periodic)
	if err != nil {
		return nil, errc(ErrArg, "%v", err)
	}
	if cart.Size() != c.Size() {
		return nil, errc(ErrArg, "grid %v has %d positions, communicator has %d ranks",
			dims, cart.Size(), c.Size())
	}
	dup, err := c.Dup()
	if err != nil {
		return nil, err
	}
	return &CartComm{Comm: dup, cart: cart}, nil
}

// Dims returns the grid extents.
func (c *CartComm) Dims() []int { return c.cart.Dims() }

// Coords returns the calling rank's grid coordinates (MPI_CART_COORDS
// on the own rank).
func (c *CartComm) Coords() []int {
	coords, _ := c.cart.Coords(c.Rank())
	return coords
}

// CoordsOf returns any rank's coordinates.
func (c *CartComm) CoordsOf(rank int) ([]int, error) {
	coords, err := c.cart.Coords(rank)
	if err != nil {
		return nil, errc(ErrRank, "%v", err)
	}
	return coords, nil
}

// CartRank returns the rank at the given coordinates (MPI_CART_RANK),
// wrapping periodic dimensions.
func (c *CartComm) CartRank(coords []int) (int, error) {
	r, err := c.cart.Rank(coords)
	if err != nil {
		return -1, errc(ErrArg, "%v", err)
	}
	return r, nil
}

// Shift returns (src, dst) for a displacement along dim
// (MPI_CART_SHIFT): the caller receives from src and sends to dst;
// ProcNull marks a non-periodic boundary — ready to pass straight to
// Send/Recv, which is the application pattern the paper's PROC_NULL
// analysis (Section 3.4) describes.
func (c *CartComm) Shift(dim, disp int) (src, dst int, err error) {
	src, dst, err = c.cart.Shift(c.Rank(), dim, disp)
	if err != nil {
		return ProcNull, ProcNull, errc(ErrArg, "%v", err)
	}
	return src, dst, nil
}

// Neighbors returns the 2*ndims nearest neighbors (low, high per
// dimension), ProcNull at non-periodic boundaries.
func (c *CartComm) Neighbors() []int {
	nb, _ := c.cart.Neighbors(c.Rank())
	return nb
}

// Neighborhood collectives (MPI_NEIGHBOR_ALLGATHER and friends): each
// rank exchanges only with its declared neighbors, compiled through the
// nbc schedule engine. The compilers order each transfer list
// local-first — shm-reachable neighbors are injected and drained before
// the schedule parks on net peers. Like every collective (see coll.go)
// each is one definition over explicit neighbor lists — CartComm and
// GraphComm supply theirs — run in the blocking or the persistent frame;
// a halo exchange repeated every iteration that wants its set-up
// amortised declares so with the *Init forms. ProcNull neighbors (the
// open edges of a non-periodic grid) transfer nothing; their receive
// blocks are zeroed on every activation through the schedule prologue.

// neighborAllgather sends one block to every destination and receives
// one from every source.
func neighborAllgather(send, recv []byte, count int, dt *Datatype, sources, destinations []int) compileFn {
	return func(s *nbc.Schedule, t *nbcPort, tag int, _ nbc.Force) error {
		n, err := collBuf(count, dt, send)
		if err == nil {
			_, err = collBuf(count*len(sources), dt, recv)
		}
		if err != nil {
			return err
		}
		return nbc.NeighborAllgather(s, t, tag, send[:n], recv[:n*len(sources)], sources, destinations)
	}
}

// neighborAlltoall sends block j to destination j and receives block i
// from source i.
func neighborAlltoall(send, recv []byte, count int, dt *Datatype, sources, destinations []int) compileFn {
	return func(s *nbc.Schedule, t *nbcPort, tag int, _ nbc.Force) error {
		n, err := collBuf(count*len(destinations), dt, send)
		if err == nil {
			_, err = collBuf(count*len(sources), dt, recv)
		}
		if err != nil {
			return err
		}
		block := count * dt.Size()
		return nbc.NeighborAlltoall(s, t, tag, block, send[:n], recv[:block*len(sources)], sources, destinations)
	}
}

// scaleVec multiplies a count/displacement vector by the element size.
func scaleVec(v []int, es int) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = x * es
	}
	return out
}

// NeighborAllgather exchanges one equal-size block with every nearest
// neighbor (MPI_NEIGHBOR_ALLGATHER on the Cartesian topology): recv
// holds 2*ndims blocks in Neighbors() order; blocks from ProcNull
// neighbors are zeroed.
func (c *CartComm) NeighborAllgather(send, recv []byte, count int, dt *Datatype) error {
	nb := c.Neighbors()
	return c.bcoll(nbc.ForceAuto, neighborAllgather(send, recv, count, dt, nb, nb))
}

// NeighborAlltoall sends a distinct block to each nearest neighbor and
// receives one from each (MPI_NEIGHBOR_ALLTOALL on the Cartesian
// topology), blocks in Neighbors() order.
func (c *CartComm) NeighborAlltoall(send, recv []byte, count int, dt *Datatype) error {
	nb := c.Neighbors()
	return c.bcoll(nbc.ForceAuto, neighborAlltoall(send, recv, count, dt, nb, nb))
}

// NeighborAllgatherInit binds a persistent neighborhood allgather
// (MPI_NEIGHBOR_ALLGATHER_INIT): the halo-exchange schedule — transfer
// list, locality ordering, ProcNull zeroing — compiles once, and every
// Start replays it.
func (c *CartComm) NeighborAllgatherInit(send, recv []byte, count int, dt *Datatype) (*PersistentColl, error) {
	nb := c.Neighbors()
	return c.pcoll(neighborAllgather(send, recv, count, dt, nb, nb))
}

// NeighborAlltoallInit binds a persistent neighborhood all-to-all
// (MPI_NEIGHBOR_ALLTOALL_INIT).
func (c *CartComm) NeighborAlltoallInit(send, recv []byte, count int, dt *Datatype) (*PersistentColl, error) {
	nb := c.Neighbors()
	return c.pcoll(neighborAlltoall(send, recv, count, dt, nb, nb))
}

// GraphComm is a communicator with an attached distributed-graph
// topology (MPI_DIST_GRAPH_CREATE_ADJACENT): each rank declares the
// neighbors it receives from (sources) and sends to (destinations).
type GraphComm struct {
	*Comm
	sources      []int
	destinations []int
}

// DistGraphCreateAdjacent attaches an adjacent-specification graph
// topology to a duplicate of the communicator. Every rank passes its
// own in- and out-neighbor lists; reordering is not performed. The
// declared lists must be consistent across ranks (r lists s as a source
// exactly as often as s lists r as a destination) — as in MPI, an
// inconsistent graph is erroneous and shows up as a stall.
func (c *Comm) DistGraphCreateAdjacent(sources, destinations []int) (*GraphComm, error) {
	if err := c.p.checkComm(c); err != nil {
		return nil, err
	}
	for _, r := range sources {
		if r < 0 || r >= c.Size() {
			return nil, errc(ErrRank, "graph source %d outside [0,%d)", r, c.Size())
		}
	}
	for _, r := range destinations {
		if r < 0 || r >= c.Size() {
			return nil, errc(ErrRank, "graph destination %d outside [0,%d)", r, c.Size())
		}
	}
	dup, err := c.Dup()
	if err != nil {
		return nil, err
	}
	g := &GraphComm{Comm: dup}
	g.sources = append(g.sources, sources...)
	g.destinations = append(g.destinations, destinations...)
	return g, nil
}

// Sources returns the declared in-neighbors (copy).
func (c *GraphComm) Sources() []int { return append([]int(nil), c.sources...) }

// Destinations returns the declared out-neighbors (copy).
func (c *GraphComm) Destinations() []int { return append([]int(nil), c.destinations...) }

// NeighborAllgather exchanges the rank's block with its graph
// neighbors: send goes to every destination, recv holds one block per
// source in declaration order.
func (c *GraphComm) NeighborAllgather(send, recv []byte, count int, dt *Datatype) error {
	return c.bcoll(nbc.ForceAuto, neighborAllgather(send, recv, count, dt, c.sources, c.destinations))
}

// NeighborAlltoall sends block j to destination j and receives block i
// from source i.
func (c *GraphComm) NeighborAlltoall(send, recv []byte, count int, dt *Datatype) error {
	return c.bcoll(nbc.ForceAuto, neighborAlltoall(send, recv, count, dt, c.sources, c.destinations))
}

// NeighborAlltoallv is the ragged graph exchange: counts and
// displacements are in elements of dt, one entry per declared neighbor.
func (c *GraphComm) NeighborAlltoallv(send []byte, sendCounts, sendDispls []int, recv []byte, recvCounts, recvDispls []int, dt *Datatype) error {
	return c.bcoll(nbc.ForceAuto, func(s *nbc.Schedule, t *nbcPort, tag int, _ nbc.Force) error {
		if len(sendCounts) != len(c.destinations) || len(sendDispls) != len(c.destinations) {
			return errc(ErrArg, "neighbor alltoallv: %d/%d send counts/displs for %d destinations", len(sendCounts), len(sendDispls), len(c.destinations))
		}
		if len(recvCounts) != len(c.sources) || len(recvDispls) != len(c.sources) {
			return errc(ErrArg, "neighbor alltoallv: %d/%d recv counts/displs for %d sources", len(recvCounts), len(recvDispls), len(c.sources))
		}
		if dt == nil {
			return errc(ErrType, "nil datatype")
		}
		es := dt.Size()
		sc, sd := scaleVec(sendCounts, es), scaleVec(sendDispls, es)
		rc, rd := scaleVec(recvCounts, es), scaleVec(recvDispls, es)
		if len(send) < tableSpan(sc, sd) || len(recv) < tableSpan(rc, rd) {
			return errc(ErrBuffer, "neighbor alltoallv buffers short of their counts/displs tables")
		}
		return nbc.NeighborAlltoallv(s, t, tag, send, sc, sd, recv, rc, rd, c.sources, c.destinations)
	})
}

// NeighborAllgatherInit binds a persistent graph allgather.
func (c *GraphComm) NeighborAllgatherInit(send, recv []byte, count int, dt *Datatype) (*PersistentColl, error) {
	return c.pcoll(neighborAllgather(send, recv, count, dt, c.sources, c.destinations))
}

// NeighborAlltoallInit binds a persistent graph all-to-all.
func (c *GraphComm) NeighborAlltoallInit(send, recv []byte, count int, dt *Datatype) (*PersistentColl, error) {
	return c.pcoll(neighborAlltoall(send, recv, count, dt, c.sources, c.destinations))
}
