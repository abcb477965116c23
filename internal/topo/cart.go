// Package topo implements MPI virtual process topologies: the
// Cartesian topology (MPI_CART_CREATE and friends) that structures the
// halo-exchange applications of the paper's evaluation, including the
// dimension factorization of MPI_DIMS_CREATE. A topology is pure
// bookkeeping over a communicator — rank-to-coordinate mappings and
// neighbor computation — so this package has no communication of its
// own.
package topo

import (
	"errors"
	"fmt"
)

// ErrBadTopo reports an invalid topology request.
var ErrBadTopo = errors.New("topo: invalid topology")

// ProcNull is the neighbor value at a non-periodic boundary
// (MPI_PROC_NULL).
const ProcNull = -2

// Cart is a Cartesian topology over ranks 0..Size-1 in row-major order
// (dimension 0 varies slowest, matching MPI).
type Cart struct {
	dims     []int
	periodic []bool
	size     int
}

// NewCart builds a topology with the given extents and periodicity.
func NewCart(dims []int, periodic []bool) (*Cart, error) {
	if len(dims) == 0 || len(dims) != len(periodic) {
		return nil, fmt.Errorf("%w: dims %v periodic %v", ErrBadTopo, dims, periodic)
	}
	size := 1
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("%w: dimension %d", ErrBadTopo, d)
		}
		size *= d
	}
	return &Cart{
		dims:     append([]int(nil), dims...),
		periodic: append([]bool(nil), periodic...),
		size:     size,
	}, nil
}

// Size returns the number of positions in the grid.
func (c *Cart) Size() int { return c.size }

// Dims returns a copy of the extents.
func (c *Cart) Dims() []int { return append([]int(nil), c.dims...) }

// Coords returns the coordinates of a rank (MPI_CART_COORDS).
func (c *Cart) Coords(rank int) ([]int, error) {
	if rank < 0 || rank >= c.size {
		return nil, fmt.Errorf("%w: rank %d", ErrBadTopo, rank)
	}
	coords := make([]int, len(c.dims))
	// Row-major: dimension 0 varies slowest.
	for d := len(c.dims) - 1; d >= 0; d-- {
		coords[d] = rank % c.dims[d]
		rank /= c.dims[d]
	}
	return coords, nil
}

// Rank returns the rank at the given coordinates (MPI_CART_RANK).
// Periodic dimensions wrap; out-of-range coordinates on non-periodic
// dimensions are an error.
func (c *Cart) Rank(coords []int) (int, error) {
	if len(coords) != len(c.dims) {
		return -1, fmt.Errorf("%w: %d coords for %d dims", ErrBadTopo, len(coords), len(c.dims))
	}
	rank := 0
	for d := 0; d < len(c.dims); d++ {
		x := coords[d]
		if c.periodic[d] {
			x = ((x % c.dims[d]) + c.dims[d]) % c.dims[d]
		} else if x < 0 || x >= c.dims[d] {
			return -1, fmt.Errorf("%w: coord %d out of [0,%d)", ErrBadTopo, x, c.dims[d])
		}
		rank = rank*c.dims[d] + x
	}
	return rank, nil
}

// Shift returns the source and destination ranks for a displacement
// along one dimension (MPI_CART_SHIFT): src sends to the caller, the
// caller sends to dst. At a non-periodic boundary the value is
// ProcNull.
func (c *Cart) Shift(rank, dim, disp int) (src, dst int, err error) {
	if dim < 0 || dim >= len(c.dims) {
		return ProcNull, ProcNull, fmt.Errorf("%w: dimension %d", ErrBadTopo, dim)
	}
	coords, err := c.Coords(rank)
	if err != nil {
		return ProcNull, ProcNull, err
	}
	at := func(offset int) int {
		cc := append([]int(nil), coords...)
		cc[dim] += offset
		r, err := c.Rank(cc)
		if err != nil {
			return ProcNull
		}
		return r
	}
	return at(-disp), at(+disp), nil
}

// Neighbors returns the 2*NDims nearest neighbors in dimension order
// (low, high per dimension), with ProcNull at non-periodic boundaries —
// the neighborhood MPI_NEIGHBOR_ALLTOALL communicates over.
func (c *Cart) Neighbors(rank int) ([]int, error) {
	out := make([]int, 0, 2*len(c.dims))
	for d := range c.dims {
		src, dst, err := c.Shift(rank, d, 1)
		if err != nil {
			return nil, err
		}
		out = append(out, src, dst)
	}
	return out, nil
}

// DimsCreate factors nnodes into ndims balanced extents
// (MPI_DIMS_CREATE): nonzero entries of hints are kept fixed, zeros are
// chosen so the extents are as close to each other as possible.
func DimsCreate(nnodes, ndims int, hints []int) ([]int, error) {
	if nnodes < 1 || ndims < 1 {
		return nil, fmt.Errorf("%w: nnodes %d ndims %d", ErrBadTopo, nnodes, ndims)
	}
	dims := make([]int, ndims)
	if hints != nil {
		if len(hints) != ndims {
			return nil, fmt.Errorf("%w: %d hints for %d dims", ErrBadTopo, len(hints), ndims)
		}
		copy(dims, hints)
	}
	remaining := nnodes
	free := 0
	for _, d := range dims {
		switch {
		case d < 0:
			return nil, fmt.Errorf("%w: negative hint %d", ErrBadTopo, d)
		case d > 0:
			if remaining%d != 0 {
				return nil, fmt.Errorf("%w: %d does not divide %d", ErrBadTopo, d, nnodes)
			}
			remaining /= d
		default:
			free++
		}
	}
	if free == 0 {
		if remaining != 1 {
			return nil, fmt.Errorf("%w: fixed dims use %d of %d nodes", ErrBadTopo, nnodes/remaining, nnodes)
		}
		return dims, nil
	}
	// Greedy balanced factorization: repeatedly give the largest prime
	// factor to the smallest free extent.
	extents := make([]int, free)
	for i := range extents {
		extents[i] = 1
	}
	for _, f := range primeFactorsDesc(remaining) {
		min := 0
		for i := 1; i < free; i++ {
			if extents[i] < extents[min] {
				min = i
			}
		}
		extents[min] *= f
	}
	// Assign descending so dimension 0 gets the largest extent, as MPI
	// recommends.
	sortDesc(extents)
	j := 0
	for i := range dims {
		if dims[i] == 0 {
			dims[i] = extents[j]
			j++
		}
	}
	return dims, nil
}

// primeFactorsDesc returns n's prime factorization, largest first.
func primeFactorsDesc(n int) []int {
	var fs []int
	for f := 2; f*f <= n; f++ {
		for n%f == 0 {
			fs = append(fs, f)
			n /= f
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	// Reverse to descending.
	for i, j := 0, len(fs)-1; i < j; i, j = i+1, j-1 {
		fs[i], fs[j] = fs[j], fs[i]
	}
	return fs
}

func sortDesc(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] > xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
