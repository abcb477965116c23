package datatype

import "fmt"

// Additional constructor kinds.
const (
	// KindSubarray is an n-dimensional subarray of a larger array
	// (MPI_TYPE_CREATE_SUBARRAY, C order).
	KindSubarray Kind = iota + 100
	// KindResized overrides a type's extent
	// (MPI_TYPE_CREATE_RESIZED).
	KindResized
)

// NewSubarray describes the subarray of a C-order (row-major)
// n-dimensional array: sizes are the full array extents per dimension
// in elements, subsizes the selected box, starts its origin. The
// resulting type's extent spans the full array, so count>1 walks
// consecutive full arrays, exactly as MPI specifies.
func NewSubarray(sizes, subsizes, starts []int, base *Type) (*Type, error) {
	nd := len(sizes)
	if base == nil || nd == 0 || len(subsizes) != nd || len(starts) != nd {
		return nil, ErrBadArgument
	}
	size := base.size
	extent := base.extent
	for d := 0; d < nd; d++ {
		if sizes[d] < 1 || subsizes[d] < 1 || starts[d] < 0 || starts[d]+subsizes[d] > sizes[d] {
			return nil, fmt.Errorf("%w: dim %d: size %d subsize %d start %d",
				ErrBadArgument, d, sizes[d], subsizes[d], starts[d])
		}
		size *= subsizes[d]
		extent *= sizes[d]
	}
	t := &Type{
		kind: KindSubarray, base: base,
		size: size, extent: extent,
		// Reuse the generic int-slice fields: blocklens=sizes,
		// displs=subsizes, and keep starts separately via types? Store
		// all three in dedicated order: blocklens=sizes,
		// displs=subsizes, subStarts=starts.
		blocklens: append([]int(nil), sizes...),
		displs:    append([]int(nil), subsizes...),
		subStarts: append([]int(nil), starts...),
	}
	return t, nil
}

// NewResized returns a copy of base whose extent is overridden
// (MPI_TYPE_CREATE_RESIZED with lb=0; nonzero lower bounds are not
// supported by this implementation). The new extent must cover the
// type's data.
func NewResized(base *Type, extent int) (*Type, error) {
	if base == nil || extent < 0 {
		return nil, ErrBadArgument
	}
	if hi := span(base.segs); base.committed && extent < hi {
		return nil, fmt.Errorf("%w: extent %d < data span %d", ErrBadArgument, extent, hi)
	}
	return &Type{
		kind: KindResized, base: base,
		size: base.size, extent: extent,
	}, nil
}

// Dup returns an independent copy of the type (MPI_TYPE_DUP). The copy
// shares no mutable state; committing one does not commit the other.
func (t *Type) Dup() *Type {
	cp := *t
	cp.segs = append([]Segment(nil), t.segs...)
	cp.blocklens = append([]int(nil), t.blocklens...)
	cp.displs = append([]int(nil), t.displs...)
	cp.subStarts = append([]int(nil), t.subStarts...)
	cp.types = append([]*Type(nil), t.types...)
	return &cp
}

// flattenSubarray emits the selected box's runs: the last dimension is
// contiguous (C order), outer dimensions iterate the lattice.
func (t *Type) flattenSubarray(off int) ([]Segment, error) {
	if !t.base.committed {
		return nil, ErrUncommitted
	}
	nd := len(t.blocklens)
	sizes, subsizes, starts := t.blocklens, t.displs, t.subStarts

	// Row-major strides in base extents.
	strides := make([]int, nd)
	strides[nd-1] = 1
	for d := nd - 2; d >= 0; d-- {
		strides[d] = strides[d+1] * sizes[d+1]
	}

	// Iterate all outer-dim index combinations; the innermost run is
	// subsizes[nd-1] consecutive base elements.
	idx := make([]int, nd-1)
	var segs []Segment
	for {
		elemOff := starts[nd-1] * strides[nd-1]
		for d := 0; d < nd-1; d++ {
			elemOff += (starts[d] + idx[d]) * strides[d]
		}
		s, err := t.base.repeatSelf(off+elemOff*t.base.extent, subsizes[nd-1])
		if err != nil {
			return nil, err
		}
		segs = append(segs, s...)

		// Odometer increment over the outer dims.
		d := nd - 2
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < subsizes[d] {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			break
		}
	}
	return segs, nil
}
