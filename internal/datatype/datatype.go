// Package datatype implements the MPI derived-datatype engine:
// predefined types, the constructors (contiguous, vector, hvector,
// indexed, struct), commit, and pack/unpack. Committing a type flattens
// its layout into a run of (offset,length) segments — the "dataloop"
// optimization real MPICH performs — and classifies it as contiguous or
// not, which is what the communication fast path branches on. The
// paper's "redundant runtime checks" category is exactly the cost of
// re-deriving Size/contiguity on every call when the compiler cannot
// see that the type is a constant.
package datatype

import (
	"errors"
	"fmt"
)

// Kind discriminates the type constructors.
type Kind uint8

// Type kinds.
const (
	KindPredefined Kind = iota
	KindContiguous
	KindVector
	KindHvector
	KindIndexed
	KindStruct
)

// Segment is one contiguous piece of a flattened datatype, relative to
// the start of the element.
type Segment struct {
	Off int // byte offset within one element extent
	Len int // bytes
}

// Type describes a data layout. Predefined types are committed at
// package init; derived types must be committed before use in
// communication. A committed Type is immutable and safe for concurrent
// use by all ranks.
type Type struct {
	kind          Kind
	name          string
	size          int // bytes of actual data per element
	extent        int // span of one element including gaps
	committed     bool
	contig        bool
	runtimeMapped bool
	segs          []Segment // flattened layout, built at commit
	span          int       // end of the furthest segment, set at commit

	// Constructor parameters, kept for flattening and introspection.
	count     int
	blocklen  int
	stride    int // in elements (vector) or bytes (hvector)
	base      *Type
	blocklens []int
	displs    []int // element displacements (indexed) or bytes (struct)
	subStarts []int // subarray origin (KindSubarray)
	types     []*Type
}

// Predefined MPI basic datatypes.
var (
	Byte   = predefined("MPI_BYTE", 1)
	Char   = predefined("MPI_CHAR", 1)
	Short  = predefined("MPI_SHORT", 2)
	Int    = predefined("MPI_INT", 4)
	Long   = predefined("MPI_LONG", 8)
	Float  = predefined("MPI_FLOAT", 4)
	Double = predefined("MPI_DOUBLE", 8)
)

func predefined(name string, size int) *Type {
	return &Type{
		kind: KindPredefined, name: name, size: size, extent: size,
		committed: true, contig: true,
		segs: []Segment{{0, size}},
	}
}

// Errors returned by the engine.
var (
	ErrUncommitted = errors.New("datatype: type used before commit")
	ErrBadArgument = errors.New("datatype: bad constructor argument")
)

// Name returns the predefined name or a constructor description.
func (t *Type) Name() string {
	if t.name != "" {
		return t.name
	}
	return fmt.Sprintf("derived(kind=%d,size=%d)", t.kind, t.size)
}

// Size returns the number of bytes of actual data in one element.
func (t *Type) Size() int { return t.size }

// Extent returns the span of one element including gaps.
func (t *Type) Extent() int { return t.extent }

// Committed reports whether the type may be used in communication.
func (t *Type) Committed() bool { return t.committed }

// Contig reports whether the type's data is one gap-free run — the
// classification the communication fast path uses. Only valid after
// commit.
func (t *Type) Contig() bool { return t.contig }

// Predefined reports whether the type is an MPI basic type, usable as a
// compile-time constant by the inlining optimization of Section 2.2.
func (t *Type) Predefined() bool { return t.kind == KindPredefined }

// AsRuntimeMapped returns a copy marked as the paper's "class 3"
// datatype usage (Section 2.2): a predefined type reached through a
// runtime variable (the LULESH/Nekbone/miniFE interlibrary
// type-mapping idiom), which link-time inlining of the MPI calls alone
// cannot fold into a compile-time constant. The devices keep charging
// the redundant datatype checks for such types even in the ipo build —
// only inlining the whole application would remove them.
func (t *Type) AsRuntimeMapped() *Type {
	cp := t.Dup()
	cp.runtimeMapped = true
	return cp
}

// RuntimeMapped reports class-3 usage.
func (t *Type) RuntimeMapped() bool { return t.runtimeMapped }

// Segments returns the flattened one-element layout. Only valid after
// commit. The returned slice must not be modified.
func (t *Type) Segments() []Segment { return t.segs }

// BaseElem returns the single predefined type all of t's data consists
// of, or nil if t mixes element types. Accumulate operations require a
// homogeneous base element.
func (t *Type) BaseElem() *Type {
	switch t.kind {
	case KindPredefined:
		return t
	case KindContiguous, KindVector, KindHvector, KindIndexed, KindSubarray, KindResized:
		return t.base.BaseElem()
	case KindStruct:
		var elem *Type
		for _, m := range t.types {
			b := m.BaseElem()
			if b == nil || (elem != nil && b != elem) {
				return nil
			}
			elem = b
		}
		return elem
	default:
		return nil
	}
}

// NewContiguous builds a type of count consecutive base elements.
func NewContiguous(count int, base *Type) (*Type, error) {
	if count < 0 || base == nil {
		return nil, ErrBadArgument
	}
	return &Type{
		kind: KindContiguous, count: count, base: base,
		size:   count * base.size,
		extent: count * base.extent,
	}, nil
}

// NewVector builds count blocks of blocklen base elements, with the
// start of consecutive blocks stride base-extents apart.
func NewVector(count, blocklen, stride int, base *Type) (*Type, error) {
	if count < 0 || blocklen < 0 || base == nil {
		return nil, ErrBadArgument
	}
	t := &Type{
		kind: KindVector, count: count, blocklen: blocklen, stride: stride, base: base,
		size: count * blocklen * base.size,
	}
	t.extent = vectorExtent(count, blocklen, stride*base.extent, base.extent)
	return t, nil
}

// NewHvector is NewVector with the stride given in bytes.
func NewHvector(count, blocklen, strideBytes int, base *Type) (*Type, error) {
	if count < 0 || blocklen < 0 || base == nil {
		return nil, ErrBadArgument
	}
	t := &Type{
		kind: KindHvector, count: count, blocklen: blocklen, stride: strideBytes, base: base,
		size: count * blocklen * base.size,
	}
	t.extent = vectorExtent(count, blocklen, strideBytes, base.extent)
	return t, nil
}

func vectorExtent(count, blocklen, strideBytes, baseExtent int) int {
	if count == 0 || blocklen == 0 {
		return 0
	}
	// Extent spans from the lowest to the highest touched byte.
	last := (count-1)*strideBytes + blocklen*baseExtent
	if strideBytes < 0 {
		lo := (count - 1) * strideBytes
		return blocklen*baseExtent - lo
	}
	return last
}

// NewIndexed builds len(blocklens) blocks where block i has
// blocklens[i] base elements starting displs[i] base-extents from the
// origin.
func NewIndexed(blocklens, displs []int, base *Type) (*Type, error) {
	if base == nil || len(blocklens) != len(displs) {
		return nil, ErrBadArgument
	}
	size, hi := 0, 0
	for i := range blocklens {
		if blocklens[i] < 0 || displs[i] < 0 {
			return nil, ErrBadArgument
		}
		size += blocklens[i] * base.size
		if end := (displs[i] + blocklens[i]) * base.extent; end > hi {
			hi = end
		}
	}
	return &Type{
		kind: KindIndexed, base: base,
		blocklens: append([]int(nil), blocklens...),
		displs:    append([]int(nil), displs...),
		size:      size, extent: hi,
	}, nil
}

// NewStruct builds a heterogeneous type: block i has blocklens[i]
// elements of types[i] at byte displacement displs[i].
func NewStruct(blocklens, displs []int, types []*Type) (*Type, error) {
	if len(blocklens) != len(displs) || len(blocklens) != len(types) {
		return nil, ErrBadArgument
	}
	size, hi := 0, 0
	for i := range blocklens {
		if blocklens[i] < 0 || displs[i] < 0 || types[i] == nil {
			return nil, ErrBadArgument
		}
		size += blocklens[i] * types[i].size
		if end := displs[i] + blocklens[i]*types[i].extent; end > hi {
			hi = end
		}
	}
	return &Type{
		kind:      KindStruct,
		blocklens: append([]int(nil), blocklens...),
		displs:    append([]int(nil), displs...),
		types:     append([]*Type(nil), types...),
		size:      size, extent: hi,
	}, nil
}

// Commit finalizes the type: flattens the layout, coalesces adjacent
// segments, and classifies contiguity. Commit is idempotent. All base
// types must already be committed.
func (t *Type) Commit() error {
	if t.committed {
		return nil
	}
	segs, err := t.flatten(0)
	if err != nil {
		return err
	}
	t.segs = coalesce(segs)
	t.span = span(t.segs)
	t.contig = len(t.segs) == 0 ||
		(len(t.segs) == 1 && t.segs[0].Off == 0 && t.segs[0].Len == t.extent)
	t.committed = true
	return nil
}

// flatten produces the (offset,length) runs of one element, origin at
// base offset off.
func (t *Type) flatten(off int) ([]Segment, error) {
	switch t.kind {
	case KindPredefined:
		return []Segment{{off, t.size}}, nil
	case KindContiguous:
		if !t.base.committed {
			return nil, ErrUncommitted
		}
		return t.base.repeatSelf(off, t.count)
	case KindVector:
		return t.vectorSegs(off, t.stride*t.base.extent)
	case KindHvector:
		return t.vectorSegs(off, t.stride)
	case KindIndexed:
		if !t.base.committed {
			return nil, ErrUncommitted
		}
		var segs []Segment
		for i := range t.blocklens {
			s, err := t.base.repeatSelf(off+t.displs[i]*t.base.extent, t.blocklens[i])
			if err != nil {
				return nil, err
			}
			segs = append(segs, s...)
		}
		return segs, nil
	case KindStruct:
		var segs []Segment
		for i := range t.blocklens {
			if !t.types[i].committed {
				return nil, ErrUncommitted
			}
			s, err := t.types[i].repeatSelf(off+t.displs[i], t.blocklens[i])
			if err != nil {
				return nil, err
			}
			segs = append(segs, s...)
		}
		return segs, nil
	case KindSubarray:
		return t.flattenSubarray(off)
	case KindResized:
		if !t.base.committed {
			return nil, ErrUncommitted
		}
		return t.base.flatten(off)
	default:
		return nil, ErrBadArgument
	}
}

// repeatSelf flattens count consecutive copies of t starting at off.
func (t *Type) repeatSelf(off, count int) ([]Segment, error) {
	var segs []Segment
	for k := 0; k < count; k++ {
		s, err := t.flatten(off + k*t.extent)
		if err != nil {
			return nil, err
		}
		segs = append(segs, s...)
	}
	return segs, nil
}

func (t *Type) vectorSegs(off, strideBytes int) ([]Segment, error) {
	if !t.base.committed {
		return nil, ErrUncommitted
	}
	var segs []Segment
	for k := 0; k < t.count; k++ {
		s, err := t.base.repeatSelf(off+k*strideBytes, t.blocklen)
		if err != nil {
			return nil, err
		}
		segs = append(segs, s...)
	}
	return segs, nil
}

// coalesce merges adjacent segments (sorted input: flatten emits in
// layout order for each constructor, but indexed/struct displacements
// may interleave, so only merge exact adjacency without reordering —
// MPI pack order is definition order, not address order).
func coalesce(segs []Segment) []Segment {
	if len(segs) == 0 {
		return segs
	}
	out := segs[:1]
	for _, s := range segs[1:] {
		last := &out[len(out)-1]
		if last.Off+last.Len == s.Off {
			last.Len += s.Len
		} else {
			out = append(out, s)
		}
	}
	return out
}
