package datatype

import "encoding/binary"

// Layout is the flattened description of where count elements of a
// type lie in memory: Count elements Extent bytes apart, each made of
// the same Segs. It is what a one-sided operation ships to describe a
// derived target, so the target can place packed bytes without the
// type itself. A contiguous layout has no segments: its one run is the
// whole packed payload.
type Layout struct {
	Count, Extent int
	Segs          []Segment
}

// LayoutOf flattens count elements of the committed type t.
func LayoutOf(t *Type, count int) Layout {
	if t.contig {
		return Layout{}
	}
	return Layout{Count: count, Extent: t.extent, Segs: t.segs}
}

// Contig reports whether the layout is one gap-free run.
func (l Layout) Contig() bool { return len(l.Segs) == 0 }

// Reach returns how many bytes from its start count elements of t
// touch: (count-1)·extent plus the end of one element's furthest run.
// It is what a target range must hold, which for a derived type can
// exceed PackedSize.
func Reach(t *Type, count int) int {
	if t.contig || count == 0 {
		return count * t.size
	}
	return (count-1)*t.extent + t.span
}

// span returns the end of the furthest of segs.
func span(segs []Segment) int {
	hi := 0
	for _, s := range segs {
		hi = max(hi, s.Off+s.Len)
	}
	return hi
}

// Walk calls fn(at, pos, n) for every run of the layout in pack order:
// n bytes at offset at from the layout's start, which are bytes
// [pos, pos+n) of the packed stream. A contiguous layout is one run of
// size bytes, the packed length.
func (l Layout) Walk(size int, fn func(at, pos, n int)) {
	if l.Contig() {
		fn(0, 0, size)
		return
	}
	pos := 0
	for k := 0; k < l.Count; k++ {
		base := k * l.Extent
		for _, s := range l.Segs {
			fn(base+s.Off, pos, s.Len)
			pos += s.Len
		}
	}
}

// Append encodes the layout onto b: the segment count, then for a
// derived layout the element count, the extent and each segment's
// offset and length, 4 bytes each. A contiguous layout is one zero
// word, 4 bytes; a derived one 12+8n.
func (l Layout) Append(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(l.Segs)))
	if l.Contig() {
		return b
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(l.Count))
	b = binary.LittleEndian.AppendUint32(b, uint32(l.Extent))
	for _, s := range l.Segs {
		b = binary.LittleEndian.AppendUint32(b, uint32(s.Off))
		b = binary.LittleEndian.AppendUint32(b, uint32(s.Len))
	}
	return b
}

// DecodeLayout reads a layout Append wrote at the start of b and
// returns it with the bytes after it. An empty b decodes as contiguous.
func DecodeLayout(b []byte) (Layout, []byte) {
	if len(b) == 0 {
		return Layout{}, b
	}
	u := func(i int) int { return int(binary.LittleEndian.Uint32(b[4*i:])) }
	n := u(0)
	if n == 0 {
		return Layout{}, b[4:]
	}
	l := Layout{Count: u(1), Extent: u(2), Segs: make([]Segment, n)}
	for i := range l.Segs {
		l.Segs[i] = Segment{Off: u(3 + 2*i), Len: u(4 + 2*i)}
	}
	return l, b[4*(3+2*n):]
}
