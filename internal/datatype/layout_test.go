package datatype

import (
	"reflect"
	"testing"
)

// TestLayoutEncoding: a contiguous layout encodes as one zero word and
// a derived one as 12+8n bytes; both decode back, leaving the bytes
// after them, and an empty trailer decodes as contiguous.
func TestLayoutEncoding(t *testing.T) {
	vec, _ := NewVector(2, 1, 2, Long)
	if err := vec.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		l    Layout
		size int
	}{
		{LayoutOf(Long, 3), 4},
		{LayoutOf(vec, 2), 12 + 8*2},
	} {
		b := c.l.Append([]byte{0xAA})[1:]
		if len(b) != c.size {
			t.Errorf("%+v encodes to %d bytes, want %d", c.l, len(b), c.size)
		}
		got, rest := DecodeLayout(append(b, 7, 9))
		if !reflect.DeepEqual(got, c.l) || !reflect.DeepEqual(rest, []byte{7, 9}) {
			t.Errorf("decode of %+v = %+v, rest %v", c.l, got, rest)
		}
	}
	if l, rest := DecodeLayout(nil); !l.Contig() || len(rest) != 0 {
		t.Errorf("empty trailer decodes as %+v, rest %v", l, rest)
	}
}

// TestReachAndWalk: a derived layout reaches (count-1)·extent plus the
// end of one element's furthest run, which can exceed its packed size,
// and its walk visits every run in pack order.
func TestReachAndWalk(t *testing.T) {
	vec, _ := NewVector(2, 1, 2, Byte) // bytes 0 and 2 of a 3-byte extent
	ix, _ := NewIndexed([]int{1, 2}, []int{4, 0}, Byte)
	for _, ty := range []*Type{vec, ix} {
		if err := ty.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		ty           *Type
		count, reach int
		runs         [][3]int // at, pos, n
	}{
		{Long, 2, 16, [][3]int{{0, 0, 16}}},
		{vec, 1, 3, [][3]int{{0, 0, 1}, {2, 1, 1}}},
		{vec, 2, 6, [][3]int{{0, 0, 1}, {2, 1, 1}, {3, 2, 1}, {5, 3, 1}}},
		{ix, 2, 10, [][3]int{{4, 0, 1}, {0, 1, 2}, {9, 3, 1}, {5, 4, 2}}},
	} {
		if got := Reach(c.ty, c.count); got != c.reach {
			t.Errorf("Reach(%s, %d) = %d, want %d", c.ty.Name(), c.count, got, c.reach)
		}
		var runs [][3]int
		LayoutOf(c.ty, c.count).Walk(PackedSize(c.ty, c.count), func(at, pos, n int) {
			runs = append(runs, [3]int{at, pos, n})
		})
		if !reflect.DeepEqual(runs, c.runs) {
			t.Errorf("%s x%d walks %v, want %v", c.ty.Name(), c.count, runs, c.runs)
		}
	}
}
