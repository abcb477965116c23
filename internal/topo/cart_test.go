package topo

import (
	"testing"
	"testing/quick"
)

func TestNewCartValidation(t *testing.T) {
	if _, err := NewCart(nil, nil); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := NewCart([]int{2, 2}, []bool{true}); err == nil {
		t.Error("mismatched periodic accepted")
	}
	if _, err := NewCart([]int{2, 0}, []bool{false, false}); err == nil {
		t.Error("zero extent accepted")
	}
	c, err := NewCart([]int{3, 4}, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 12 || len(c.dims) != 2 || !c.periodic[0] || c.periodic[1] {
		t.Errorf("cart properties wrong: %+v", c)
	}
}

func TestCoordsRankRoundTrip(t *testing.T) {
	c, _ := NewCart([]int{2, 3, 4}, []bool{false, false, false})
	for r := 0; r < c.Size(); r++ {
		coords, err := c.Coords(r)
		if err != nil {
			t.Fatal(err)
		}
		back, err := c.Rank(coords)
		if err != nil || back != r {
			t.Fatalf("rank %d -> %v -> %d (%v)", r, coords, back, err)
		}
	}
	if _, err := c.Coords(24); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

func TestRowMajorOrder(t *testing.T) {
	// MPI row-major: dimension 0 varies slowest.
	c, _ := NewCart([]int{2, 3}, []bool{false, false})
	want := [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	for r, w := range want {
		coords, _ := c.Coords(r)
		if coords[0] != w[0] || coords[1] != w[1] {
			t.Errorf("rank %d = %v, want %v", r, coords, w)
		}
	}
}

func TestRankPeriodicWrap(t *testing.T) {
	c, _ := NewCart([]int{4}, []bool{true})
	if r, err := c.Rank([]int{-1}); err != nil || r != 3 {
		t.Errorf("wrap(-1) = (%d,%v)", r, err)
	}
	if r, err := c.Rank([]int{5}); err != nil || r != 1 {
		t.Errorf("wrap(5) = (%d,%v)", r, err)
	}
	np, _ := NewCart([]int{4}, []bool{false})
	if _, err := np.Rank([]int{-1}); err == nil {
		t.Error("non-periodic out-of-range accepted")
	}
}

func TestShift(t *testing.T) {
	// 1-D non-periodic chain of 4.
	c, _ := NewCart([]int{4}, []bool{false})
	src, dst, err := c.Shift(0, 0, 1)
	if err != nil || src != ProcNull || dst != 1 {
		t.Errorf("shift at low edge = (%d,%d,%v)", src, dst, err)
	}
	src, dst, _ = c.Shift(3, 0, 1)
	if src != 2 || dst != ProcNull {
		t.Errorf("shift at high edge = (%d,%d)", src, dst)
	}
	src, dst, _ = c.Shift(1, 0, 1)
	if src != 0 || dst != 2 {
		t.Errorf("interior shift = (%d,%d)", src, dst)
	}
	// Periodic ring.
	p, _ := NewCart([]int{4}, []bool{true})
	src, dst, _ = p.Shift(0, 0, 1)
	if src != 3 || dst != 1 {
		t.Errorf("periodic shift = (%d,%d)", src, dst)
	}
	if _, _, err := c.Shift(0, 2, 1); err == nil {
		t.Error("bad dimension accepted")
	}
}

func TestNeighbors(t *testing.T) {
	c, _ := NewCart([]int{2, 2}, []bool{false, true})
	// Rank 0 = (0,0): dim0 low=ProcNull high=2; dim1 periodic low=1 high=1.
	nb, err := c.Neighbors(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{ProcNull, 2, 1, 1}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("neighbors(0) = %v, want %v", nb, want)
		}
	}
}

func TestDimsCreate(t *testing.T) {
	cases := []struct {
		nnodes, ndims int
		hints         []int
		want          []int
	}{
		{12, 2, nil, []int{4, 3}},
		{8, 3, nil, []int{2, 2, 2}},
		{16, 2, nil, []int{4, 4}},
		{7, 2, nil, []int{7, 1}},
		{12, 2, []int{0, 2}, []int{6, 2}},
		{6, 1, nil, []int{6}},
	}
	for _, c := range cases {
		got, err := DimsCreate(c.nnodes, c.ndims, c.hints)
		if err != nil {
			t.Fatalf("DimsCreate(%d,%d,%v): %v", c.nnodes, c.ndims, c.hints, err)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("DimsCreate(%d,%d,%v) = %v, want %v", c.nnodes, c.ndims, c.hints, got, c.want)
				break
			}
		}
	}
	if _, err := DimsCreate(12, 2, []int{5, 0}); err == nil {
		t.Error("non-dividing hint accepted")
	}
	if _, err := DimsCreate(12, 2, []int{3, 5}); err == nil {
		t.Error("over-constrained hints accepted")
	}
}

// Property: DimsCreate output multiplies to nnodes and is descending
// where unconstrained.
func TestDimsCreateProperty(t *testing.T) {
	f := func(nRaw, dRaw uint8) bool {
		n := int(nRaw%100) + 1
		d := int(dRaw%4) + 1
		dims, err := DimsCreate(n, d, nil)
		if err != nil {
			return false
		}
		prod := 1
		for i, x := range dims {
			prod *= x
			if i > 0 && dims[i] > dims[i-1] {
				return false
			}
		}
		return prod == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Coords/Rank are inverse bijections over the whole grid for
// random shapes.
func TestCartBijectionProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		dims := []int{int(a%4) + 1, int(b%4) + 1, int(c%4) + 1}
		ct, err := NewCart(dims, []bool{false, true, false})
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for r := 0; r < ct.Size(); r++ {
			coords, err := ct.Coords(r)
			if err != nil {
				return false
			}
			back, err := ct.Rank(coords)
			if err != nil || back != r || seen[back] {
				return false
			}
			seen[back] = true
		}
		return len(seen) == ct.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
