package coll

import (
	"encoding/binary"
	"math"
	"testing"

	"gompi/internal/datatype"
)

func longs(vals ...int64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return b
}

func getLongs(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func TestApplyOps(t *testing.T) {
	cases := []struct {
		op   Op
		a, b int64
		want int64
	}{
		{OpSum, 3, 4, 7},
		{OpProd, 3, 4, 12},
		{OpMax, 3, 4, 4},
		{OpMin, 3, 4, 3},
		{OpLAnd, 1, 0, 0},
		{OpLOr, 1, 0, 1},
		{OpBAnd, 6, 3, 2},
		{OpBOr, 6, 3, 7},
		{OpReplace, 6, 3, 3},
		{OpNoOp, 6, 3, 6},
	}
	for _, c := range cases {
		dst := longs(c.a)
		if err := Apply(c.op, datatype.Long, dst, longs(c.b)); err != nil {
			t.Fatalf("%v: %v", c.op, err)
		}
		if got := getLongs(dst)[0]; got != c.want {
			t.Errorf("%v(%d,%d) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestApplyRejectsBadCombos(t *testing.T) {
	if err := Apply(OpBAnd, datatype.Double, make([]byte, 8), make([]byte, 8)); err == nil {
		t.Error("bitwise op on double accepted")
	}
	ct, _ := datatype.NewContiguous(2, datatype.Int)
	ct.Commit()
	if err := Apply(OpSum, ct, make([]byte, 8), make([]byte, 8)); err == nil {
		t.Error("derived type accepted by Apply")
	}
	if err := Apply(OpSum, datatype.Int, make([]byte, 8), make([]byte, 4)); err == nil {
		t.Error("mismatched buffers accepted")
	}
	if err := Apply(OpSum, datatype.Int, make([]byte, 6), make([]byte, 6)); err == nil {
		t.Error("non-multiple buffer accepted")
	}
}

func TestApplyAllTypes(t *testing.T) {
	types := []*datatype.Type{datatype.Byte, datatype.Char, datatype.Short, datatype.Int, datatype.Long, datatype.Float, datatype.Double}
	for _, ty := range types {
		dst := make([]byte, ty.Size())
		src := make([]byte, ty.Size())
		if err := Apply(OpSum, ty, dst, src); err != nil {
			t.Errorf("OpSum on %s: %v", ty.Name(), err)
		}
	}
}

func TestUserOpRegistry(t *testing.T) {
	xor := CreateOp(func(in, inout []byte, count int, elem *datatype.Type) error {
		for i := range inout {
			inout[i] ^= in[i]
		}
		return nil
	}, true)
	if xor.String() == "MPI_OP_UNKNOWN" || xor.String() == "" {
		t.Fatalf("user op name %q", xor.String())
	}
	dst := []byte{0b1100}
	if err := Apply(xor, datatype.Byte, dst, []byte{0b1010}); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0b0110 {
		t.Fatalf("xor apply = %b", dst[0])
	}
	// Unregistered user op id errors.
	if err := Apply(Op(250), datatype.Byte, dst, []byte{1}); err == nil {
		t.Fatal("unregistered op accepted")
	}
	// All predefined names render.
	for _, o := range []Op{OpSum, OpProd, OpMax, OpMin, OpLAnd, OpLOr, OpBAnd, OpBOr, OpReplace, OpNoOp} {
		if o.String() == "MPI_OP_UNKNOWN" {
			t.Errorf("op %d unnamed", o)
		}
	}
}

func TestFloatOps(t *testing.T) {
	d := make([]byte, 8)
	binary.LittleEndian.PutUint64(d, math.Float64bits(2.5))
	s := make([]byte, 8)
	binary.LittleEndian.PutUint64(s, math.Float64bits(4.0))
	if err := Apply(OpProd, datatype.Double, d, s); err != nil {
		t.Fatal(err)
	}
	if got := math.Float64frombits(binary.LittleEndian.Uint64(d)); got != 10.0 {
		t.Fatalf("prod = %v", got)
	}
	if err := Apply(OpMin, datatype.Double, d, s); err != nil {
		t.Fatal(err)
	}
	if got := math.Float64frombits(binary.LittleEndian.Uint64(d)); got != 4.0 {
		t.Fatalf("min = %v", got)
	}
	// Float32 path.
	f1 := make([]byte, 4)
	binary.LittleEndian.PutUint32(f1, math.Float32bits(1.5))
	f2 := make([]byte, 4)
	binary.LittleEndian.PutUint32(f2, math.Float32bits(2.0))
	if err := Apply(OpMax, datatype.Float, f1, f2); err != nil {
		t.Fatal(err)
	}
	if got := math.Float32frombits(binary.LittleEndian.Uint32(f1)); got != 2.0 {
		t.Fatalf("fmax = %v", got)
	}
}
