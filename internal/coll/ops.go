// Package coll holds the reduction operators of the MPI layer: the
// predefined table, user-defined operators (MPI_OP_CREATE) with their
// commutativity declaration, and Apply, the elementwise fold that the
// collective schedules (internal/nbc) and one-sided accumulate share.
package coll

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"gompi/internal/datatype"
)

// Op is a predefined reduction operator.
type Op uint8

// Predefined operators.
const (
	OpSum Op = iota
	OpProd
	OpMax
	OpMin
	OpLAnd
	OpLOr
	OpBAnd
	OpBOr
	OpReplace // MPI_REPLACE (accumulate only)
	OpNoOp    // MPI_NO_OP (get_accumulate only)

	// opUserBase is the first user-defined operator id
	// (MPI_OP_CREATE).
	opUserBase Op = 128
)

// String returns the MPI name of the operator.
func (o Op) String() string {
	if o >= opUserBase {
		return fmt.Sprintf("MPI_OP_USER(%d)", o-opUserBase)
	}
	switch o {
	case OpSum:
		return "MPI_SUM"
	case OpProd:
		return "MPI_PROD"
	case OpMax:
		return "MPI_MAX"
	case OpMin:
		return "MPI_MIN"
	case OpLAnd:
		return "MPI_LAND"
	case OpLOr:
		return "MPI_LOR"
	case OpBAnd:
		return "MPI_BAND"
	case OpBOr:
		return "MPI_BOR"
	case OpReplace:
		return "MPI_REPLACE"
	case OpNoOp:
		return "MPI_NO_OP"
	default:
		return "MPI_OP_UNKNOWN"
	}
}

// ErrBadOp reports an operator/datatype combination outside the MPI
// predefined table.
var ErrBadOp = errors.New("coll: invalid op/datatype combination")

// UserFunc is a user-defined reduction: fold in into inout elementwise
// for count elements of elem (MPI_User_function). It must be
// associative; commutativity is declared at CreateOp time, and the
// reduction algorithms honor the declaration (MPI_Op_create's commute
// argument).
type UserFunc func(in, inout []byte, count int, elem *datatype.Type) error

// userOps is the process-global registry of created operators. In this
// in-process world every rank shares the table; registration happens
// before communication, so a mutex suffices.
var userOps struct {
	mu      sync.Mutex
	fns     []UserFunc
	commute []bool
}

// CreateOp registers a user-defined reduction operator (MPI_OP_CREATE)
// and returns its handle. commute declares the operator commutative;
// non-commutative operators are folded in strict rank order by the
// reduction collectives, exactly as the MPI standard prescribes.
func CreateOp(fn UserFunc, commute bool) Op {
	if fn == nil {
		panic("coll: nil user op")
	}
	userOps.mu.Lock()
	defer userOps.mu.Unlock()
	userOps.fns = append(userOps.fns, fn)
	userOps.commute = append(userOps.commute, commute)
	return opUserBase + Op(len(userOps.fns)-1)
}

// Commutative reports whether op may be folded in arbitrary order.
// Every predefined operator is commutative (modulo floating-point
// rounding, which MPI accepts); user operators carry the declaration
// made at CreateOp time.
func Commutative(op Op) bool {
	if op < opUserBase {
		return true
	}
	userOps.mu.Lock()
	defer userOps.mu.Unlock()
	i := int(op - opUserBase)
	if i >= len(userOps.commute) {
		return true
	}
	return userOps.commute[i]
}

func userOp(op Op) (UserFunc, bool) {
	if op < opUserBase {
		return nil, false
	}
	userOps.mu.Lock()
	defer userOps.mu.Unlock()
	i := int(op - opUserBase)
	if i >= len(userOps.fns) {
		return nil, false
	}
	return userOps.fns[i], true
}

// Apply folds src into dst elementwise: dst[i] = dst[i] OP src[i]. Both
// buffers hold count elements of the predefined type elem, in the
// little-endian layout the public API's conversion helpers produce.
func Apply(op Op, elem *datatype.Type, dst, src []byte) error {
	if !elem.Predefined() {
		return fmt.Errorf("%w: %s is not predefined", ErrBadOp, elem.Name())
	}
	if len(dst) != len(src) || len(dst)%elem.Size() != 0 {
		return fmt.Errorf("%w: buffer sizes %d/%d for %s", ErrBadOp, len(dst), len(src), elem.Name())
	}
	if op == OpNoOp {
		return nil
	}
	if fn, ok := userOp(op); ok {
		return fn(src, dst, len(dst)/elem.Size(), elem)
	}
	if op >= opUserBase {
		return fmt.Errorf("%w: unregistered user op %d", ErrBadOp, op)
	}
	if op == OpReplace {
		copy(dst, src)
		return nil
	}
	n := len(dst) / elem.Size()
	switch elem {
	case datatype.Byte, datatype.Char:
		for i := 0; i < n; i++ {
			dst[i] = byte(intOp(op, int64(dst[i]), int64(src[i])))
		}
	case datatype.Short:
		for i := 0; i < n; i++ {
			a := int16(binary.LittleEndian.Uint16(dst[2*i:]))
			b := int16(binary.LittleEndian.Uint16(src[2*i:]))
			binary.LittleEndian.PutUint16(dst[2*i:], uint16(intOp(op, int64(a), int64(b))))
		}
	case datatype.Int:
		for i := 0; i < n; i++ {
			a := int32(binary.LittleEndian.Uint32(dst[4*i:]))
			b := int32(binary.LittleEndian.Uint32(src[4*i:]))
			binary.LittleEndian.PutUint32(dst[4*i:], uint32(intOp(op, int64(a), int64(b))))
		}
	case datatype.Long:
		for i := 0; i < n; i++ {
			a := int64(binary.LittleEndian.Uint64(dst[8*i:]))
			b := int64(binary.LittleEndian.Uint64(src[8*i:]))
			binary.LittleEndian.PutUint64(dst[8*i:], uint64(intOp(op, a, b)))
		}
	case datatype.Float:
		if !floatOpOK(op) {
			return fmt.Errorf("%w: %s on MPI_FLOAT", ErrBadOp, op)
		}
		for i := 0; i < n; i++ {
			a := math.Float32frombits(binary.LittleEndian.Uint32(dst[4*i:]))
			b := math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(float32(floatOp(op, float64(a), float64(b)))))
		}
	case datatype.Double:
		if !floatOpOK(op) {
			return fmt.Errorf("%w: %s on MPI_DOUBLE", ErrBadOp, op)
		}
		for i := 0; i < n; i++ {
			a := math.Float64frombits(binary.LittleEndian.Uint64(dst[8*i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(floatOp(op, a, b)))
		}
	default:
		return fmt.Errorf("%w: unsupported type %s", ErrBadOp, elem.Name())
	}
	return nil
}

func intOp(op Op, a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpLAnd:
		return b2i(a != 0 && b != 0)
	case OpLOr:
		return b2i(a != 0 || b != 0)
	case OpBAnd:
		return a & b
	case OpBOr:
		return a | b
	default:
		return a
	}
}

func floatOpOK(op Op) bool {
	switch op {
	case OpSum, OpProd, OpMax, OpMin:
		return true
	}
	return false
}

func floatOp(op Op, a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMax:
		return math.Max(a, b)
	default:
		return math.Min(a, b)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// elemTable numbers the element types Apply folds, for active-message
// headers that ship an accumulate's element type.
var elemTable = []*datatype.Type{datatype.Byte, datatype.Char, datatype.Short,
	datatype.Int, datatype.Long, datatype.Float, datatype.Double}

// ElemCode returns t's wire code, or -1 when Apply cannot fold t.
func ElemCode(t *datatype.Type) int {
	for i, e := range elemTable {
		if e == t {
			return i
		}
	}
	return -1
}

// ElemFromCode inverts ElemCode; nil for an unknown code.
func ElemFromCode(c int) *datatype.Type {
	if c < 0 || c >= len(elemTable) {
		return nil
	}
	return elemTable[c]
}
