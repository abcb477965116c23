package nbc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"gompi/internal/coll"
	"gompi/internal/datatype"
)

var updateShapes = flag.Bool("update", false, "rewrite testdata/schedules.golden")

// The node mappings of the shape grid: the block mapping node(r) = r/rpn
// reported through RanksPerNodeBlock, the same mapping left for the scan
// to find, and a cyclic mapping node(r) = r mod nodes no arithmetic
// shortcut covers.
const (
	mapBlock = iota
	mapScan
	mapCyclic
)

// shapeRank is a compile-only Transport: one rank's view of a node
// mapping and a handoff threshold. Compiling never moves data, so its
// communication methods refuse.
type shapeRank struct {
	rank, size, rpn, handoff, mapping int
}

var errCompileOnly = errors.New("shape transport is compile-only")

func (r *shapeRank) Rank() int             { return r.rank }
func (r *shapeRank) Size() int             { return r.size }
func (r *shapeRank) SegLimit(peer int) int { return 0 }
func (r *shapeRank) HandoffEager() int     { return r.handoff }

func (r *shapeRank) Node(rank int) int {
	if r.mapping == mapCyclic {
		return rank % ((r.size + r.rpn - 1) / r.rpn)
	}
	return rank / r.rpn
}

func (r *shapeRank) RanksPerNodeBlock() (int, bool) {
	if r.mapping == mapBlock {
		return r.rpn, true
	}
	return 0, false
}

func (r *shapeRank) LoadTopo(prefer int) (any, bool) { return nil, false }
func (r *shapeRank) StoreTopo(prefer int, v any)     {}
func (r *shapeRank) Send(data []byte, dest, tag int) error {
	return errCompileOnly
}
func (r *shapeRank) Recv(buf []byte, src, tag int) (Pending, error) {
	return nil, errCompileOnly
}
func (r *shapeRank) SendNoCopy(data []byte, dest, tag int) (Pending, bool, error) {
	return nil, false, errCompileOnly
}
func (r *shapeRank) RecvReduce(acc []byte, op coll.Op, elem *datatype.Type, src, tag int) (Pending, error) {
	return nil, errCompileOnly
}

// shapeCall is one compile of the grid: n is the per-rank (per-block,
// for the block collectives) payload in bytes, send and recv are large
// enough for any of them.
type shapeCall struct {
	s          *Schedule
	t          Transport
	op         coll.Op
	elem       *datatype.Type
	send, recv []byte
	n, root    int
	f          Force
}

// shapeCollectives are the compilers the grid covers, each called the
// way the MPI layer calls it. reduces marks the ones whose schedule
// depends on the operator and the element type; rooted, on the root;
// forced, on the Force.
var shapeCollectives = []struct {
	name                    string
	rooted, reduces, forced bool
	compile                 func(c *shapeCall) error
}{
	{"bcast", true, false, true, func(c *shapeCall) error {
		return Bcast(c.s, c.t, 1, c.send[:c.n], c.root, c.f)
	}},
	{"reduce", true, true, true, func(c *shapeCall) error {
		var out []byte
		if c.t.Rank() == c.root {
			out = c.recv[:c.n]
		}
		return Reduce(c.s, c.t, 1, c.op, c.elem, c.send[:c.n], out, c.root, c.f)
	}},
	{"allreduce", false, true, true, func(c *shapeCall) error {
		Allreduce(c.s, c.t, 1, c.op, c.elem, c.send[:c.n], c.recv[:c.n], c.f)
		return nil
	}},
	{"allgather", false, false, true, func(c *shapeCall) error {
		return Allgather(c.s, c.t, 1, c.send[:c.n], c.recv[:c.n*c.t.Size()], c.f)
	}},
	{"alltoall", false, false, true, func(c *shapeCall) error {
		m := c.n * c.t.Size()
		return Alltoall(c.s, c.t, 1, c.send[:m], c.recv[:m], c.f)
	}},
	{"reduce_scatter_block", false, true, false, func(c *shapeCall) error {
		return ReduceScatterBlock(c.s, c.t, 1, c.op, c.elem, c.send[:c.n*c.t.Size()], c.recv[:c.n])
	}},
}

var shapeForces = []string{"auto", "flat", "two-level", "binomial", "scatter-allgather", "rdouble",
	"rsag", "reduce-bcast", "chain", "ring", "bruck", "pairwise", "posted"}

// Payloads straddle every cut-in: the alltoall post-all cap and the
// handoff threshold (1024), the Bruck cap (2048), the long-message
// switches (8192); 24 bytes is three longs, divisible by no size > 1 a
// power of two.
var (
	shapeSizes    = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17}
	shapePayloads = []int{0, 8, 24, 1024, 1032, 2056, 8192, 8200}
	shapeHandoffs = []int{0, 1024}
)

// shapeFingerprint appends what a compiled schedule would do: its
// algorithm and byte count, its prologue, and every round's steps —
// kind, peer, which buffer each operand points into and where, the
// fold operand and the lend flag.
func shapeFingerprint(fp []byte, s *Schedule, err error, send, recv []byte) []byte {
	if err != nil {
		return append(fp, "err:"+err.Error()+";"...)
	}
	ref := func(fp, x []byte) []byte {
		if x == nil {
			return append(fp, 'n')
		}
		p := uintptr(unsafe.Pointer(unsafe.SliceData(x)))
		for i, base := range [][]byte{send, recv} {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(base)))
			if p >= lo && p <= lo+uintptr(cap(base)) {
				fp = append(fp, "sr"[i])
				fp = binary.AppendUvarint(fp, uint64(p-lo))
				return binary.AppendUvarint(fp, uint64(len(x)))
			}
		}
		fp = append(fp, 'x')
		return binary.AppendUvarint(fp, uint64(len(x)))
	}
	st := func(fp []byte, st step) []byte {
		fp = append(fp, byte(st.kind))
		fp = binary.AppendVarint(fp, int64(st.peer))
		if st.noCopy {
			fp = append(fp, 'L')
		}
		return ref(ref(fp, st.a), st.b)
	}
	fp = binary.AppendUvarint(fp, uint64(s.Algo))
	fp = binary.AppendUvarint(fp, uint64(s.Bytes))
	for _, p := range s.prologue {
		fp = st(fp, p)
	}
	fp = append(fp, '|')
	for k := range s.ends {
		for i := s.roundStart(k); i < s.ends[k]; i++ {
			fp = st(fp, s.steps[i])
		}
		fp = append(fp, '/')
	}
	return fp
}

// shapeLines compiles every collective under every Force over the grid
// and hashes the fingerprints into one line per (collective, force,
// size).
func shapeLines() []string {
	maxN := shapePayloads[len(shapePayloads)-1]
	maxP := shapeSizes[len(shapeSizes)-1]
	send, recv := make([]byte, maxN*maxP), make([]byte, maxN*maxP)
	for i := range send {
		send[i] = byte(i)
	}
	sub := coll.CreateOp(func(in, inout []byte, count int, elem *datatype.Type) error { return nil }, false)
	type opElem struct {
		op   coll.Op
		elem *datatype.Type
	}
	reducing := []opElem{{coll.OpSum, datatype.Long}, {coll.OpSum, datatype.Byte}, {sub, datatype.Long}}
	plain := []opElem{{coll.OpSum, datatype.Byte}}
	s := new(Schedule)
	var lines []string
	var fp []byte
	for _, c := range shapeCollectives {
		forces := shapeForces
		if !c.forced {
			forces = forces[:1]
		}
		oes := plain
		if c.reduces {
			oes = reducing
		}
		for _, fname := range forces {
			f, err := ParseForce(fname)
			if err != nil {
				panic(err)
			}
			for _, size := range shapeSizes {
				h := fnv.New64a()
				ranks := dedup(0, size/2, size-1)
				roots := []int{0}
				if c.rooted {
					roots = dedup(0, size-1)
				}
				for _, rpn := range dedup(1, 2, 3, 4, size) {
					for mapping := mapBlock; mapping <= mapCyclic; mapping++ {
						for _, handoff := range shapeHandoffs {
							for _, rank := range ranks {
								t := &shapeRank{rank: rank, size: size, rpn: rpn, handoff: handoff, mapping: mapping}
								for _, root := range roots {
									for _, oe := range oes {
										for _, n := range shapePayloads {
											call := shapeCall{s: s, t: t, op: oe.op, elem: oe.elem,
												send: send, recv: recv, n: n, root: root, f: f}
											err := c.compile(&call)
											fp = shapeFingerprint(fp[:0], s, err, send, recv)
											h.Write(fp)
										}
									}
								}
							}
						}
					}
				}
				lines = append(lines, fmt.Sprintf("%s %s p%d %016x", c.name, fname, size, h.Sum64()))
			}
		}
	}
	return lines
}

// dedup returns vs without repeats, in first-seen order.
func dedup(vs ...int) []int {
	var out []int
	for _, v := range vs {
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// TestScheduleShapesGolden pins what every collective compiler emits —
// the algorithm it settles on and every step of every round — for every
// Force over a grid of sizes, node mappings, handoff thresholds, ranks,
// roots, operators, element types and payloads. A change to how an
// algorithm is chosen must leave every line alone; only a deliberate
// change of policy or of an algorithm regenerates the file (-update).
func TestScheduleShapesGolden(t *testing.T) {
	got := shapeLines()
	path := filepath.Join("testdata", "schedules.golden")
	if *updateShapes {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want []string
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("%d schedule lines, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("got  %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d schedule lines differ", bad, len(got))
	}
}
