package gompi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"testing"
)

// The differential test of the collectives engine: every blocking
// collective against a reference that uses no collective at all — each
// rank sends its contribution to rank 0 with plain Send, rank 0 hands
// the whole table back with plain Send, and every rank computes what it
// should have received with ReduceLocal and copies.

// opAffine is the non-commutative probe. Elements pair up as (a, b)
// standing for x -> a*x + b over wrapping int64; the operator is
// composition, in OP inout = in after inout, which is associative and
// order-sensitive. Counts must be even.
var opAffine = OpCreate(func(in, inout []byte, count int, elem *Datatype) error {
	for i := 0; i+1 < count; i += 2 {
		a1 := binary.LittleEndian.Uint64(in[8*i:])
		b1 := binary.LittleEndian.Uint64(in[8*i+8:])
		a2 := binary.LittleEndian.Uint64(inout[8*i:])
		b2 := binary.LittleEndian.Uint64(inout[8*i+8:])
		binary.LittleEndian.PutUint64(inout[8*i:], a1*a2)
		binary.LittleEndian.PutUint64(inout[8*i+8:], a1*b2+b1)
	}
	return nil
}, false)

// diffEager is the eager limit of the differential worlds, so that
// payloads of a few longs straddle it and schedules segment.
const diffEager = 64

// contribution is rank's deterministic vector of n longs.
func contribution(seed uint64, rank, n int) []byte {
	out := make([]byte, 8*n)
	x := seed*0x9E3779B97F4A7C15 + uint64(rank+1)*0xBF58476D1CE4E5B9
	for i := 0; i < n; i++ {
		x ^= x >> 30
		x *= 0x94D049BB133111EB
		x ^= x >> 27
		binary.LittleEndian.PutUint64(out[8*i:], x|1)
	}
	return out
}

// refTable is the reference allgather: contributions travel to rank 0
// and the assembled table travels back, all by plain Send/Recv on the
// point-to-point context.
func refTable(w *Comm, mine []byte) ([][]byte, error) {
	const tag = 99
	n, me, bs := w.Size(), w.Rank(), len(mine)
	flat := make([]byte, n*bs)
	if me != 0 {
		if err := w.Send(mine, bs, Byte, 0, tag); err != nil {
			return nil, err
		}
		if _, err := w.Recv(flat, len(flat), Byte, 0, tag); err != nil {
			return nil, err
		}
	} else {
		copy(flat, mine)
		for r := 1; r < n; r++ {
			if _, err := w.Recv(flat[r*bs:(r+1)*bs], bs, Byte, r, tag); err != nil {
				return nil, err
			}
		}
		for r := 1; r < n; r++ {
			if err := w.Send(flat, len(flat), Byte, r, tag); err != nil {
				return nil, err
			}
		}
	}
	table := make([][]byte, n)
	for r := range table {
		table[r] = flat[r*bs : (r+1)*bs]
	}
	return table, nil
}

// refFold is the rank-ordered fold v_lo OP ... OP v_hi of the table's
// vectors (restricted to bytes [from, to) of each).
func refFold(table [][]byte, lo, hi, from, to int, op Op) ([]byte, error) {
	acc := append([]byte(nil), table[lo][from:to]...)
	for r := lo + 1; r <= hi; r++ {
		next := append([]byte(nil), table[r][from:to]...)
		if err := ReduceLocal(acc, next, len(next)/8, Long, op); err != nil {
			return nil, err
		}
		acc = next
	}
	return acc, nil
}

// diffBlockingCollectives runs all 14 blocking collectives, on every
// root, for one world shape, payload size and operator, and holds each
// result against the reference.
func diffBlockingCollectives(ranks, rpn int, dev DeviceKind, elems int, op Op, seed uint64) error {
	cfg := Config{Device: dev, Fabric: "ofi", RanksPerNode: rpn, EagerLimit: diffEager}
	return Run(ranks, cfg, func(p *Proc) error {
		w := p.World()
		n, me, bs := w.Size(), w.Rank(), 8*elems
		mine := contribution(seed, me, elems)
		wide := contribution(seed+1, me, elems*n) // one block per peer
		table, err := refTable(w, mine)
		if err != nil {
			return err
		}
		wideTable, err := refTable(w, wide)
		if err != nil {
			return err
		}
		check := func(what string, got, want []byte) error {
			if !bytes.Equal(got, want) {
				return fmt.Errorf("%s on %d ranks (rpn %d, %s, %d longs, %v): rank %d got %x want %x",
					what, n, rpn, dev, elems, op, me, got, want)
			}
			return nil
		}
		flat := bytes.Join(table, nil)
		// Ragged table: rank r contributes a prefix of its vector, and
		// blocks sit one byte apart so displacements matter.
		counts, displs, span := make([]int, n), make([]int, n), 0
		for r := range counts {
			counts[r], displs[r] = 8*(1+(r+int(seed))%elems), span
			span += counts[r] + 1
		}
		ragged := make([]byte, span)
		for r := range counts {
			copy(ragged[displs[r]:], table[r][:counts[r]])
		}

		if err := w.Barrier(); err != nil {
			return err
		}
		whole, err := refFold(table, 0, n-1, 0, bs, op)
		if err != nil {
			return err
		}
		got := make([]byte, bs)
		if err := w.Allreduce(mine, got, elems, Long, op); err != nil {
			return err
		}
		if err := check("allreduce", got, whole); err != nil {
			return err
		}
		prefix, err := refFold(table, 0, me, 0, bs, op)
		if err != nil {
			return err
		}
		if err := w.Scan(mine, got, elems, Long, op); err != nil {
			return err
		}
		if err := check("scan", got, prefix); err != nil {
			return err
		}
		sentinel := bytes.Repeat([]byte{0xEE}, bs)
		want := sentinel
		if me > 0 {
			if want, err = refFold(table, 0, me-1, 0, bs, op); err != nil {
				return err
			}
		}
		got = append(got[:0], sentinel...)
		if err := w.Exscan(mine, got, elems, Long, op); err != nil {
			return err
		}
		if err := check("exscan", got, want); err != nil {
			return err
		}
		if want, err = refFold(wideTable, 0, n-1, me*bs, (me+1)*bs, op); err != nil {
			return err
		}
		if err := w.ReduceScatterBlock(wide, got, elems, Long, op); err != nil {
			return err
		}
		if err := check("reduce_scatter_block", got, want); err != nil {
			return err
		}
		all := make([]byte, n*bs)
		if err := w.Allgather(mine, all, elems, Long); err != nil {
			return err
		}
		if err := check("allgather", all, flat); err != nil {
			return err
		}
		for s := 0; s < n; s++ {
			copy(flat[s*bs:], wideTable[s][me*bs:(me+1)*bs])
		}
		if err := w.Alltoall(wide, all, elems, Long); err != nil {
			return err
		}
		if err := check("alltoall", all, flat); err != nil {
			return err
		}
		every := make([]byte, span)
		if err := w.Allgatherv(mine[:counts[me]], every, counts, displs); err != nil {
			return err
		}
		if err := check("allgatherv", every, ragged); err != nil {
			return err
		}

		for root := 0; root < n; root++ {
			buf := append([]byte(nil), mine...)
			if err := w.Bcast(buf, elems, Long, root); err != nil {
				return err
			}
			if err := check(fmt.Sprintf("bcast from %d", root), buf, table[root]); err != nil {
				return err
			}
			got = append(got[:0], sentinel...)
			if err := w.Reduce(mine, got, elems, Long, op, root); err != nil {
				return err
			}
			if want = sentinel; me == root {
				want = whole
			}
			if err := check(fmt.Sprintf("reduce to %d", root), got, want); err != nil {
				return err
			}
			clear(all)
			if err := w.Gather(mine, all, elems, Long, root); err != nil {
				return err
			}
			if me == root {
				if err := check(fmt.Sprintf("gather to %d", root), all, bytes.Join(table, nil)); err != nil {
					return err
				}
			}
			if err := w.Scatter(wide, got, elems, Long, root); err != nil {
				return err
			}
			if err := check(fmt.Sprintf("scatter from %d", root), got, wideTable[root][me*bs:(me+1)*bs]); err != nil {
				return err
			}
			clear(every)
			if err := w.Gatherv(mine[:counts[me]], every, counts, displs, root); err != nil {
				return err
			}
			if me == root {
				if err := check(fmt.Sprintf("gatherv to %d", root), every, ragged); err != nil {
					return err
				}
			}
			// Scatterv hands the ragged buffer rank 0 would have gathered
			// back out from root (only root's copy is read).
			part := make([]byte, counts[me])
			if err := w.Scatterv(ragged, counts, displs, part, root); err != nil {
				return err
			}
			if err := check(fmt.Sprintf("scatterv from %d", root), part, mine[:counts[me]]); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestBlockingCollectivesDifferential sweeps world sizes (power-of-two
// and not), one and two ranks per node, both devices, both operator
// kinds, and payloads below, at and above the eager limit.
func TestBlockingCollectivesDifferential(t *testing.T) {
	for _, ranks := range []int{1, 2, 3, 4, 5, 8, 13} {
		for _, rpn := range []int{1, 2} {
			for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
				for _, elems := range []int{2, diffEager / 8, diffEager/8 + 2} {
					for _, op := range []Op{OpSum, opAffine} {
						if err := diffBlockingCollectives(ranks, rpn, dev, elems, op, uint64(ranks)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
}

// FuzzBlockingCollectives drives the same comparison from fuzzed world
// shapes, payload sizes and seeds (make fuzz-smoke).
func FuzzBlockingCollectives(f *testing.F) {
	f.Add(uint8(5), false, false, uint8(9), false, uint64(1))
	f.Add(uint8(8), true, true, uint8(2), true, uint64(2))
	f.Fuzz(func(t *testing.T, ranks uint8, twoPerNode, original bool, pairs uint8, affine bool, seed uint64) {
		rpn, dev, op := 1, DeviceCH4, OpSum
		if twoPerNode {
			rpn = 2
		}
		if original {
			dev = DeviceOriginal
		}
		if affine {
			op = opAffine
		}
		if err := diffBlockingCollectives(1+int(ranks)%13, rpn, dev, 2*(1+int(pairs)%8), op, seed); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBlockingCollectiveMessageCounts pins the algorithms behind the
// blocking collectives, so that an algorithm change cannot hide behind
// equal results. Each blocking entry point carries a pin (coll.go), and
// a pin promises the same algorithm whatever the layout, the configured
// CollAlgorithm or the communicator's info key say: in every
// configuration the only per-algorithm slot Stats charges is the
// pinned one, once per rank, while the same arguments through the
// I-form land where the configuration sends them. With one rank per
// node and nothing pinned, rank 0's message counts are checked too:
// recursive doubling and dissemination are 3 sends + 3 receives on 8
// ranks, binomial bcast from rank 0 is 3 children x the payload's
// segments. Each call runs in a world of its own and is read from the
// teardown snapshot, when every message has landed.
func TestBlockingCollectiveMessageCounts(t *testing.T) {
	const kib16, segments = 16 << 10, 2 // ofi's eager limit is 8 KiB
	allreduce := func(w *Comm) error {
		return w.Allreduce(make([]byte, 64), make([]byte, 64), 8, Double, OpSum)
	}
	rows := []struct {
		name        string
		ranks       int
		call        func(w *Comm) error
		slot        string // what the blocking pin charges, everywhere
		sent, recvd int64  // rank 0's net messages in the "ofi" configuration
		icall       func(w *Comm) error
	}{
		{"allreduce", 8, allreduce, "allreduce/rdouble", 3, 3, func(w *Comm) error {
			return istart(w.Iallreduce(make([]byte, 64), make([]byte, 64), 8, Double, OpSum))
		}},
		{"allreduce-6", 6, allreduce, "allreduce/reduce-bcast", 3, 3, nil},
		{"bcast", 8, func(w *Comm) error { return w.Bcast(make([]byte, kib16), kib16, Byte, 0) },
			"bcast/binomial", 3 * segments, 0, func(w *Comm) error {
				return istart(w.Ibcast(make([]byte, kib16), kib16, Byte, 0))
			}},
		{"barrier", 8, (*Comm).Barrier, "barrier/dissemination", 3, 3, nil},
		{"allgather", 8, func(w *Comm) error {
			return w.Allgather(make([]byte, 64), make([]byte, 8*64), 64, Byte)
		}, "allgather/ring", 7, 7, nil},
		{"alltoall", 8, func(w *Comm) error {
			return w.Alltoall(make([]byte, 8*64), make([]byte, 8*64), 64, Byte)
		}, "alltoall/pairwise", 7, 7, nil},
	}
	for _, cfg := range []struct {
		name    string
		cfg     Config
		infoKey string
		islot   map[string]string // where the I-form of a row lands
	}{
		{"ofi", Config{Fabric: "ofi"}, "",
			map[string]string{"allreduce": "allreduce/rdouble", "bcast": "bcast/scatter-allgather"}},
		{"rpn2", Config{Fabric: "ofi", RanksPerNode: 2}, "",
			map[string]string{"allreduce": "allreduce/two-level", "bcast": "bcast/two-level"}},
		{"two-level", Config{Fabric: "ofi", RanksPerNode: 2, CollAlgorithm: "two-level"}, "",
			map[string]string{"allreduce": "allreduce/two-level", "bcast": "bcast/two-level"}},
		{"info-key", Config{Fabric: "ofi"}, "scatter-allgather",
			map[string]string{"allreduce": "allreduce/rdouble", "bcast": "bcast/scatter-allgather"}},
	} {
		// charged runs call in a world of its own and returns the
		// nonzero per-algorithm call counts.
		charged := func(ranks int, call func(w *Comm) error) (map[string]int64, *Stats) {
			st := runICollJob(t, cfg.cfg, ranks, func(p *Proc) error {
				if cfg.infoKey != "" {
					p.World().SetInfo(CollAlgorithmKey, cfg.infoKey)
				}
				return call(p.World())
			})
			got := map[string]int64{}
			for _, cs := range st.Aggregate().Coll {
				if cs.Calls != 0 {
					got[cs.Algo] = cs.Calls
				}
			}
			return got, st
		}
		for _, r := range rows {
			got, st := charged(r.ranks, r.call)
			if want := map[string]int64{r.slot: int64(r.ranks)}; !maps.Equal(got, want) {
				t.Errorf("%s/%s: charged %v, want %v", cfg.name, r.name, got, want)
			}
			if m := st.Ranks[0].Metrics; cfg.name == "ofi" && (m.NetSend.Msgs != r.sent || m.NetRecv.Msgs != r.recvd) {
				t.Errorf("%s: rank 0 sent %d and received %d messages, want %d and %d",
					r.name, m.NetSend.Msgs, m.NetRecv.Msgs, r.sent, r.recvd)
			}
			if r.icall == nil {
				continue
			}
			got, _ = charged(r.ranks, r.icall)
			if want := map[string]int64{cfg.islot[r.name]: int64(r.ranks)}; !maps.Equal(got, want) {
				t.Errorf("%s/I%s: charged %v, want %v", cfg.name, r.name, got, want)
			}
		}
	}
}
