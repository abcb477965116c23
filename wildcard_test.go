package gompi

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// TestWildcardEveryLaneCount: a receive or probe with both MPI_ANY_SOURCE
// and MPI_ANY_TAG must find every message of its communicator, whatever
// the lane count. Two senders each send 32 messages over tags 0-7 to
// rank 0, which consumes them with Recv, Irecv, Probe followed by an
// exact Recv, and Mprobe, all with both wildcards, on World and then on
// a Dup. Every message must arrive with its
// (source, tag, bytes), and each sender's messages in the order it sent
// them (MPI's non-overtaking rule). The watchdog turns a receive that
// never finds its message into ErrStalled instead of a hang.
func TestWildcardEveryLaneCount(t *testing.T) {
	for _, lanes := range []int{1, 2, 4, 8} {
		for _, tm := range []bool{false, true} {
			cfg := Config{Device: DeviceCH4, Fabric: FabricOFI, VCIs: lanes, ThreadMultiple: tm,
				Watchdog: true, DiagWriter: io.Discard}
			if err := Run(3, cfg, wildcardProgram); err != nil {
				t.Errorf("VCIs %d, ThreadMultiple %v: %v", lanes, tm, err)
			}
		}
	}
}

// wildcardMsgs is how many messages each sender sends per communicator:
// eight for each of the receiver's four receive shapes.
const wildcardMsgs = 32

// wildcardMsg is sender src's seq-th message: tag seq%8, and 2-4 bytes
// carrying (src, seq).
func wildcardMsg(src, seq int) (tag int, payload []byte) {
	return seq % 8, append([]byte{byte(src), byte(seq)}, make([]byte, seq%3)...)
}

func wildcardProgram(p *Proc) error {
	w := p.World()
	dup, err := w.Dup()
	if err != nil {
		return err
	}
	for _, c := range []*Comm{w, dup} {
		if p.Rank() != 0 {
			for seq := 0; seq < wildcardMsgs; seq++ {
				tag, buf := wildcardMsg(p.Rank(), seq)
				if err := c.Send(buf, len(buf), Byte, 0, tag); err != nil {
					return err
				}
			}
			continue
		}
		if err := wildcardReceive(c); err != nil {
			return err
		}
	}
	return nil
}

// wildcardReceive consumes both senders' messages on c, eight per sender
// with each receive shape, checking every envelope and each sender's
// order.
func wildcardReceive(c *Comm) error {
	next := map[int]int{1: 0, 2: 0}
	check := func(how string, st Status, buf []byte) error {
		src, seq := int(buf[0]), int(buf[1])
		tag, want := wildcardMsg(src, next[src])
		if st.Source != src || seq != next[src] || st.Tag != tag || st.Count != len(want) {
			return fmt.Errorf("%s got (source %d, tag %d, %d bytes) carrying (%d, seq %d), want sender %d's seq %d (tag %d, %d bytes)",
				how, st.Source, st.Tag, st.Count, src, seq, src, next[src], tag, len(want))
		}
		next[src]++
		return nil
	}
	const n = 2 * wildcardMsgs / 4
	for i := 0; i < n; i++ {
		buf := make([]byte, 8)
		st, err := c.Recv(buf, len(buf), Byte, AnySource, AnyTag)
		if err != nil {
			return err
		}
		if err := check("Recv", st, buf); err != nil {
			return err
		}
	}
	bufs, reqs := make([][]byte, n), make([]*Request, n)
	for i := range reqs {
		bufs[i] = make([]byte, 8)
		var err error
		if reqs[i], err = c.Irecv(bufs[i], 8, Byte, AnySource, AnyTag); err != nil {
			return err
		}
	}
	for i, r := range reqs {
		st, err := r.Wait()
		if err != nil {
			return err
		}
		if err := check("Irecv", st, bufs[i]); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		pst, err := c.Probe(AnySource, AnyTag)
		if err != nil {
			return err
		}
		buf := make([]byte, 8)
		st, err := c.Recv(buf, len(buf), Byte, pst.Source, pst.Tag)
		if err != nil {
			return err
		}
		if st != pst {
			return fmt.Errorf("Probe saw %+v, the Recv it named got %+v", pst, st)
		}
		if err := check("Probe", st, buf); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		m, err := c.Mprobe(AnySource, AnyTag)
		if err != nil {
			return err
		}
		buf := make([]byte, 8)
		st, err := m.Recv(buf, len(buf), Byte)
		if err != nil {
			return err
		}
		if err := check("Mprobe", st, buf); err != nil {
			return err
		}
	}
	return nil
}

// FuzzWildcardLaneCount is the seeded lane-count differential. One seed
// generates one program: every sender's messages on World and on a Dup
// (tags 0-5, 2-8 bytes, sent blocking or nonblocking), and the
// receiver's receives — exact, AnySource, AnyTag and both wildcards,
// each as a Recv, a batch of Irecvs, a Probe followed by the Recv it
// names, or an Mprobe. The program must consume the same multiset of
// (source, tag, bytes) with each receive shape, and each sender's
// messages in the same order, at VCIs 1, 2, 4 and 8. The generator
// leaves each receive exactly one legal match: it makes a receive's
// source a wildcard only while a single sender still has a message it
// could match, so MPI's non-overtaking rule names the message whatever
// the arrival order.
func FuzzWildcardLaneCount(f *testing.F) {
	f.Add(uint64(1), uint8(2), false)
	f.Add(uint64(2), uint8(3), true)
	f.Add(uint64(3), uint8(1), false)
	f.Add(uint64(4), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed uint64, senders uint8, tm bool) {
		prog := newLaneProgram(seed, 1+int(senders)%3)
		var want string
		for _, lanes := range []int{1, 2, 4, 8} {
			got, err := prog.run(lanes, tm)
			if err != nil {
				t.Fatalf("seed %d, VCIs %d, ThreadMultiple %v: %v", seed, lanes, tm, err)
			}
			if lanes == 1 {
				want = got
			} else if got != want {
				t.Fatalf("seed %d, ThreadMultiple %v: VCIs %d consumed\n%s\nVCIs 1 consumed\n%s", seed, tm, lanes, got, want)
			}
		}
	})
}

// The receive modes of a lane program.
const (
	laneRecv = iota
	laneIrecv
	laneProbe
	laneMprobe
)

var laneModeNames = [...]string{"Recv", "Irecv", "Probe", "Mprobe"}

type laneMsg struct {
	tag, n int
	isend  bool
}

// laneOp is one receive: src and tag may be wildcards.
type laneOp struct{ mode, src, tag int }

func (o laneOp) shape() string {
	src, tag := "src", "tag"
	if o.src == AnySource {
		src = "any"
	}
	if o.tag == AnyTag {
		tag = "any"
	}
	return fmt.Sprintf("%s(%s,%s)", laneModeNames[o.mode], src, tag)
}

// laneProgram is what one seed runs: per communicator (World, then a
// Dup), sends[c][s] are sender s+1's messages in order, and recvs[c]
// the receiver's steps — one receive each, or one batch of Irecvs
// waited for together.
type laneProgram struct {
	senders int
	sends   [2][][]laneMsg
	recvs   [2][][]laneOp
}

func newLaneProgram(seed uint64, senders int) *laneProgram {
	rng := rand.New(rand.NewPCG(seed, 0x1a9e))
	p := &laneProgram{senders: senders}
	for c := range p.sends {
		p.sends[c] = make([][]laneMsg, senders)
		// left[s] holds sender s's unconsumed message indices, in order.
		left := make([][]int, senders)
		for s := range senders {
			for i := range 4 + rng.IntN(20) {
				p.sends[c][s] = append(p.sends[c][s], laneMsg{tag: rng.IntN(6), n: 2 + rng.IntN(7), isend: rng.IntN(2) == 0})
				left[s] = append(left[s], i)
			}
		}
		for remaining := true; remaining; {
			mode := rng.IntN(len(laneModeNames))
			batch := 1
			if mode == laneIrecv {
				batch += rng.IntN(4)
			}
			var step []laneOp
			for ; batch > 0 && remaining; batch-- {
				step = append(step, p.pick(rng, c, left, mode))
				remaining = slices.ContainsFunc(left, func(l []int) bool { return len(l) > 0 })
			}
			p.recvs[c] = append(p.recvs[c], step)
		}
	}
	return p
}

// pick draws one receive of the given mode for a random unconsumed
// message and consumes, in left, the message it must match: the first
// unconsumed one of its sender that its tag admits. Its source is a
// wildcard only when no other sender has an unconsumed message it
// admits.
func (p *laneProgram) pick(rng *rand.Rand, c int, left [][]int, mode int) laneOp {
	admits := func(s, tag int) bool {
		return slices.ContainsFunc(left[s], func(i int) bool { return tag == AnyTag || p.sends[c][s][i].tag == tag })
	}
	sole := func(s, tag int) bool {
		for o := range left {
			if o != s && admits(o, tag) {
				return false
			}
		}
		return true
	}
	var live []int
	for s, l := range left {
		if len(l) > 0 {
			live = append(live, s)
		}
	}
	s := live[rng.IntN(len(live))]
	op := laneOp{mode: mode, src: s + 1, tag: p.sends[c][s][left[s][rng.IntN(len(left[s]))]].tag}
	switch rng.IntN(4) {
	case 1:
		op.tag = AnyTag
	case 2:
		if sole(s, op.tag) {
			op.src = AnySource
		}
	case 3:
		if sole(s, AnyTag) {
			op.src, op.tag = AnySource, AnyTag
		}
	}
	i := slices.IndexFunc(left[s], func(i int) bool { return op.tag == AnyTag || p.sends[c][s][i].tag == op.tag })
	left[s] = slices.Delete(left[s], i, i+1)
	return op
}

// run runs the program at the given lane count and returns what the
// receiver consumed: per communicator, the sorted (source, tag, bytes)
// of each receive shape and each sender's message order. Every receive
// is also checked against the envelope its payload's (source, sequence)
// names.
func (p *laneProgram) run(lanes int, tm bool) (string, error) {
	cfg := Config{Device: DeviceCH4, Fabric: FabricOFI, VCIs: lanes, ThreadMultiple: tm,
		Watchdog: true, DiagWriter: io.Discard}
	var out strings.Builder
	err := Run(p.senders+1, cfg, func(pr *Proc) error {
		w := pr.World()
		dup, err := w.Dup()
		if err != nil {
			return err
		}
		for c, comm := range []*Comm{w, dup} {
			if pr.Rank() != 0 {
				if err := p.send(comm, c, pr.Rank()); err != nil {
					return err
				}
				continue
			}
			if err := p.receive(comm, c, &out); err != nil {
				return fmt.Errorf("comm %d: %w", c, err)
			}
		}
		return nil
	})
	return out.String(), err
}

func (p *laneProgram) send(comm *Comm, c, rank int) error {
	var reqs []*Request
	for seq, m := range p.sends[c][rank-1] {
		buf := append([]byte{byte(rank), byte(seq)}, make([]byte, m.n-2)...)
		if !m.isend {
			if err := comm.Send(buf, m.n, Byte, 0, m.tag); err != nil {
				return err
			}
			continue
		}
		r, err := comm.Isend(buf, m.n, Byte, 0, m.tag)
		if err != nil {
			return err
		}
		reqs = append(reqs, r)
	}
	return Waitall(reqs)
}

func (p *laneProgram) receive(comm *Comm, c int, out *strings.Builder) error {
	shapes := map[string][]string{}
	order := make([][]int, p.senders)
	consume := func(op laneOp, st Status, buf []byte) error {
		src, seq := int(buf[0]), int(buf[1])
		if src < 1 || src > p.senders || seq >= len(p.sends[c][src-1]) {
			return fmt.Errorf("%s got a payload naming sender %d seq %d", op.shape(), src, seq)
		}
		m := p.sends[c][src-1][seq]
		if st.Source != src || st.Tag != m.tag || st.Count != m.n ||
			(op.src != AnySource && op.src != src) || (op.tag != AnyTag && op.tag != m.tag) {
			return fmt.Errorf("%s (source %d, tag %d) got (source %d, tag %d, %d bytes) carrying sender %d's seq %d (tag %d, %d bytes)",
				op.shape(), op.src, op.tag, st.Source, st.Tag, st.Count, src, seq, m.tag, m.n)
		}
		shapes[op.shape()] = append(shapes[op.shape()], fmt.Sprintf("(%d,%d,%d)", src, m.tag, m.n))
		order[src-1] = append(order[src-1], seq)
		return nil
	}
	for _, step := range p.recvs[c] {
		bufs := make([][]byte, len(step))
		reqs := make([]*Request, len(step))
		for k, op := range step {
			bufs[k] = make([]byte, 8)
			var st Status
			var err error
			switch op.mode {
			case laneRecv:
				st, err = comm.Recv(bufs[k], 8, Byte, op.src, op.tag)
			case laneIrecv:
				reqs[k], err = comm.Irecv(bufs[k], 8, Byte, op.src, op.tag)
			case laneProbe:
				var pst Status
				if pst, err = comm.Probe(op.src, op.tag); err == nil {
					if st, err = comm.Recv(bufs[k], 8, Byte, pst.Source, pst.Tag); err == nil && st != pst {
						err = fmt.Errorf("Probe saw %+v, the Recv it named got %+v", pst, st)
					}
				}
			case laneMprobe:
				var m *Message
				if m, err = comm.Mprobe(op.src, op.tag); err == nil {
					st, err = m.Recv(bufs[k], 8, Byte)
				}
			}
			if err != nil {
				return err
			}
			if op.mode != laneIrecv {
				if err := consume(op, st, bufs[k]); err != nil {
					return err
				}
			}
		}
		for k, r := range reqs {
			if r == nil {
				continue
			}
			st, err := r.Wait()
			if err != nil {
				return err
			}
			if err := consume(step[k], st, bufs[k]); err != nil {
				return err
			}
		}
	}
	var keys []string
	for shape := range shapes {
		keys = append(keys, shape)
	}
	slices.Sort(keys)
	for _, shape := range keys {
		slices.Sort(shapes[shape])
		fmt.Fprintf(out, "comm %d %s %v\n", c, shape, shapes[shape])
	}
	for s, seqs := range order {
		fmt.Fprintf(out, "comm %d sender %d %v\n", c, s+1, seqs)
	}
	return nil
}

// TestOneLanePerComm: every message of a communicator rides one VCI
// lane, whatever its tag or the receive that consumes it. On 4 lanes,
// on-node and off-node, rank 1 sends rank 0 eight messages over tags
// 0-7 for each receive shape — exact, AnySource, AnyTag, both
// wildcards, Probe then Recv, Mprobe — then a partitioned transfer of
// four chunks and a no-match message, first on an unhinted World and
// then on a Dup asserting NoAnyTag (which skips the shapes the
// assertion forbids). Every payload must arrive intact, and the
// receive traffic of each communicator's phase must land on exactly
// one of rank 0's lanes. A phase ends with a token from rank 0 to rank
// 1, so no traffic of the next phase reaches rank 0 before it has read
// its counters.
func TestOneLanePerComm(t *testing.T) {
	for _, rpn := range []int{1, 2} {
		cfg := Config{Device: DeviceCH4, Fabric: FabricOFI, VCIs: 4, RanksPerNode: rpn, ShmEagerMax: 64, EagerLimit: 64,
			Watchdog: true, DiagWriter: io.Discard}
		if err := Run(2, cfg, oneLaneProgram); err != nil {
			t.Errorf("ranks per node %d: %v", rpn, err)
		}
	}
}

// oneLaneShapes are the receive shapes of TestOneLanePerComm: a
// source and tag wildcard each, and how the message is consumed.
var oneLaneShapes = []struct {
	anySrc, anyTag bool
	mode           int // laneRecv, laneProbe or laneMprobe
}{
	{false, false, laneRecv},
	{true, false, laneRecv},
	{false, true, laneRecv},
	{true, true, laneRecv},
	{false, false, laneProbe},
	{false, false, laneMprobe},
}

// oneLaneMsg is the payload of comm c's message for shape s and tag.
func oneLaneMsg(c, s, tag int) []byte { return []byte{byte(c), byte(s), byte(tag), 0xa5} }

func oneLaneProgram(p *Proc) error {
	w := p.World()
	dup, err := w.DupOpt(CommOptions{Hints: CommHints{NoAnyTag: true}})
	if err != nil {
		return err
	}
	for ci, c := range []*Comm{w, dup} {
		legal := func(anySrc, anyTag bool) bool {
			h := c.Hints()
			return !(anySrc && h.NoAnySource) && !(anyTag && h.NoAnyTag)
		}
		if p.Rank() == 1 {
			if err := oneLaneSend(c, ci, legal); err != nil {
				return err
			}
			continue
		}
		before := p.Metrics().VCIs
		if err := oneLaneReceive(c, ci, legal); err != nil {
			return fmt.Errorf("comm %d: %w", ci, err)
		}
		var lanes []int
		for v, st := range p.Metrics().VCIs {
			if st.Msgs != before[v].Msgs {
				lanes = append(lanes, v)
			}
		}
		if len(lanes) != 1 {
			return fmt.Errorf("comm %d: receive traffic landed on lanes %v, want exactly one", ci, lanes)
		}
		if err := c.Send(nil, 0, Byte, 1, oneLaneDone); err != nil {
			return err
		}
	}
	return nil
}

// oneLaneDone is the tag of the token that ends a phase.
const oneLaneDone = 99

// oneLanePartitioned declares comm ci's partitioned transfer: four
// 64-byte partitions, each its own chunk under a 64-byte ShmEagerMax
// (on-node) or EagerLimit (off-node).
func oneLanePartitioned(c *Comm, ci int, send bool) (*PartitionedOp, []byte, error) {
	buf := make([]byte, 4*64)
	var op *PartitionedOp
	var err error
	if send {
		for i := range buf {
			buf[i] = byte(ci + i)
		}
		op, err = c.PsendInit(buf, 4, 64, Byte, 0, 9)
	} else {
		op, err = c.PrecvInit(buf, 4, 64, Byte, 1, 9)
	}
	if err == nil && op.Chunks() < 4 {
		err = fmt.Errorf("partitioned transfer has %d chunks, want 4", op.Chunks())
	}
	return op, buf, err
}

func oneLaneSend(c *Comm, ci int, legal func(anySrc, anyTag bool) bool) error {
	if err := c.Barrier(); err != nil {
		return err
	}
	for s, sh := range oneLaneShapes {
		if !legal(sh.anySrc, sh.anyTag) {
			continue
		}
		for tag := 0; tag < 8; tag++ {
			if err := c.Send(oneLaneMsg(ci, s, tag), 4, Byte, 0, tag); err != nil {
				return err
			}
		}
	}
	op, _, err := oneLanePartitioned(c, ci, true)
	if err != nil {
		return err
	}
	if err := op.Start(); err != nil {
		return err
	}
	if err := op.PreadyRange(0, 4); err != nil {
		return err
	}
	if err := op.Wait(); err != nil {
		return err
	}
	if legal(true, true) {
		r, err := c.IsendNoMatch(oneLaneMsg(ci, len(oneLaneShapes), 0), 4, Byte, 0)
		if err != nil {
			return err
		}
		if _, err := r.Wait(); err != nil {
			return err
		}
	}
	_, err = c.Recv(nil, 0, Byte, 0, oneLaneDone)
	return err
}

func oneLaneReceive(c *Comm, ci int, legal func(anySrc, anyTag bool) bool) error {
	if err := c.Barrier(); err != nil {
		return err
	}
	check := func(what string, st Status, buf []byte, want []byte) error {
		if st.Count != len(want) || !bytes.Equal(buf[:st.Count], want) {
			return fmt.Errorf("%s got (source %d, tag %d) % x, want % x", what, st.Source, st.Tag, buf[:st.Count], want)
		}
		return nil
	}
	for s, sh := range oneLaneShapes {
		if !legal(sh.anySrc, sh.anyTag) {
			continue
		}
		src := 1
		if sh.anySrc {
			src = AnySource
		}
		for tag := 0; tag < 8; tag++ {
			rtag := tag
			if sh.anyTag {
				rtag = AnyTag
			}
			buf := make([]byte, 8)
			var st Status
			var err error
			switch sh.mode {
			case laneRecv:
				st, err = c.Recv(buf, len(buf), Byte, src, rtag)
			case laneProbe:
				var pst Status
				if pst, err = c.Probe(src, rtag); err == nil {
					st, err = c.Recv(buf, len(buf), Byte, pst.Source, pst.Tag)
				}
			case laneMprobe:
				var m *Message
				if m, err = c.Mprobe(src, rtag); err == nil {
					st, err = m.Recv(buf, len(buf), Byte)
				}
			}
			if err != nil {
				return err
			}
			if err := check(fmt.Sprintf("%s(src %d, tag %d)", laneModeNames[sh.mode], src, rtag), st, buf, oneLaneMsg(ci, s, tag)); err != nil {
				return err
			}
			if st.Source != 1 || st.Tag != tag {
				return fmt.Errorf("%s(src %d, tag %d) got source %d, tag %d, want 1, %d", laneModeNames[sh.mode], src, rtag, st.Source, st.Tag, tag)
			}
		}
	}
	op, buf, err := oneLanePartitioned(c, ci, false)
	if err != nil {
		return err
	}
	if err := op.Start(); err != nil {
		return err
	}
	if err := op.Wait(); err != nil {
		return err
	}
	for i, b := range buf {
		if b != byte(ci+i) {
			return fmt.Errorf("partitioned byte %d is %d, want %d", i, b, byte(ci+i))
		}
	}
	if !legal(true, true) {
		return nil
	}
	nm := make([]byte, 8)
	st, err := c.RecvNoMatch(nm, len(nm), Byte)
	if err != nil {
		return err
	}
	return check("RecvNoMatch", st, nm, oneLaneMsg(ci, len(oneLaneShapes), 0))
}
